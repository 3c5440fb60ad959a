#include "sweep/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"

namespace psd {

namespace {

// Which pool (if any) the current thread works for; wait_idle() from one of
// its own tasks would wait for itself.
thread_local const WorkStealingPool* tl_pool = nullptr;

}  // namespace

WorkStealingPool::WorkStealingPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void WorkStealingPool::submit(std::function<void()> task) {
  PSD_REQUIRE(task != nullptr, "cannot submit an empty task");
  {
    std::lock_guard<std::mutex> lk(m_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void WorkStealingPool::worker_loop() {
  tl_pool = this;
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ with nothing left to run
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lk.unlock();

    const auto start = std::chrono::steady_clock::now();
    task();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    task = nullptr;  // release the task's captures outside the lock

    lk.lock();
    --in_flight_;
    ++executed_;
    busy_ns_ += static_cast<std::uint64_t>(ns);
    if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
  }
}

void WorkStealingPool::wait_idle() {
  PSD_REQUIRE(tl_pool != this,
              "wait_idle() called from inside a pool task (would deadlock)");
  std::unique_lock<std::mutex> lk(m_);
  idle_cv_.wait(lk, [&] { return queue_.empty() && in_flight_ == 0; });
}

WorkStealingPool::Stats WorkStealingPool::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  Stats s;
  s.executed = executed_;
  s.busy_seconds = static_cast<double>(busy_ns_) * 1e-9;
  return s;
}

}  // namespace psd
