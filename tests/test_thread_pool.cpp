// WorkStealingPool: execution counts, nested submits, submission-order
// start, wait_idle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "sweep/thread_pool.hpp"

namespace psd {
namespace {

TEST(ThreadPool, ExecutesEverySubmittedTask) {
  WorkStealingPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(pool.stats().executed, 1000u);
}

TEST(ThreadPool, SingleWorkerStillDrains) {
  WorkStealingPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.worker_count(), 1u);
}

TEST(ThreadPool, RunsTasksInSubmissionOrder) {
  // The only worker is held inside the first task while 20 more queue up
  // behind it; once released it must start them in the order submitted.
  WorkStealingPool pool(1);
  std::mutex m;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  pool.submit([&] {
    std::unique_lock<std::mutex> lk(m);
    started = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return started; });
  }
  std::vector<int> order;  // only the worker writes it, before wait_idle
  for (int i = 1; i <= 20; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  {
    std::lock_guard<std::mutex> lk(m);
    release = true;
  }
  cv.notify_all();
  pool.wait_idle();
  std::vector<int> expected(20);
  std::iota(expected.begin(), expected.end(), 1);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  WorkStealingPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      count.fetch_add(1, std::memory_order_relaxed);
      for (int j = 0; j < 4; ++j) {
        pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(ThreadPool, WaitIdleCoversInFlightWork) {
  WorkStealingPool pool(2);
  std::atomic<bool> finished{false};
  pool.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished.store(true);
  });
  pool.wait_idle();
  EXPECT_TRUE(finished.load());
  EXPECT_GT(pool.stats().busy_seconds, 0.0);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  WorkStealingPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait_idle();
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, DefaultWorkerCountIsHardwareBound) {
  WorkStealingPool pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, OversubscribedPoolDrainsEverything) {
  // More workers than this machine has cores: workers get preempted at
  // arbitrary points in the queue/wake protocol, which is exactly where
  // lost-wakeup and double-execution bugs hide.  Counts must still be exact.
  const std::size_t workers =
      std::max<std::size_t>(8, std::thread::hardware_concurrency() * 4);
  WorkStealingPool pool(workers);
  std::atomic<int> count{0};
  for (int i = 0; i < 5000; ++i) {
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 5000);
  EXPECT_EQ(pool.stats().executed, 5000u);
  EXPECT_EQ(pool.worker_count(), workers);
}

TEST(ThreadPool, OversubscribedNestedSubmitStorm) {
  // Nested submits join the queue while their parents still run; with
  // workers outnumbering cores a worker is routinely descheduled between
  // submitting and finishing, so wait_idle() must count queued and running
  // tasks together.
  const std::size_t workers =
      std::max<std::size_t>(8, std::thread::hardware_concurrency() * 4);
  WorkStealingPool pool(workers);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] {
      count.fetch_add(1, std::memory_order_relaxed);
      for (int j = 0; j < 16; ++j) {
        pool.submit([&] {
          count.fetch_add(1, std::memory_order_relaxed);
          pool.submit(
              [&] { count.fetch_add(1, std::memory_order_relaxed); });
        });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64 + 64 * 16 + 64 * 16);
  // wait_idle() must be exact even with every worker racing: re-run works.
  pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64 + 64 * 16 + 64 * 16 + 1);
}

TEST(ThreadPool, RejectsEmptyTask) {
  WorkStealingPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), std::invalid_argument);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    WorkStealingPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

}  // namespace
}  // namespace psd
