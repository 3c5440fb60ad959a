// Thread pool shared by an entire campaign: every (scenario point,
// replication) pair — or lane group of replications — becomes one task, so a
// 200-point grid saturates all cores instead of serializing scenarios and
// parallelizing only within one (the run_replications bottleneck this
// subsystem replaces).
//
// Design: one mutex-guarded FIFO queue, so workers start tasks in the order
// they were submitted.  A campaign releases its records in grid order, and
// each record waits for every earlier point; starting tasks in submission
// order lets a record leave as soon as its own point and the points before
// it are done instead of at the end of the campaign.  Campaign tasks never
// nest, so nothing here needs the newest-first order of fork-join
// work-stealing, which would run the first points last.  Tasks are coarse — a
// replication runs for milliseconds to seconds — so one lock is noise next
// to the work it hands out.  Determinism is the caller's job: campaign tasks
// write into preassigned slots and every scenario derives its seed from
// config content, so results are identical whatever the interleaving.
//
// The type keeps its historical name because the benchmark program in
// psdbench/ constructs it by that name.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace psd {

class WorkStealingPool {
 public:
  /// `workers` == 0 picks std::thread::hardware_concurrency().
  explicit WorkStealingPool(std::size_t workers = 0);

  /// Drains remaining tasks (wait_idle) before joining the workers.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Enqueue a task at the back of the queue.  Safe from any thread; a task
  /// may submit more tasks.  Tasks must not throw (an escaping exception
  /// ends the program, as it does for any std::thread).
  void submit(std::function<void()> task);

  /// Block until every submitted task (including ones submitted by running
  /// tasks) has finished.  Must not be called from inside a task.
  void wait_idle();

  std::size_t worker_count() const { return workers_.size(); }

  struct Stats {
    std::uint64_t executed = 0;  ///< Tasks run to completion.
    double busy_seconds = 0.0;   ///< Summed task execution time, all workers.
  };
  Stats stats() const;

 private:
  void worker_loop();

  // Guards the queue, the idle/wake protocol and the counters below.
  mutable std::mutex m_;
  std::deque<std::function<void()>> queue_;
  std::condition_variable work_cv_;  ///< Workers sleep here.
  std::condition_variable idle_cv_;  ///< wait_idle sleeps here.
  std::size_t in_flight_ = 0;        ///< Dequeued, still executing.
  bool stop_ = false;
  std::uint64_t executed_ = 0;
  std::uint64_t busy_ns_ = 0;

  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace psd
