// MpscQueue: single-thread semantics, then multi-producer ordering and
// liveness with real threads.  The concurrent tests are written for
// ThreadSanitizer: real contention, atomic-only communication, and no
// timing-dependent assertions (completion is awaited, never assumed).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "rt/mpsc_queue.hpp"
#include "workload/request.hpp"

#ifdef __linux__
#include <sys/resource.h>
#endif

namespace psd::rt {
namespace {

TEST(MpscQueue, RoundsCapacityUpToPowerOfTwo) {
  MpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  MpscQueue<int> q2(1);
  EXPECT_EQ(q2.capacity(), 2u);
}

TEST(MpscQueue, FifoSingleThread) {
  MpscQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.try_pop(out));
}

TEST(MpscQueue, FullQueueRejectsWithoutBlocking) {
  MpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));
  int out = -1;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(q.try_push(99));  // slot freed
}

TEST(MpscQueue, WrapsAroundManyLaps) {
  MpscQueue<std::uint64_t> q(4);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.try_push(i));
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  q.publish_consumed();
  EXPECT_EQ(q.approx_size(), 0u);
}

TEST(MpscQueue, ZeroStateCellsSurviveManyLaps) {
  // Each cell stores its sequence relative to its index, starting from the
  // all-zero state.  Fill and empty a 4-cell ring lap after lap, from every
  // starting offset, so laps begin at every cell: the full and the empty
  // ring must read as such at every lap boundary.
  for (std::uint64_t offset = 0; offset < 4; ++offset) {
    MpscQueue<std::uint64_t> q(4);
    std::uint64_t out = 0;
    for (std::uint64_t i = 0; i < offset; ++i) {
      ASSERT_TRUE(q.try_push(i));
      ASSERT_TRUE(q.try_pop(out));
    }
    std::uint64_t next = 0;
    for (int lap = 0; lap < 8; ++lap) {
      for (std::uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push(next + i));
      EXPECT_FALSE(q.try_push(99)) << "offset " << offset << " lap " << lap;
      for (std::uint64_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.can_pop());
        ASSERT_TRUE(q.try_pop(out));
        EXPECT_EQ(out, next + i);
      }
      EXPECT_FALSE(q.can_pop()) << "offset " << offset << " lap " << lap;
      EXPECT_FALSE(q.try_pop(out)) << "offset " << offset << " lap " << lap;
      next += 4;
    }
  }
}

#ifdef __linux__
TEST(MpscQueue, ConstructionTouchesNoCells) {
  // 2^20 request cells map 64 MB.  Writing every cell's sequence at
  // construction would fault in about 16k pages; the zero state needs none.
  rusage before{};
  rusage after{};
  getrusage(RUSAGE_THREAD, &before);
  {
    MpscQueue<Request> q(std::size_t{1} << 20);
    getrusage(RUSAGE_THREAD, &after);
    EXPECT_EQ(q.capacity(), std::size_t{1} << 20);
  }
  EXPECT_LT(after.ru_minflt - before.ru_minflt, 64);
}
#endif

/// A value whose copy-assignment runs a hook.  try_push assigns the value
/// after it claimed the cell and before it releases it, so the hook sees
/// the queue in exactly the claimed-but-unreleased state.
struct Hooked {
  int v = 0;
  static inline std::function<void()> on_assign;
  Hooked& operator=(const Hooked& other) {
    v = other.v;
    if (on_assign) on_assign();
    return *this;
  }
};

TEST(MpscQueue, CanPopSeesReleasedCellsOnly) {
  MpscQueue<Hooked> q(4);
  EXPECT_FALSE(q.can_pop());
  int empty_head_reads = 0;
  Hooked::on_assign = [&] { empty_head_reads += q.can_pop() ? 0 : 1; };
  ASSERT_TRUE(q.try_push(Hooked{1}));  // head claimed, not yet released
  ASSERT_TRUE(q.try_push(Hooked{2}));  // head released: it reads ready
  Hooked::on_assign = nullptr;
  EXPECT_EQ(empty_head_reads, 1);
  Hooked out;
  ASSERT_TRUE(q.can_pop());
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.v, 1);
  EXPECT_TRUE(q.can_pop());
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.v, 2);
  EXPECT_FALSE(q.can_pop());
}

// Encode (producer, sequence) in one word so the consumer can check
// per-producer FIFO order.
constexpr std::uint64_t pack(std::uint64_t producer, std::uint64_t seq) {
  return (producer << 32) | seq;
}

/// `producers` threads each push `per_producer` tagged items through a ring
/// deliberately smaller than the item count (full-queue retries exercise the
/// CAS path); one consumer thread pops until everything arrived, asserting
/// per-producer FIFO.  Oversubscribed on purpose when producers+1 exceeds
/// the core count — preemption inside the push window is exactly the
/// liveness scenario worth testing.
void run_mpsc_storm(std::size_t producers, std::uint64_t per_producer) {
  MpscQueue<std::uint64_t> q(256);
  std::vector<std::thread> threads;
  threads.reserve(producers + 1);

  std::atomic<std::uint64_t> popped{0};
  std::vector<std::uint64_t> next_seq(producers, 0);
  std::atomic<bool> order_ok{true};
  const std::uint64_t total = producers * per_producer;

  threads.emplace_back([&] {  // consumer
    std::uint64_t item = 0;
    std::uint64_t count = 0;
    while (count < total) {
      if (!q.try_pop(item)) {
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t producer = item >> 32;
      const std::uint64_t seq = item & 0xFFFFFFFFu;
      if (producer >= producers || seq != next_seq[producer]) {
        order_ok.store(false, std::memory_order_relaxed);
      } else {
        ++next_seq[producer];
      }
      ++count;
      q.publish_consumed();
    }
    popped.store(count, std::memory_order_release);
  });
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&q, p, per_producer] {
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        while (!q.try_push(pack(p, i))) std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(popped.load(), total);
  EXPECT_TRUE(order_ok.load());
  for (std::size_t p = 0; p < producers; ++p) {
    EXPECT_EQ(next_seq[p], per_producer) << "producer " << p;
  }
}

TEST(MpscQueue, TwoProducersKeepPerProducerFifo) {
  run_mpsc_storm(2, 20000);
}

TEST(MpscQueue, OversubscribedProducersLoseNothing) {
  // More threads than this machine has cores, pushing through a 256-slot
  // ring: heavy retry traffic, every item still arrives exactly once and in
  // per-producer order.
  const std::size_t producers =
      std::max<std::size_t>(8, std::thread::hardware_concurrency() * 2);
  run_mpsc_storm(producers, 4000);
}

}  // namespace
}  // namespace psd::rt
