// Bounded lock-free multi-producer single-consumer ingress queue.
//
// Vyukov's bounded queue: a power-of-two ring of cells, each carrying a
// sequence number that encodes whether the cell is free for the producer
// lap or holds data for the consumer lap.  Producers claim a slot with one
// CAS on the enqueue cursor; the consumer needs no atomic RMW at all (it is
// alone).  No node allocation, no locks, and a full queue reports failure
// instead of blocking — the load generators are open-loop, so overload
// surfaces as a counted drop, never as backpressure into the arrival
// process (matching the paper's open-loop traffic model).
//
// Liveness: a producer that claimed a slot writes the value and then
// releases the cell by storing its sequence; the consumer waits only on the
// cell at its own cursor, so a stalled producer delays the requests behind
// its slot but cannot wedge the queue (try_pop simply returns false until
// the release lands).  Per-producer FIFO holds: CAS claims are strictly
// ordered, so one producer's requests dequeue in the order it pushed them.
// tests/test_mpsc_queue.cpp exercises exactly these two properties under
// ThreadSanitizer.  can_pop() is the consumer's side-effect-free peek: the
// shard re-checks it after announcing a park, so a push that lands in
// between is never slept through (rt/shard.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace psd::rt {

template <typename T>
class MpscQueue {
 public:
  /// Capacity is rounded up to a power of two (>= 2).
  explicit MpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Multi-producer enqueue; false when the ring is full.
  bool try_push(const T& value) {
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                                 static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell.value = value;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `pos`; retry with the fresh cursor.
      } else if (diff < 0) {
        return false;  // cell still holds last lap's value: full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer dequeue; false when empty (or the head producer has
  /// claimed but not yet released its cell).
  bool try_pop(T& out) {
    Cell& cell = cells_[dequeue_pos_ & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                               static_cast<std::intptr_t>(dequeue_pos_ + 1);
    if (diff < 0) return false;
    PSD_CHECK(diff == 0, "mpsc consumer raced (single-consumer contract)");
    out = cell.value;
    cell.seq.store(dequeue_pos_ + mask_ + 1, std::memory_order_release);
    ++dequeue_pos_;
    return true;
  }

  /// Consumer only: true when try_pop would succeed.  A cell a producer
  /// has claimed but not yet released reads as empty, exactly as in
  /// try_pop; the acquire load pairs with the producer's release.
  bool can_pop() const {
    const Cell& cell = cells_[dequeue_pos_ & mask_];
    return cell.seq.load(std::memory_order_acquire) == dequeue_pos_ + 1;
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer-side estimate of occupancy (racy, for snapshots only).
  std::size_t approx_size() const {
    const std::size_t e = enqueue_pos_.load(std::memory_order_relaxed);
    const std::size_t d = consumed_.load(std::memory_order_relaxed);
    return e >= d ? e - d : 0;
  }

  /// Consumer calls this after a batch of pops so approx_size stays honest.
  void publish_consumed() {
    consumed_.store(dequeue_pos_, std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  static constexpr std::size_t kCacheLine = 64;

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<std::size_t> enqueue_pos_{0};
  // Consumer-private cursor on its own line; consumed_ is its public echo.
  alignas(kCacheLine) std::size_t dequeue_pos_ = 0;
  std::atomic<std::size_t> consumed_{0};
};

}  // namespace psd::rt
