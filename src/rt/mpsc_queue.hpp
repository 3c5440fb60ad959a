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
// Zero state: a cell stores its sequence relative to its own index
// (stored = seq - index), so the all-zero cell reads "free for lap 0" and
// a ring of all-zero memory is a valid empty ring.  The cells live in one
// anonymous mapping that the constructor never writes: the kernel commits
// a page when a producer first reaches it, so a ring pays its page faults
// on its first lap, and a short or idle runtime never pays them.  The
// mapping is page-aligned, so a 64-byte cell never straddles two cache
// lines.
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
#include <cstdlib>
#include <new>
#include <type_traits>

#include "common/error.hpp"

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace psd::rt {

template <typename T>
class MpscQueue {
  // Zero pages are live cells without a constructor pass, and unmapping
  // them needs no destructor pass.
  static_assert(std::is_trivially_destructible_v<T> &&
                    (std::is_aggregate_v<T> || std::is_scalar_v<T>),
                "MpscQueue cells are zero-filled memory: T must be a "
                "trivially destructible aggregate or scalar");

 public:
  /// Capacity is rounded up to a power of two (>= 2).
  explicit MpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = map_cells(cap);
  }

  ~MpscQueue() { unmap_cells(cells_, mask_ + 1); }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Multi-producer enqueue; false when the ring is full.
  bool try_push(const T& value) {
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq =
          seq_of(cell).load(std::memory_order_acquire) + (pos & mask_);
      const auto diff = static_cast<std::int64_t>(seq - pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell.value = value;
          seq_of(cell).store(pos + 1 - (pos & mask_),
                             std::memory_order_release);
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
    const std::uint64_t index = dequeue_pos_ & mask_;
    Cell& cell = cells_[index];
    const std::uint64_t seq =
        seq_of(cell).load(std::memory_order_acquire) + index;
    const auto diff = static_cast<std::int64_t>(seq - (dequeue_pos_ + 1));
    if (diff < 0) return false;
    PSD_CHECK(diff == 0, "mpsc consumer raced (single-consumer contract)");
    out = cell.value;
    seq_of(cell).store(dequeue_pos_ + mask_ + 1 - index,
                       std::memory_order_release);
    ++dequeue_pos_;
    return true;
  }

  /// Consumer only: true when try_pop would succeed.  A cell a producer
  /// has claimed but not yet released reads as empty, exactly as in
  /// try_pop; the acquire load pairs with the producer's release.
  bool can_pop() const {
    const std::uint64_t index = dequeue_pos_ & mask_;
    return seq_of(cells_[index]).load(std::memory_order_acquire) + index ==
           dequeue_pos_ + 1;
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer-side estimate of occupancy (racy, for snapshots only).
  std::size_t approx_size() const {
    const std::uint64_t e = enqueue_pos_.load(std::memory_order_relaxed);
    const std::uint64_t d = consumed_.load(std::memory_order_relaxed);
    return e >= d ? static_cast<std::size_t>(e - d) : 0;
  }

  /// Consumer calls this after a batch of pops so approx_size stays honest.
  void publish_consumed() {
    consumed_.store(dequeue_pos_, std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::uint64_t seq;  ///< Sequence minus the cell's index; atomic_ref only.
    T value;
  };

  // The cells are mapped writable; can_pop's const view only loads.
  static std::atomic_ref<std::uint64_t> seq_of(const Cell& cell) {
    return std::atomic_ref<std::uint64_t>(
        const_cast<std::uint64_t&>(cell.seq));
  }

  /// `cap` zero-filled cells that no one has written yet.
  static Cell* map_cells(std::size_t cap) {
#ifdef __linux__
    void* p = ::mmap(nullptr, cap * sizeof(Cell), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
#else
    void* p = std::calloc(cap, sizeof(Cell));
    if (p == nullptr) throw std::bad_alloc();
#endif
    return static_cast<Cell*>(p);
  }

  static void unmap_cells(Cell* cells, std::size_t cap) {
#ifdef __linux__
    ::munmap(cells, cap * sizeof(Cell));
#else
    (void)cap;
    std::free(cells);
#endif
  }

  static constexpr std::size_t kCacheLine = 64;

  Cell* cells_ = nullptr;
  std::size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<std::uint64_t> enqueue_pos_{0};
  // Consumer-private cursor on its own line; consumed_ is its public echo.
  alignas(kCacheLine) std::uint64_t dequeue_pos_ = 0;
  std::atomic<std::uint64_t> consumed_{0};
};

}  // namespace psd::rt
