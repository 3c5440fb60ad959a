// Scoped self-profiling timers for the serving runtime's own hot paths.
//
// Each instrumented component (shard, controller, exporter) owns a ProfTable
// with one cache-line-aligned cell per ProfSlot; a ScopedProfTimer brackets
// a region (the drain loop, the allocator tick, a ring push) and adds the
// elapsed ticks into the slot with two relaxed atomic adds.  Disabled tables
// cost a single predictable branch per region — cheap enough to leave the
// instrumentation compiled into the production paths.
//
// Ticks come from rdtsc on x86-64 (a serializing clock read costs ~20+ ns of
// steady_clock machinery per sample, which per-request sites cannot afford)
// and from steady_clock elsewhere; ticks_per_second() calibrates the rate
// once, lazily, so the exporter can render seconds.  Self-profiling numbers
// are inherently wall-clock-nondeterministic, so the exporter omits them
// under a ManualClock (see obs/exporter.hpp) — the deterministic stats
// stream stays bit-identical across repeats.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace psd::obs {

/// Instrumented regions.  One enum for the whole runtime so the exporter
/// can aggregate tables from every component into a single profile block.
enum ProfSlot : unsigned {
  kProfRingPush = 0,   ///< Shard::submit (producer threads).
  kProfRingPop,        ///< Ingress backlog ingestion within a drain.
  kProfDrain,          ///< Whole Shard::drain call.
  kProfBucketRelease,  ///< Untimed (reads 0); psdbench's ledger names it.
  kProfPublish,        ///< Seqlock snapshot publication.
  kProfControllerTick, ///< Whole Controller::tick.
  kProfAllocate,       ///< The eq.-17 allocator call inside a tick.
  kProfExportSample,   ///< One exporter scrape+render+write cycle.
  kProfSlotCount,
};

const char* prof_slot_name(ProfSlot slot);

inline std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Ticks per second of now_ticks(), calibrated once against steady_clock
/// (x86) or exactly 1e9 (nanosecond clocks).  Thread-safe via static init.
double ticks_per_second();

/// Aggregated view of one table — plain POD so it can ride in seqlock
/// snapshots and be summed across components by the exporter.
struct ProfSnap {
  std::uint64_t count[kProfSlotCount] = {};
  std::uint64_t ticks[kProfSlotCount] = {};

  void merge(const ProfSnap& other) {
    for (unsigned i = 0; i < kProfSlotCount; ++i) {
      count[i] += other.count[i];
      ticks[i] += other.ticks[i];
    }
  }
  double seconds(ProfSlot slot) const {
    return static_cast<double>(ticks[slot]) / ticks_per_second();
  }
};

/// Per-component accumulation table.  Writers may be concurrent (ring push
/// comes from every producer thread), so cells are relaxed atomics, each on
/// its own cache line.
class ProfTable {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void add(ProfSlot slot, std::uint64_t ticks) {
    cells_[slot].count.fetch_add(1, std::memory_order_relaxed);
    cells_[slot].ticks.fetch_add(ticks, std::memory_order_relaxed);
  }

  ProfSnap snap() const {
    ProfSnap s;
    for (unsigned i = 0; i < kProfSlotCount; ++i) {
      s.count[i] = cells_[i].count.load(std::memory_order_relaxed);
      s.ticks[i] = cells_[i].ticks.load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> ticks{0};
  };
  Cell cells_[kProfSlotCount];
  bool enabled_ = false;
};

/// RAII region bracket; no-op (one branch) when `table` is null or
/// disabled.
class ScopedProfTimer {
 public:
  ScopedProfTimer(ProfTable* table, ProfSlot slot)
      : table_(table != nullptr && table->enabled() ? table : nullptr),
        slot_(slot),
        start_(table_ != nullptr ? now_ticks() : 0) {}

  ScopedProfTimer(const ScopedProfTimer&) = delete;
  ScopedProfTimer& operator=(const ScopedProfTimer&) = delete;

  ~ScopedProfTimer() {
    if (table_ != nullptr) table_->add(slot_, now_ticks() - start_);
  }

 private:
  ProfTable* table_;
  ProfSlot slot_;
  std::uint64_t start_;
};

}  // namespace psd::obs
