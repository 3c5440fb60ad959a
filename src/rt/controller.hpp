// The serving tier's one reallocation loop, lifted out of the simulated
// server and onto its own (wall-clock) cadence.
//
// The controller's shards come in GROUPS, one per node: a single-node
// Runtime passes one group, the cluster's global controller one group per
// node.  Every tick it reads each live group's shard seqlock snapshots —
// live LoadEstimator arrival rates plus last-window slowdowns — aggregates
// them into one view, re-runs the PSD rate allocator (eq. 17, or its
// adaptive feedback extension) against the capacity of the live groups, and
// hands each shard rate_c * (1 / live groups) * (1 / shards in its group).
// Slices are equal because the load generators spray classes round-robin
// across shards and the symmetric dispatch policies spread work evenly over
// nodes, so per-shard class mixes converge to the global mix; imbalance
// beyond that is exactly the kind of scenario the rt runtime exists to
// expose.  An equal capacity share also keeps every node within its
// capacity when a SITA-E band reroutes onto a survivor.
//
// tick() is plain and synchronous: the threaded drivers call it from a
// periodic thread, deterministic tests call it directly under a ManualClock.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/adaptive_psd.hpp"
#include "experiment/scenario.hpp"
#include "rt/shard.hpp"

namespace psd::rt {

struct ControllerConfig {
  std::vector<double> delta;
  /// Sum of ONE group's shard capacities (work/sec); the allocator runs at
  /// group_capacity x live groups.
  double group_capacity = 1.0;
  double mean_size = 1.0;       ///< E[X] of the service-time distribution.
  AllocatorKind allocator = AllocatorKind::kAdaptivePsd;
  AdaptiveConfig adaptive;
  double rho_max = 0.98;
  double min_residual_share = 1e-3;
  /// Shards carry admission gates: aggregate their OFFERED-load estimates
  /// each tick and stage a per-shard update (shards call gate->update() on
  /// their own threads) once per estimation window.
  bool admission = false;
  /// Record a per-tick decision trace (obs layer); bounded ring below.
  bool trace = false;
  std::size_t trace_capacity = 512;
  /// Arm the tick/allocate self-profiling timers.
  bool profile = false;
};

/// One reallocation decision: everything the allocator saw and produced.
/// With these, convergence and rebalance transients replay offline — the
/// exporter streams the ring into the stats JSONL.
struct ControllerTraceEntry {
  double time = 0.0;
  std::uint64_t tick = 0;       ///< Monotone; doubles as the trace cursor.
  bool reallocated = false;     ///< False on cold-start ticks (no lambda).
  bool fresh_window = false;    ///< Slowdown feedback was integrated.
  std::uint32_t num_classes = 0;
  double lambda[kMaxRtClasses] = {};           ///< Aggregated arrivals/sec.
  double window_slowdown[kMaxRtClasses] = {};  ///< Cross-shard window mean.
  double rate_in[kMaxRtClasses] = {};          ///< Rates before allocate().
  double rate_out[kMaxRtClasses] = {};         ///< Rates after (== in when
                                               ///< not reallocated).
};

struct ControllerSnapshot {
  double time = 0.0;
  std::uint32_t num_classes = 0;
  std::uint32_t pad = 0;
  std::uint64_t ticks = 0;
  std::uint64_t allocations = 0;  ///< Ticks that produced new rates.
  double lambda[kMaxRtClasses] = {};  ///< Aggregated arrivals/sec estimate.
  double rate[kMaxRtClasses] = {};    ///< Current GLOBAL rates (all shards).
  double window_slowdown[kMaxRtClasses] = {};  ///< Cross-shard mean.
};

class Controller {
 public:
  /// `groups` holds each node's shards; they are borrowed and must outlive
  /// the controller.
  Controller(ControllerConfig cfg, std::vector<std::vector<Shard*>> groups);

  /// Aggregate the live groups' estimates, reallocate, push rates to every
  /// live shard.  Called from exactly one thread at a time.
  void tick(Time now);

  /// Stop reading and writing group `g` (its node died) and rebuild the
  /// allocator at the live groups' capacity: the adaptive integrator
  /// restarts from the stationary eq.-17 point, and the time it takes to
  /// re-tighten the ratios is the settle metric.  Same thread as tick().
  void drop_group(std::size_t g);

  /// Any thread.
  ControllerSnapshot snapshot() const { return snap_.read(); }

  /// Drain trace entries with tick > `*cursor` (any thread; the ring is
  /// mutex-guarded — tick() appends at ~20 Hz, readers poll slower).
  /// Advances `*cursor` to the newest tick returned.  Empty unless
  /// cfg.trace.
  std::vector<ControllerTraceEntry> trace_since(std::uint64_t* cursor) const;

  std::string allocator_name() const;

  obs::ProfTable& prof() { return prof_; }

 private:
  void rebuild_allocator();

  ControllerConfig cfg_;
  std::vector<std::vector<Shard*>> groups_;
  std::vector<bool> live_;
  std::size_t live_count_;
  std::unique_ptr<RateAllocator> allocator_;  ///< Null for kNone.
  /// Last window_seq seen, per (shard, class), shards numbered across the
  /// groups in order — feedback from a class is integrated only when its
  /// metrics window genuinely advanced.
  std::vector<std::uint64_t> windows_seen_;
  /// Sum of live shard estimator windows_closed at the last staged
  /// admission update — gate decisions latch per estimation window, not
  /// per tick.
  std::uint64_t admission_windows_seen_ = 0;
  std::vector<double> rates_;                 ///< Global (summed) rates.
  std::uint64_t ticks_ = 0;
  std::uint64_t allocations_ = 0;
  Seqlock<ControllerSnapshot> snap_;

  // Decision trace: bounded ring, oldest entries evicted.  A mutex (not a
  // seqlock) because the payload is a variable-length backlog and the
  // exchange is off every hot path.
  mutable std::mutex trace_m_;
  std::deque<ControllerTraceEntry> trace_;
  obs::ProfTable prof_;
};

}  // namespace psd::rt
