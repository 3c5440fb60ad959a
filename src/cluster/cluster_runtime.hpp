// Cluster-scale serving: N in-process rt::Runtime "nodes" behind the shared
// assignment dispatcher, steered by one GLOBAL controller.
//
// This is the rt counterpart of the simulation Cluster (cluster/
// dispatcher.hpp), composed from the same parts the single-node runtime
// uses:
//
//   * each node is an EMBEDDED Runtime (rt/handle.hpp): its own shards,
//     seqlock snapshots, and a node controller pinned to AllocatorKind::
//     kNone — node ticks publish snapshots and stage admission updates but
//     never write rates, so the global controller is the single rate writer;
//   * arrivals come from the runtime's own SyntheticLoadGen sources with
//     dispatch() as their sink: every produced request lands there, which
//     runs the AssignmentRouter (cluster/router.hpp — the identical policy
//     implementation the simulation validates) and submits to the chosen
//     node's handle;
//   * the global controller is the node controller's own loop
//     (rt/controller.hpp) with one shard group per node: it aggregates
//     lambda estimates and exactly-once window-slowdown feedback across
//     every alive node's shard snapshots, allocates against the ALIVE
//     cluster capacity, and gives every alive node an equal share of each
//     class's global rate — holding per-class slowdown ratios cluster-wide,
//     not merely per node.
//
// Node failure is first-class: kill(node) flips the router's alive mask
// (dispatch skips the corpse), freezes the node's metrics, and drops the
// node's shard group from the global controller, whose allocator shrinks to
// the surviving capacity; the cluster then re-converges — the report
// measures how fast (settle time, stats/convergence.hpp).
//
// Like Runtime, the whole thing drives two ways: run() spawns shard/
// generator/controller threads on the wall clock (psdserved --nodes N),
// step_to() advances everything deterministically under a ManualClock
// (tests; bitwise-identical reports at a fixed seed).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/router.hpp"
#include "obs/cluster_stats.hpp"
#include "rt/handle.hpp"

namespace psd::rt {

struct ClusterRtConfig {
  /// Per-node topology/workload template: shards, deltas, size dist, LOAD
  /// (per-shard utilization — total arrival rate scales with the node
  /// count), controller cadence, warmup/duration, admission, seed.  The
  /// node-level allocator field selects the GLOBAL allocator; node
  /// controllers themselves run rate-less (see file header).
  RtConfig node;
  std::size_t nodes = 2;
  AssignmentSpec assignment{AssignmentPolicy::kRoundRobin};
  /// Global-controller cadence in seconds (also the stats sampling grid).
  /// The settle-time report quotes this as the rebalance resolution.
  double rebalance_period = 0.05;
  /// Node-failure injection: at `kill_at` seconds, `kill_node` is removed
  /// (dispatch stops, shards stop draining, metrics freeze).  Negative =
  /// never.
  double kill_at = -1.0;
  std::size_t kill_node = 0;
  /// psd.cluster.stats.v1 JSONL path; empty = no stream.
  std::string stats_path;

  std::size_t num_classes() const { return node.num_classes(); }
  void validate() const;
};

struct ClusterClassReport {
  double delta = 0.0;
  std::uint64_t completed = 0;  ///< Post-warmup, all nodes.
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  double mean_slowdown = kNaN;   ///< Completion-weighted over nodes.
  /// Median per-window slowdown ratio vs class 0, pooled across every
  /// shard of every node (stats/convergence.hpp).
  double window_ratio_p50 = kNaN;
  double target_ratio = kNaN;
  /// Seconds past the disturbance onset (node kill, else profile step)
  /// until the cluster-merged windowed ratio re-entered and held the
  /// tolerance band; NaN without an onset or when it never settled.
  double settle_seconds = kNaN;
};

struct ClusterNodeReport {
  bool alive = true;
  std::uint64_t dispatched = 0;  ///< Requests routed to this node.
  RtReport rt;                   ///< The node's own (per-node) report.
};

struct ClusterReport {
  std::vector<ClusterClassReport> cls;
  /// Worst |pooled window ratio / target - 1| over classes, cluster-wide.
  double max_window_ratio_error = kNaN;
  /// Worst PER-NODE windowed ratio error over nodes alive at the end: the
  /// differentiation must hold on every node, not just in aggregate.
  double cross_node_ratio_error = kNaN;
  /// Max over classes of settle_seconds; NaN poisons (a class that never
  /// re-converged must fail a bounded check).  NaN without an onset.
  double max_settle_seconds = kNaN;
  double settle_onset = kNaN;  ///< The onset used (kill time/profile step).
  std::uint64_t produced = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed_total = 0;
  std::uint64_t completed_total = 0;  ///< Post-warmup, all nodes.
  std::uint64_t outstanding = 0;      ///< Alive nodes only.
  /// Requests stranded on killed nodes (accepted, never completed).
  std::uint64_t lost_to_kill = 0;
  double elapsed = 0.0;
  std::uint64_t rebalances = 0;   ///< Global ticks that produced new rates.
  std::uint64_t global_ticks = 0;
  /// Mean dispatcher cost (route + submit) in nanoseconds.  NaN under a
  /// ManualClock: timing reads would break bitwise determinism.
  double mean_dispatch_ns = kNaN;
  /// The generators' mean lateness per request (RtReport::gen_late_mean).
  double gen_late_mean = kNaN;
  std::vector<ClusterNodeReport> node;
};

class ClusterRuntime {
 public:
  ClusterRuntime(ClusterRtConfig cfg, ClockVariant clock);

  // --- threaded drive (SteadyClock) ---

  /// Spawn per-node shard threads, generator threads, and one controller
  /// thread (node ticks + global rebalances); honor cfg.kill_at; run for
  /// cfg.node.duration, drain, report.  One-shot.
  ClusterReport run();

  // --- deterministic drive (ManualClock) ---

  /// Advance generators, every alive node (its shards + rate-less node
  /// controller), and the global controller to `t` on the calling thread.
  /// Crossing cfg.kill_at performs the kill at exactly that time.
  void step_to(Time t);

  /// Keep stepping past end-of-load until alive nodes drained (or
  /// `max_extra` model seconds pass).
  void quiesce(Duration max_extra = 10.0, Duration step = 0.01);

  /// Finalize every alive node's metrics; idempotent.  run() does this.
  void finish();

  ClusterReport report() const;

  /// Remove a node immediately (deterministic drive; threaded runs use
  /// cfg.kill_at).  At least one node must survive.
  void kill(std::size_t node);

  std::size_t nodes() const { return handles_.size(); }
  RuntimeHandle& node(std::size_t i) { return handles_[i]; }
  const AssignmentRouter& router() const { return *router_; }
  const Controller& global_controller() const { return *global_; }
  const ClusterRtConfig& config() const { return cfg_; }
  ClockVariant& clock() { return clock_; }

 private:
  /// Sink for every generated arrival: route via the AssignmentRouter and
  /// submit to the chosen node.  Serialized by dispatch_m_ (the cluster has
  /// one logical dispatcher; the mutex is uncontended under a single
  /// generator thread and is part of the measured dispatch cost otherwise).
  void dispatch(const Request& req);
  void step_to_internal(Time t);
  void global_tick(Time now);
  /// Router flip (under the dispatch mutex) -> optional thread stop hook
  /// (threaded mode joins the node's shard threads here) -> metrics freeze
  /// -> global controller drops the node's group -> stats event.
  void do_kill(std::size_t node, const std::function<void()>& stop_node = {});
  void sample_stats(Time now);
  std::uint64_t alive_outstanding() const;

  ClusterRtConfig cfg_;
  ClockVariant clock_;
  std::vector<std::unique_ptr<Runtime>> nodes_;
  std::vector<RuntimeHandle> handles_;
  std::optional<AssignmentRouter> router_;
  std::unique_ptr<Controller> global_;  ///< Rate writer for every node.
  std::vector<std::unique_ptr<LoadSource>> gens_;
  std::unique_ptr<obs::ClusterStatsLog> stats_;

  mutable std::mutex dispatch_m_;
  std::vector<double> load_signal_;  ///< Per-node outstanding, reused.
  std::vector<std::uint64_t> dispatched_;
  std::uint64_t dispatch_ns_ = 0;     ///< Threaded mode only (see report).
  std::uint64_t dispatch_timed_ = 0;  ///< Requests with a timed dispatch.

  Time next_rebalance_;
  bool killed_ = false;        ///< A kill was executed.
  double kill_time_ = kNaN;    ///< When (the settle onset).
  double run_elapsed_ = -1.0;  ///< Set once a threaded run completes.
  bool ran_ = false;
  bool finalized_ = false;
};

}  // namespace psd::rt
