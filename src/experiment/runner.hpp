// Scenario execution: one replication, and thread-parallel replication sets
// with deterministic aggregation.
#pragma once

#include <vector>

#include "experiment/scenario.hpp"
#include "stats/ci.hpp"
#include "stats/interval_series.hpp"
#include "workload/request.hpp"
#include "workload/trace.hpp"

namespace psd {

struct ClassRunStats {
  double mean_slowdown = 0.0;
  double mean_delay = 0.0;
  std::uint64_t completed = 0;
  std::vector<IntervalStat> windows;  ///< Per-window mean slowdowns.
};

struct RunResult {
  std::vector<ClassRunStats> cls;
  double system_slowdown = 0.0;
  std::vector<Request> records;  ///< Only when cfg.record_requests.
  std::uint64_t submitted = 0;
  std::uint64_t reallocations = 0;
  double time_unit = 1.0;  ///< Raw time per paper tu.
  /// Ratio re-convergence after the profile's settling point
  /// (stats/convergence.hpp), in paper tu, for class j = 1..N-1.  Empty
  /// unless cfg.profile has a finite step_time(); NaN = never settled.
  std::vector<double> settle_tu;
  /// Overload-regime accounting, populated only when cfg.admission is
  /// active (empty / NaN otherwise — admission-off results are unchanged).
  std::vector<std::uint64_t> shed;     ///< Rejected at the gate, per class.
  std::vector<std::uint64_t> offered;  ///< Offered arrivals (incl. shed).
  /// Goodput: post-warmup completions of admitted work per paper tu; at
  /// capacity 1 a value of ~1.0 means the server is serving exactly what it
  /// can.  NaN when no gate is installed.
  double goodput_tu = kNaN;
};

/// Execute one replication; `run_index` derives an independent RNG stream
/// from cfg.seed (same cfg + same index => identical result).  With
/// cfg.cluster_nodes > 1 the replication runs the multi-node dispatcher
/// (src/cluster): per-class statistics are completion-weighted across
/// nodes, and window series are merged index-wise onto the shared time
/// grid (every node rolls the same warmup/window protocol), so windowed
/// ratio pairing stays time-aligned cluster-wide.
RunResult run_scenario(const ScenarioConfig& cfg, std::uint64_t run_index = 0);

/// Single-node replication that also captures every generated arrival as a
/// trace (time, class, size — raw simulator time).  The same trace can then
/// be replayed through run_scenario_replayed below or through the rt
/// runtime's TraceLoadGen, so one recorded workload exercises both stacks.
RunResult run_scenario_recorded(const ScenarioConfig& cfg, Trace& out_trace,
                                std::uint64_t run_index = 0);

/// Single-node replication driven by a recorded trace instead of synthetic
/// generators.  The scenario's measurement protocol (warmup, horizon,
/// windows) still applies; cfg.cluster_nodes must be 1.
RunResult run_scenario_replayed(const ScenarioConfig& cfg,
                                const Trace& trace);

struct RatioPercentiles {
  double p5 = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double mean = 0.0;
  std::uint64_t windows = 0;  ///< Ratio samples pooled (windows x runs).
};

struct ReplicatedResult {
  std::size_t runs = 0;
  /// Across-run mean (with 95% CI) of each class's mean slowdown.
  std::vector<ConfidenceInterval> slowdown;
  /// eq.-18 predictions for the configured true lambdas (NaN for allocators
  /// where the closed form does not apply).
  std::vector<double> expected;
  double system_slowdown = 0.0;
  double expected_system = 0.0;
  /// Windowed slowdown ratios class j / class 0, j = 1..N-1, pooled over all
  /// windows of all runs (Figs. 5-6, 9-10).
  std::vector<RatioPercentiles> ratio;
  /// Ratio of across-run mean slowdowns (the long-timescale achieved ratio).
  std::vector<double> mean_ratio;
  /// Transient-response statistics (tu) for class j = 1..N-1, empty unless
  /// the scenario's profile has a settling point: across-run mean of the
  /// finite per-run settle times (NaN when no run settled), the fraction
  /// of runs that settled at all, and the 75th percentile of settle times
  /// with never-settled runs counted as infinite (NaN when the percentile
  /// lands on one) — "75% of runs re-converged within p75" is the bound CI
  /// gates on, immune to fast runs dragging the mean under a tail of slow
  /// ones.  This is the statistic that separates the adaptive allocator
  /// from static ones under bursts.
  std::vector<double> settle_mean_tu;
  std::vector<double> settle_rate;
  std::vector<double> settle_p75_tu;
  std::uint64_t completed_total = 0;
  /// Overload-regime statistics (admission runs only; empty / NaN / 0
  /// otherwise).  shed_rate[c] pools shed/offered over all runs; goodput is
  /// the across-run mean of RunResult::goodput_tu; survivor_ratio_err is
  /// the worst windowed-median ratio error |p50_j / target_j - 1| over
  /// classes that actually completed work — ratio integrity among the
  /// admitted survivors.
  std::uint64_t shed_total = 0;
  std::vector<double> shed_rate;
  double goodput_tu = kNaN;
  double survivor_ratio_err = kNaN;
};

/// Deterministically aggregate per-replication results (in vector order)
/// into the cross-run statistics.  Exposed so external executors — the
/// sweep campaign engine schedules individual replications on a shared
/// thread pool — reuse the exact aggregation of run_replications.
ReplicatedResult aggregate_replications(const ScenarioConfig& cfg,
                                        const std::vector<RunResult>& results);

/// Run `runs` replications (thread-parallel unless `parallel` is false) and
/// aggregate.  Results are independent of thread scheduling.
ReplicatedResult run_replications(const ScenarioConfig& cfg, std::size_t runs,
                                  bool parallel = true);

/// How a campaign executes a point's replications (sweep/campaign.hpp).
/// kPerTask: one replication per task.  kLockstep: replications run in
/// groups of lanes inside a single task on the lane-stepped batch kernel
/// (experiment/lockstep.hpp).  Execution mode only: per-lane results are
/// bitwise identical to kPerTask at the same derived seeds, so the mode
/// changes throughput, never numbers.
enum class ReplicationMode { kPerTask, kLockstep };

/// Replication count for benches: PSD_RUNS env var if set; 8 under
/// PSD_FAST=1; otherwise `paper_default` (the paper used 100).
std::size_t default_runs(std::size_t paper_default = 40);

}  // namespace psd
