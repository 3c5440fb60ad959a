// Declarative experiment description, expressed in the paper's units:
// one time unit (tu) = processing time of an average-size request at full
// capacity = E[X] / C.  The runner converts to raw simulator time.
//
// Paper protocol defaults (§4.1): BP(1.5, 0.1, 100); warmup 10,000 tu;
// measurement 60,000 tu sampled every 1,000 tu; load estimated from the last
// 5,000 tu; rates reallocated every 1,000 tu; equal class loads; results
// averaged over many independent runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "admission/admission.hpp"
#include "cluster/assignment.hpp"
#include "core/adaptive_psd.hpp"
#include "dist/factory.hpp"
#include "sched/dedicated_rate.hpp"
#include "workload/class_spec.hpp"
#include "workload/load_profile.hpp"

namespace psd {

enum class BackendKind {
  kDedicated,  ///< Paper's task-server-per-class model (default).
  kSfq,        ///< Work-conserving packet-by-packet GPS.
  kLottery,    ///< Randomized proportional share with quanta.
  kWtp,        ///< PDD baseline: waiting-time priority.
  kPad,        ///< PDD baseline: proportional average delay.
  kHpd,        ///< PDD baseline: hybrid proportional delay.
  kStrict,     ///< Strict priority baseline.
};

enum class AllocatorKind {
  kPsd,               ///< eq. 17 (the paper's strategy).
  kAdaptivePsd,       ///< eq. 17 + feedback bias (future-work extension).
  kEqualShare,
  kLoadProportional,
  kNone,              ///< Keep initial rates forever (no reallocation).
};

/// The rate allocator `kind` names, built from one eq.-17 config: the
/// baselines read its class count (delta.size()), capacity and mean size;
/// `adaptive` tunes only kAdaptivePsd.  Null for kNone.  The simulator, the
/// rt controller and the cluster's global controller all build through this.
std::unique_ptr<RateAllocator> make_allocator(AllocatorKind kind,
                                              const PsdAllocatorConfig& pc,
                                              const AdaptiveConfig& adaptive);

struct ScenarioConfig {
  // --- classes & workload ---
  std::vector<double> delta = {1.0, 2.0};
  double load = 0.5;                 ///< Target utilization sum.
  std::vector<double> load_share;    ///< Empty = equal shares (paper).
  DistSpec size_dist = DistSpec::bounded_pareto(1.5, 0.1, 100.0);
  ArrivalKind arrivals = ArrivalKind::kPoisson;
  double burstiness = 1.0;           ///< For ArrivalKind::kBursty.
  double mmpp_sojourn = 10.0;  ///< kBursty: mean high-phase length, in mean
                               ///< interarrivals (make_bursty_arrivals).
  double mmpp_duty = 0.5;      ///< kBursty: high-phase time fraction.
  /// Nonstationary modulation of every class's arrival process; times in
  /// paper tu from the run start (warmup included).  kNone = stationary.
  LoadProfile profile;
  /// Half-width of the relative tolerance band used by the ratio
  /// re-convergence metric when `profile` has a settling point.
  double converge_tol = 0.25;
  double capacity = 1.0;

  // --- measurement protocol (paper time units) ---
  double warmup_tu = 10000.0;
  double measure_tu = 60000.0;
  double window_tu = 1000.0;   ///< Slowdown sampling window.
  double realloc_tu = 1000.0;  ///< Estimator window == reallocation period.
  std::size_t estimator_history = 5;

  // --- machinery ---
  BackendKind backend = BackendKind::kDedicated;
  AllocatorKind allocator = AllocatorKind::kPsd;
  AdaptiveConfig adaptive;           ///< For kAdaptivePsd.
  double lottery_quantum_tu = 1.0;
  RateChangePolicy rate_change = RateChangePolicy::kRescaleRemaining;
  double rho_max = 0.98;
  double min_residual_share = 1e-3;
  /// Pre-queue admission gate (src/admission).  kNone (default) installs
  /// nothing and keeps every output byte-identical; any other kind permits
  /// beyond-capacity loads (load >= 1 = deliberate overload) and surfaces
  /// per-class shed counts + goodput in RunResult.
  AdmissionSpec admission;

  // --- cluster composition (src/cluster) ---
  /// 1 = the paper's single node.  > 1 builds `cluster_nodes` identical
  /// servers (each of `capacity`, running its own Fig.-1 pipeline) behind a
  /// task-assignment dispatcher; `load` stays the per-node target
  /// utilization, so total arrival rate scales with the node count.
  std::size_t cluster_nodes = 1;
  AssignmentPolicy cluster_policy = AssignmentPolicy::kRoundRobin;
  std::size_t cluster_jsq_d = 2;  ///< JSQ(d) sample width (kJsq only).

  // --- per-request recording (Figs. 7-8) ---
  bool record_requests = false;
  double record_from_tu = 60000.0;
  double record_to_tu = 61000.0;

  std::uint64_t seed = 0x5EEDBA5EULL;

  std::size_t num_classes() const { return delta.size(); }

  /// True per-class arrival rates (raw time) implied by load and shares.
  std::vector<double> true_lambdas() const;

  /// Raw-time length of one paper time unit for this config.
  double time_unit() const;

  void validate() const;
};

}  // namespace psd
