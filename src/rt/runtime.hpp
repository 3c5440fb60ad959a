// The serving runtime: load generators + worker shards + controller wired
// behind one configuration, drivable two ways.
//
//   * Threaded (SteadyClock): run() spawns one thread per load generator,
//     one per shard, and one controller thread, optionally affinity-pinned,
//     runs for cfg.duration wall seconds, drains, and reports.  This is the
//     psdserved / bench/micro_rt mode.
//   * Deterministic (ManualClock): step_to(t) advances every component on
//     the calling thread in a fixed order — generators, shards, controller —
//     so a fixed seed yields bit-identical reports with zero sleeps.  This
//     is the unit-test mode; see src/rt/README.md for why both modes share
//     every line of component code.
//
// The configuration speaks the paper's language (deltas, load, size
// distribution) plus one rt-only knob: mean_service_seconds maps the mean
// request's full-capacity service time onto the wall clock, fixing the
// shard capacity at E[X]/mean_service_seconds work units per second.
#pragma once

#include <memory>
#include <vector>

#include "dist/factory.hpp"
#include "obs/config.hpp"
#include "obs/exporter.hpp"
#include "rt/clock.hpp"
#include "rt/controller.hpp"
#include "rt/loadgen.hpp"
#include "rt/shard.hpp"

namespace psd::rt {

struct RtConfig {
  // --- classes & workload ---
  std::vector<double> delta = {1.0, 2.0};
  double load = 0.6;               ///< Target utilization per shard, in (0,1).
  std::vector<double> load_share;  ///< Empty = equal shares.
  DistSpec size_dist = DistSpec::bounded_pareto(1.5, 0.1, 100.0);
  /// Arrival-process shape (Poisson default; MMPP/ON-OFF via kBursty).
  ArrivalSpec arrivals;
  /// Nonstationary modulation of every class's arrival rate; times in wall
  /// seconds from the run start (warmup included).  The load-generator
  /// threads follow it on the wall clock through thinned arrival streams.
  LoadProfile profile;
  /// Tolerance band of the post-disturbance ratio settle metric.
  double converge_tol = 0.25;
  /// Wall-clock seconds the MEAN request needs at full shard capacity.
  double mean_service_seconds = 1e-4;

  // --- topology ---
  std::size_t shards = 1;
  std::size_t loadgens = 1;
  bool pin_threads = false;

  // --- control loop ---
  double controller_period = 0.05;  ///< Seconds; also the estimator window.
  std::size_t estimator_history = 5;
  AllocatorKind allocator = AllocatorKind::kAdaptivePsd;
  /// Heavier smoothing than the simulator default: rt windows are short.
  AdaptiveConfig adaptive{0.3, 4.0, 0.3};
  double rho_max = 0.98;
  double min_residual_share = 1e-3;
  /// Pre-sim admission gate evaluated at ring-pop time (src/admission).
  /// kNone (default) installs nothing — the shard pop loop pays one null
  /// check and every report byte is unchanged.  Any other kind permits
  /// load >= 1 (deliberate overload) and populates the shed/goodput report
  /// fields.
  AdmissionSpec admission;

  // --- run protocol ---
  double warmup = 0.5;    ///< Seconds excluded from metrics.
  double duration = 3.0;  ///< Total run length, warmup included.

  // --- plumbing ---
  double bucket_burst_seconds = 0.1;
  std::size_t ingress_capacity = 1 << 14;
  std::uint64_t seed = 0x5EEDBA5EULL;

  // --- observability (src/obs; off by default, zero behavior change) ---
  obs::ObsConfig obs;

  std::size_t num_classes() const { return delta.size(); }
  /// Work units per second per shard.
  double shard_capacity() const;
  /// TOTAL per-class arrival rates (requests/sec across all shards).
  std::vector<double> lambdas() const;
  void validate() const;
};

struct RtClassReport {
  double delta = 0.0;
  std::uint64_t completed = 0;   ///< Post-warmup completions.
  std::uint64_t dropped = 0;     ///< Ingress-ring-full rejections.
  /// Admission-gate sheds (policy decisions), separate from the ring-full
  /// drops above; 0 without a gate.
  std::uint64_t shed = 0;
  /// shed / (accepted + shed) — the fraction of offered work this class
  /// lost to the gate.  NaN without a gate or without arrivals.
  double shed_rate = kNaN;
  double mean_slowdown = kNaN;
  /// Post-warmup slowdown percentiles, folded across shards from the
  /// per-shard LogHistograms (stats/histogram.hpp merge()).  NaN unless
  /// telemetry was enabled for the run.
  double slowdown_p50 = kNaN;
  double slowdown_p95 = kNaN;
  double slowdown_p99 = kNaN;
  double achieved_ratio = kNaN;  ///< Of cumulative means, vs class 0.
  /// Median over measurement windows of the per-window slowdown ratio vs
  /// class 0.  Robust against single Bounded-Pareto giants that can swing a
  /// short run's cumulative mean arbitrarily; only populated after
  /// finish()/run() (it reads the closed window series).
  double window_ratio_p50 = kNaN;
  double target_ratio = kNaN;    ///< delta_c / delta_0.
  double mean_ingress_wait = kNaN;
  /// Seconds after the profile's settling point until this class's windowed
  /// slowdown ratio re-entered (and kept) the tolerance band
  /// (stats/convergence.hpp; windows merged across shards).  NaN without a
  /// profiled settling point, before finish(), or when it never settled.
  double settle_seconds = kNaN;
};

struct RtReport {
  std::vector<RtClassReport> cls;
  /// max over classes >= 1 of |achieved/target - 1| (NaN without data).
  double max_ratio_error = kNaN;
  /// Same, over the windowed medians — the statistic smoke checks gate on.
  double max_window_ratio_error = kNaN;
  /// max over classes >= 1 of settle_seconds; NaN when any class lacks one
  /// (strict: a class that never re-converged must fail a bounded check).
  double max_settle_seconds = kNaN;
  std::uint64_t produced = 0;
  std::uint64_t dropped = 0;
  /// Admission-gate sheds over all classes/shards; 0 without a gate.
  std::uint64_t shed_total = 0;
  /// Goodput: post-warmup completions of ADMITTED work per second of the
  /// measurement interval (duration - warmup).  NaN without a gate — the
  /// metric exists to compare against capacity under overload.
  double goodput = kNaN;
  /// Worst |window_ratio_p50 / target - 1| over classes that actually
  /// completed work — ratio integrity among the admitted survivors.  NaN
  /// without a gate (max_window_ratio_error covers the nominal regime).
  double survivor_window_ratio_error = kNaN;
  std::uint64_t completed_total = 0;  ///< Post-warmup.
  std::uint64_t completed_all = 0;    ///< Including warmup.
  std::uint64_t outstanding = 0;      ///< Accepted but never completed.
  double elapsed = 0.0;               ///< Wall/model seconds covered.
  double requests_per_sec = 0.0;      ///< completed_all / elapsed.
  std::uint64_t controller_ticks = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t drains = 0;
};

/// Tag for the embedded (generator-less) Runtime construction below.
struct EmbeddedTag {};

class Runtime {
 public:
  Runtime(RtConfig cfg, ClockVariant clock);

  /// Replay construction: the trace drives arrivals instead of synthetic
  /// generators.  `time_scale` multiplies recorded times into seconds.
  Runtime(RtConfig cfg, ClockVariant clock, Trace trace, double time_scale);

  /// Embedded construction: full shard/controller/exporter topology, but NO
  /// internal load sources — an external driver (the cluster dispatcher, a
  /// test) injects arrivals through a RuntimeHandle and owns the question of
  /// when load stops.  step_to/run work unchanged (the generator loop is
  /// simply empty); report().produced stays 0 because production is the
  /// driver's statistic.
  Runtime(RtConfig cfg, ClockVariant clock, EmbeddedTag);

  // --- threaded drive (SteadyClock) ---

  /// Spawn generator/shard/controller threads, run for cfg.duration, drain,
  /// finalize, report.  One-shot.
  RtReport run();

  // --- deterministic drive (ManualClock) ---

  /// Advance the clock to `t` and step generators, shards, controller (in
  /// that order) on the calling thread.
  void step_to(Time t);

  /// Keep stepping past the end of load until every accepted request
  /// completed or `max_extra` seconds of model time elapse.
  void quiesce(Duration max_extra = 10.0, Duration step = 0.01);

  /// Close metrics windows; idempotent.  run() does this itself.
  void finish();

  RtReport report() const;

  std::uint64_t total_outstanding() const;
  std::size_t num_shards() const { return shards_.size(); }
  Shard& shard(std::size_t i) { return *shards_[i]; }
  /// Every shard in index order (borrowed; they live as long as the
  /// Runtime).
  std::vector<Shard*> shard_ptrs() const;
  const Controller& controller() const { return *controller_; }
  Controller& controller_mut() { return *controller_; }
  const RtConfig& config() const { return cfg_; }
  ClockVariant& clock() { return clock_; }
  /// Null unless cfg.obs requested a stream, a metrics port, tracing, or
  /// an SLO watchdog.
  obs::StatsExporter* exporter() { return exporter_.get(); }
  /// Null unless cfg.obs.slo_rules is non-empty.
  obs::Watchdog* watchdog() { return watchdog_.get(); }

 private:
  /// Shared constructor core: validate, build shards + controller.
  void init_topology();
  void build_shards(double shard_capacity);
  void init_exporter();

  RtConfig cfg_;
  ClockVariant clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<LoadSource>> gens_;
  std::unique_ptr<Controller> controller_;
  std::unique_ptr<obs::StatsExporter> exporter_;
  std::unique_ptr<obs::Watchdog> watchdog_;  ///< Driven via the exporter.
  Time next_tick_;
  Time next_sample_ = 0.0;
  double run_elapsed_ = -1.0;  ///< Set once a threaded run completes.
  bool ran_ = false;
  bool finalized_ = false;
};

/// Best-effort affinity pin of the calling thread (Linux); false elsewhere
/// or on failure.  Exposed for the bench harness.
bool pin_current_thread(unsigned cpu);

/// The synthetic load sources of one workload: cfg.loadgens generators,
/// generator g drawing from Rng(cfg.seed).fork(100 + g), each running every
/// class at cfg.lambdas()[c] x `rate_scale` — 1 / loadgens for one node,
/// nodes / loadgens for a cluster (cfg.load is per-shard utilization).
/// With a `sink` every arrival goes there; otherwise it sprays over
/// `shards`.
std::vector<std::unique_ptr<LoadSource>> make_synthetic_sources(
    const RtConfig& cfg, double rate_scale, const std::vector<Shard*>& shards,
    const LoadSource::Sink& sink = {});

/// The windowed ratio statistics of a pool of shards — one node's, or every
/// node's in a cluster.  Per class c >= 1: the median of the pooled
/// per-window slowdown ratios vs class 0 (stats/convergence.hpp), its error
/// against delta_c / delta_0, and — when `onset` is finite — how long the
/// count-merged windowed ratio took to re-enter and hold the `tol` band
/// after it.  Reads the servers' closed window series, so only after the
/// shards were finalized.
struct WindowRatioStats {
  std::vector<double> p50;     ///< Per class; NaN for class 0 / no windows.
  std::vector<double> error;   ///< |p50 / target - 1|; NaN where p50 is.
  double max_error = kNaN;     ///< Over classes with a p50.
  std::vector<double> settle;  ///< Per class; NaN without an onset.
  /// Max over classes; NaN poisons (a class that never re-converged must
  /// fail a bounded check), NaN without an onset.
  double max_settle = kNaN;
};
WindowRatioStats window_ratio_stats(const std::vector<Shard*>& shards,
                                    const std::vector<double>& delta,
                                    double onset, double tol, double period);

}  // namespace psd::rt
