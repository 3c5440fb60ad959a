#include "rt/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>

#include "dist/sampler.hpp"
#include "rt/handle.hpp"
#include "stats/convergence.hpp"
#include "workload/class_spec.hpp"

#ifdef __linux__
#include <pthread.h>
#endif

namespace psd::rt {

namespace {

/// A sink of `rt`'s own for one load source: the source owns the handle, so
/// its round-robin cursors are private to the source's thread and need no
/// lock.
LoadSource::Sink handle_sink(Runtime& rt) {
  return [handle = RuntimeHandle(rt)](const Request& req) mutable {
    handle.submit(req);
  };
}

/// How far ahead of a controller tick its pre-tick pass wakes the shards:
/// enough for each to drain and publish before the tick reads it.
constexpr Duration kPassLead = 1e-3;

}  // namespace

bool await_tick(StopSignal& stop, const ClockVariant& clock, Time tick_at,
                const std::vector<Shard*>& shards) {
  if (stop.wait_until(clock, tick_at - kPassLead)) return false;
  for (Shard* s : shards) s->wake();
  return !stop.wait_until(clock, tick_at);
}

void sleep_until_clock(const ClockVariant& clock, Time t) {
  for (Duration dt = t - clock.now(); dt > 0.0; dt = t - clock.now()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(dt));
  }
}

bool pin_current_thread(unsigned cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

double RtConfig::shard_capacity() const {
  return make_sampler(size_dist).mean() / mean_service_seconds;
}

std::vector<double> RtConfig::lambdas() const {
  std::vector<double> share = load_share;
  if (share.empty()) {
    share.assign(delta.size(), 1.0 / static_cast<double>(delta.size()));
  }
  // Utilization rho per shard means a TOTAL work arrival rate of
  // rho * shards * capacity, i.e. rho * shards / mean_service_seconds
  // requests per second, split by share.
  std::vector<double> out(delta.size());
  const double total =
      load * static_cast<double>(shards) / mean_service_seconds;
  for (std::size_t c = 0; c < delta.size(); ++c) out[c] = total * share[c];
  return out;
}

void RtConfig::validate() const {
  PSD_REQUIRE(!delta.empty() && delta.size() <= kMaxRtClasses,
              "need 1..kMaxRtClasses classes");
  for (std::size_t i = 0; i < delta.size(); ++i) {
    PSD_REQUIRE(delta[i] > 0.0, "delta must be positive");
    if (i > 0) {
      PSD_REQUIRE(delta[i] >= delta[i - 1], "delta must be non-decreasing");
    }
  }
  if (admission.active()) {
    // A gate makes beyond-capacity load a survivable, measured regime.
    PSD_REQUIRE(load > 0.0, "load must be positive");
  } else {
    PSD_REQUIRE(load > 0.0 && load < 1.0, "load must be in (0,1)");
  }
  admission.validate();
  if (!load_share.empty()) {
    PSD_REQUIRE(load_share.size() == delta.size(),
                "load_share size mismatch");
    const double sum =
        std::accumulate(load_share.begin(), load_share.end(), 0.0);
    PSD_REQUIRE(std::abs(sum - 1.0) < 1e-6, "load shares must sum to 1");
  }
  PSD_REQUIRE(mean_service_seconds > 0.0,
              "mean_service_seconds must be positive");
  PSD_REQUIRE(shards >= 1, "need at least one shard");
  PSD_REQUIRE(loadgens >= 1, "need at least one load generator");
  PSD_REQUIRE(controller_period > 0.0, "controller period must be positive");
  PSD_REQUIRE(warmup >= 0.0 && warmup < duration,
              "need warmup in [0, duration)");
  if (arrivals.kind == ArrivalKind::kBursty) {
    PSD_REQUIRE(arrivals.burstiness >= 1.0, "burstiness must be >= 1");
    PSD_REQUIRE(arrivals.sojourn > 0.0, "mmpp sojourn must be positive");
    PSD_REQUIRE(arrivals.duty > 0.0 && arrivals.duty < 1.0,
                "mmpp duty must be in (0,1)");
  }
  profile.validate();
  PSD_REQUIRE(converge_tol > 0.0, "convergence tolerance must be positive");
}

void Runtime::build_shards(double shard_capacity) {
  Rng master(cfg_.seed);
  ShardConfig sc;
  sc.num_classes = cfg_.num_classes();
  sc.capacity = shard_capacity;
  sc.window = cfg_.controller_period;
  sc.estimator_history = cfg_.estimator_history;
  sc.warmup = cfg_.warmup;
  sc.ingress_capacity = cfg_.ingress_capacity;
  sc.telemetry = cfg_.obs.enabled;
  sc.profile = cfg_.obs.profile;
  sc.telemetry_sample_period = cfg_.obs.sample_period;
  // Publish at least as often as the exporter samples, so a fast
  // --stats-interval never reads a stale snapshot twice.
  sc.telemetry_publish_interval =
      std::min(sc.telemetry_publish_interval, cfg_.obs.stats_interval);
  sc.tracing = cfg_.obs.tracing();
  sc.trace_sample_period = cfg_.obs.trace_sample_period;
  sc.span_ring_capacity = cfg_.obs.span_ring_capacity;
  shards_.reserve(cfg_.shards);
  const SamplerVariant dist = make_sampler(cfg_.size_dist);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    sc.shard_id = static_cast<std::uint32_t>(i);
    shards_.push_back(std::make_unique<Shard>(sc, master.fork(9000 + i)));
    if (cfg_.admission.active()) {
      // One gate per shard, sized at shard capacity — gate state stays
      // shard-thread-private; the controller only stages estimates.
      shards_.back()->set_admission(
          make_admission(cfg_.admission, cfg_.delta, dist, shard_capacity));
    }
  }
}

std::vector<Shard*> Runtime::shard_ptrs() const {
  std::vector<Shard*> ptrs;
  ptrs.reserve(shards_.size());
  for (const auto& s : shards_) ptrs.push_back(s.get());
  return ptrs;
}

void Runtime::init_topology() {
  cfg_.validate();
  const double capacity = cfg_.shard_capacity();
  build_shards(capacity);

  ControllerConfig cc;
  cc.delta = cfg_.delta;
  cc.group_capacity = capacity * static_cast<double>(cfg_.shards);
  cc.mean_size = make_sampler(cfg_.size_dist).mean();
  cc.allocator = cfg_.allocator;
  cc.adaptive = cfg_.adaptive;
  cc.rho_max = cfg_.rho_max;
  cc.min_residual_share = cfg_.min_residual_share;
  cc.admission = cfg_.admission.active();
  cc.trace = cfg_.obs.enabled;
  cc.trace_capacity = cfg_.obs.trace_capacity;
  cc.profile = cfg_.obs.profile;
  controller_ = std::make_unique<Controller>(
      std::move(cc), std::vector<std::vector<Shard*>>{shard_ptrs()});
}

void Runtime::init_exporter() {
  if (!cfg_.obs.wants_exporter()) return;
  std::vector<LoadSource*> gen_ptrs;
  gen_ptrs.reserve(gens_.size());
  for (auto& g : gens_) gen_ptrs.push_back(g.get());
  exporter_ = std::make_unique<obs::StatsExporter>(
      cfg_.obs, shard_ptrs(), controller_.get(), std::move(gen_ptrs),
      clock_.is_manual());
  next_sample_ = cfg_.obs.stats_interval;
  if (!cfg_.obs.slo_rules.empty()) {
    obs::WatchdogConfig wc;
    wc.rules = cfg_.obs.slo_rules;
    wc.delta = cfg_.delta;
    wc.settle_band = cfg_.converge_tol;
    // Cold windows would trip goodput floors before any completion can
    // exist; rules arm when metrics do.
    wc.arm_time = cfg_.warmup;
    wc.cooldown = cfg_.obs.slo_cooldown;
    wc.flight_prefix = cfg_.obs.flight_prefix;
    watchdog_ = std::make_unique<obs::Watchdog>(std::move(wc), shard_ptrs(),
                                                controller_.get());
    exporter_->attach_watchdog(watchdog_.get());
  }
}

std::vector<std::unique_ptr<LoadSource>> make_synthetic_sources(
    const RtConfig& cfg, double rate_scale,
    const std::function<LoadSource::Sink()>& make_sink) {
  const SamplerVariant sampler = make_sampler(cfg.size_dist);
  const auto lam = cfg.lambdas();
  Rng master(cfg.seed);
  std::vector<std::unique_ptr<LoadSource>> gens;
  gens.reserve(cfg.loadgens);
  for (std::size_t g = 0; g < cfg.loadgens; ++g) {
    std::vector<SyntheticLoadGen::ClassLoad> classes;
    classes.reserve(cfg.num_classes());
    for (std::size_t c = 0; c < cfg.num_classes(); ++c) {
      // Stationary default stays the bare Poisson construction (identical
      // draw streams at a fixed seed); MMPP shapes and load profiles route
      // through the workload factory.  Each generator thread carries its
      // own thinned stream at its share of the rate — the superposition
      // still tracks the profile on the wall clock.
      const double rate = lam[c] * rate_scale;
      if (cfg.arrivals.kind == ArrivalKind::kPoisson &&
          !cfg.profile.active()) {
        classes.push_back(
            {static_cast<ClassId>(c), PoissonArrivals(rate), sampler});
      } else {
        classes.push_back(
            {static_cast<ClassId>(c),
             make_arrivals(cfg.arrivals, rate, cfg.profile), sampler});
      }
    }
    gens.push_back(std::make_unique<SyntheticLoadGen>(
        static_cast<std::uint32_t>(g), master.fork(100 + g),
        std::move(classes), make_sink(), 0.0));
  }
  return gens;
}

Runtime::Runtime(RtConfig cfg, ClockVariant clock)
    : cfg_(std::move(cfg)),
      clock_(std::move(clock)),
      next_tick_(cfg_.controller_period) {
  init_topology();
  gens_ = make_synthetic_sources(
      cfg_, 1.0 / static_cast<double>(cfg_.loadgens),
      [this] { return handle_sink(*this); });
  init_exporter();
}

Runtime::Runtime(RtConfig cfg, ClockVariant clock, Trace trace,
                 double time_scale)
    : cfg_(std::move(cfg)),
      clock_(std::move(clock)),
      next_tick_(cfg_.controller_period) {
  init_topology();
  gens_.push_back(std::make_unique<TraceLoadGen>(
      std::move(trace), time_scale, cfg_.num_classes(), handle_sink(*this)));
  init_exporter();
}

Runtime::Runtime(RtConfig cfg, ClockVariant clock, EmbeddedTag)
    : cfg_(std::move(cfg)),
      clock_(std::move(clock)),
      next_tick_(cfg_.controller_period) {
  init_topology();
  init_exporter();
}

std::uint64_t Runtime::total_outstanding() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->outstanding();
  return n;
}

void Runtime::step_to(Time t) {
  ManualClock* mc = clock_.manual();
  PSD_REQUIRE(mc != nullptr, "step_to requires a ManualClock");
  PSD_REQUIRE(!ran_, "step_to cannot mix with a threaded run()");
  mc->advance_to(t);
  // Load stops at cfg.duration in both drive modes (threaded run() stops
  // its generator threads there); quiesce steps beyond it to drain.
  const Time gen_horizon = std::min(t, cfg_.duration);
  for (auto& g : gens_) g->step_until(gen_horizon);
  for (auto& s : shards_) s->drain(t);
  while (next_tick_ <= t) {
    controller_->tick(next_tick_);
    next_tick_ += cfg_.controller_period;
  }
  // Deterministic exporter drive: samples land on the fixed interval grid
  // with manual-clock timestamps, so repeated runs emit identical bytes.
  if (exporter_ != nullptr && exporter_->sampling_active()) {
    while (next_sample_ <= t) {
      exporter_->sample(next_sample_);
      next_sample_ += cfg_.obs.stats_interval;
    }
  }
}

void Runtime::quiesce(Duration max_extra, Duration step) {
  PSD_REQUIRE(clock_.is_manual(), "quiesce requires a ManualClock");
  // Load generation is over: the SLO watchdog must not alarm on windows
  // that close over the draining backlog.
  if (watchdog_ != nullptr) watchdog_->disarm();
  Time t = clock_.now();
  const Time limit = t + max_extra;
  while (total_outstanding() > 0 && t < limit) {
    t = std::min(t + step, limit);
    step_to(t);
  }
}

void Runtime::finish() {
  if (finalized_) return;
  finalized_ = true;
  const Time now = clock_.now();
  for (auto& s : shards_) s->finalize(now);
  // After the final drains: pull the span rings dry and write the trace
  // footer, so spans emitted between the last sample and shutdown land in
  // the file and it is loadable even for runs shorter than one interval.
  if (exporter_ != nullptr) exporter_->final_flush(now);
}

RtReport Runtime::run() {
  PSD_REQUIRE(!ran_ && !finalized_, "run() is one-shot");
  PSD_REQUIRE(!clock_.is_manual(),
              "run() spins wall-clock threads; use step_to with ManualClock");
  ran_ = true;

  // Bind the metrics listener BEFORE any worker thread exists: a bound
  // port or socket failure must surface as a clean startup exception, and
  // throwing with joinable std::threads alive would std::terminate.
  if (exporter_ != nullptr) exporter_->start_http();

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<bool> stop_gen{false};
  StopSignal stop_rest;
  std::vector<std::thread> threads;
  threads.reserve(shards_.size() + gens_.size() + 1);

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    threads.emplace_back([this, i, hw] {
      if (cfg_.pin_threads) pin_current_thread(static_cast<unsigned>(i % hw));
      shards_[i]->serve(clock_);
    });
  }
  for (std::size_t g = 0; g < gens_.size(); ++g) {
    threads.emplace_back([this, g, hw, &stop_gen] {
      if (cfg_.pin_threads) {
        pin_current_thread(
            static_cast<unsigned>((shards_.size() + g) % hw));
      }
      run_source(*gens_[g], clock_, stop_gen);
    });
  }
  threads.emplace_back([this, hw, &stop_rest] {
    if (cfg_.pin_threads) pin_current_thread(hw - 1);
    const std::vector<Shard*> shards = shard_ptrs();
    for (Time next = next_tick_; await_tick(stop_rest, clock_, next, shards);) {
      const Time now = clock_.now();
      controller_->tick(now);
      next = now + cfg_.controller_period;
    }
  });
  if (exporter_ != nullptr && exporter_->sampling_active()) {
    threads.emplace_back([this, &stop_rest] {
      for (Time next = next_sample_; !stop_rest.wait_until(clock_, next);) {
        const Time now = clock_.now();
        exporter_->sample(now);
        next = now + cfg_.obs.stats_interval;
      }
      // One closing sample so short runs always stream at least one line
      // covering the full workload.
      exporter_->sample(clock_.now());
    });
  }

  // Let the workload run its course.
  sleep_until_clock(clock_, cfg_.duration);
  stop_gen.store(true, std::memory_order_release);
  // The exporter thread keeps sampling through the grace period; the
  // watchdog must not alarm on drain-phase windows (see quiesce()).
  if (watchdog_ != nullptr) watchdog_->disarm();

  // Grace period: shards keep draining until the accepted backlog clears
  // (bounded — a class allocated a near-zero rate may legitimately hold
  // work its dedicated server will not finish in time).  The producers
  // have stopped and the pre-tick pass comes once a controller period, so
  // this loop wakes the shards itself: a parked shard fires the
  // completions due in its embedded simulator only when it drains.
  const Time grace_end = clock_.now() + 2.0;
  while (clock_.now() < grace_end && total_outstanding() > 0) {
    for (auto& s : shards_) s->wake();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_rest.raise();
  for (auto& s : shards_) s->request_stop();
  for (auto& t : threads) t.join();
  if (exporter_ != nullptr) exporter_->stop_http();

  run_elapsed_ = clock_.now();
  finish();
  return report();
}

WindowRatioStats window_ratio_stats(const std::vector<Shard*>& shards,
                                    const std::vector<double>& delta,
                                    double onset, double tol, double period) {
  const std::size_t n = delta.size();
  WindowRatioStats w;
  w.p50.assign(n, kNaN);
  w.error.assign(n, kNaN);
  w.settle.assign(n, kNaN);
  // Pool per-window slowdown ratios (class c vs class 0, index-aligned —
  // every shard rolls the same warmup/window grid) across the shards and
  // take the median (stats/convergence.hpp).
  for (std::size_t c = 1; c < n; ++c) {
    std::vector<const std::vector<IntervalStat>*> base, cls;
    for (const Shard* shard : shards) {
      const auto& m = shard->server().metrics();
      base.push_back(&m.windows(0));
      cls.push_back(&m.windows(static_cast<ClassId>(c)));
    }
    const double p50 = pooled_window_ratio_median(base, cls);
    if (!std::isfinite(p50)) continue;
    w.p50[c] = p50;
    w.error[c] = std::abs(p50 / (delta[c] / delta[0]) - 1.0);
    w.max_error = std::isfinite(w.max_error)
                      ? std::max(w.max_error, w.error[c])
                      : w.error[c];
  }
  // Re-convergence: shard window series are index-aligned, so merge them
  // count-weighted into one per-class series first — the same pairing rule
  // the simulator's cluster aggregation uses.
  if (std::isfinite(onset) && n >= 2) {
    auto merged = [&](ClassId cls) {
      std::vector<IntervalStat> out;
      for (const Shard* shard : shards) {
        merge_windows_into(out, shard->server().metrics().windows(cls));
      }
      return out;
    };
    const auto w0 = merged(0);
    double worst = 0.0;
    for (std::size_t c = 1; c < n; ++c) {
      const double settled =
          ratio_settle_time(w0, merged(static_cast<ClassId>(c)),
                            delta[c] / delta[0], tol, onset, period);
      w.settle[c] = settled;
      // NaN (never settled) poisons the max: a bounded check must fail.
      if (!std::isfinite(settled)) worst = kNaN;
      else if (std::isfinite(worst)) worst = std::max(worst, settled);
    }
    w.max_settle = worst;
  }
  return w;
}

RtReport Runtime::report() const {
  const std::size_t n = cfg_.num_classes();
  RtReport r;
  r.cls.resize(n);
  std::vector<double> sd_sum(n, 0.0);
  std::vector<std::uint64_t> sd_n(n, 0);
  std::vector<double> wait_sum(n, 0.0);
  std::vector<std::uint64_t> wait_n(n, 0);
  std::vector<std::uint64_t> accepted(n, 0);
  for (const auto& shard : shards_) {
    const ShardSnapshot snap = shard->snapshot();
    r.drains += snap.drains;
    for (std::size_t c = 0; c < n; ++c) {
      r.cls[c].shed += snap.sheds_cls[c];
      accepted[c] += snap.accepted[c];
      r.cls[c].completed += snap.completed[c];
      if (snap.completed[c] > 0 && std::isfinite(snap.mean_slowdown[c])) {
        sd_sum[c] += snap.mean_slowdown[c] *
                     static_cast<double>(snap.completed[c]);
        sd_n[c] += snap.completed[c];
      }
      if (snap.accepted[c] > 0 &&
          std::isfinite(snap.mean_ingress_wait[c])) {
        wait_sum[c] += snap.mean_ingress_wait[c] *
                       static_cast<double>(snap.accepted[c]);
        wait_n[c] += snap.accepted[c];
      }
      r.cls[c].dropped += shard->dropped(static_cast<ClassId>(c));
    }
    r.dropped += shard->dropped();
    r.completed_all += shard->completed_all();
    r.outstanding += shard->outstanding();
  }
  for (std::size_t c = 0; c < n; ++c) {
    r.cls[c].delta = cfg_.delta[c];
    if (sd_n[c] > 0) {
      r.cls[c].mean_slowdown = sd_sum[c] / static_cast<double>(sd_n[c]);
    }
    if (wait_n[c] > 0) {
      r.cls[c].mean_ingress_wait =
          wait_sum[c] / static_cast<double>(wait_n[c]);
    }
    r.cls[c].target_ratio = cfg_.delta[c] / cfg_.delta[0];
    r.completed_total += r.cls[c].completed;
    r.shed_total += r.cls[c].shed;
    if (cfg_.admission.active() && accepted[c] + r.cls[c].shed > 0) {
      r.cls[c].shed_rate =
          static_cast<double>(r.cls[c].shed) /
          static_cast<double>(accepted[c] + r.cls[c].shed);
    }
  }
  if (cfg_.admission.active() && cfg_.duration > cfg_.warmup) {
    r.goodput = static_cast<double>(r.completed_total) /
                (cfg_.duration - cfg_.warmup);
  }
  const double s0 = r.cls[0].mean_slowdown;
  double worst = kNaN;
  for (std::size_t c = 0; c < n; ++c) {
    if (std::isfinite(s0) && s0 > 0.0 &&
        std::isfinite(r.cls[c].mean_slowdown)) {
      r.cls[c].achieved_ratio = r.cls[c].mean_slowdown / s0;
      if (c > 0) {
        const double err =
            std::abs(r.cls[c].achieved_ratio / r.cls[c].target_ratio - 1.0);
        worst = std::isfinite(worst) ? std::max(worst, err) : err;
      }
    }
  }
  r.max_ratio_error = worst;

  // Telemetry-only extras: fold the per-shard post-warmup slowdown
  // histograms (identical layout by construction) into per-class
  // percentiles.  Reads shard-thread-private state, so after finish() only.
  if (finalized_ && cfg_.obs.enabled) {
    for (std::size_t c = 0; c < n; ++c) {
      LogHistogram merged = shards_[0]->slowdown_hists()[c];
      for (std::size_t i = 1; i < shards_.size(); ++i) {
        merged.merge(shards_[i]->slowdown_hists()[c]);
      }
      if (merged.count() > 0) {
        r.cls[c].slowdown_p50 = merged.quantile(0.50);
        r.cls[c].slowdown_p95 = merged.quantile(0.95);
        r.cls[c].slowdown_p99 = merged.quantile(0.99);
      }
    }
  }

  // Windowed medians and the ratio re-convergence after the profile's
  // settling point, over this node's shards.  They read the servers' window
  // series directly, so only after finish() stopped the shard threads.
  if (finalized_) {
    const double step_at = cfg_.profile.step_time();
    const WindowRatioStats w = window_ratio_stats(
        shard_ptrs(), cfg_.delta,
        std::isfinite(step_at) ? std::max(step_at, cfg_.warmup) : kNaN,
        cfg_.converge_tol, cfg_.controller_period);
    for (std::size_t c = 1; c < n; ++c) {
      r.cls[c].window_ratio_p50 = w.p50[c];
      r.cls[c].settle_seconds = w.settle[c];
      // Survivor-only ratio integrity: under a gate, a fully-shed class
      // contributes no windows and drops out of this statistic by
      // construction — what remains is the differentiation among classes
      // that kept completing.
      if (cfg_.admission.active() && r.cls[c].completed > 0 &&
          std::isfinite(w.error[c])) {
        r.survivor_window_ratio_error =
            std::isfinite(r.survivor_window_ratio_error)
                ? std::max(r.survivor_window_ratio_error, w.error[c])
                : w.error[c];
      }
    }
    r.max_window_ratio_error = w.max_error;
    r.max_settle_seconds = w.max_settle;
  }

  for (const auto& g : gens_) {
    r.produced += g->produced();
  }
  r.gen_late_mean = mean_lateness(gens_);
  const ControllerSnapshot cs = controller_->snapshot();
  r.controller_ticks = cs.ticks;
  r.reallocations = cs.allocations;
  r.elapsed = run_elapsed_ >= 0.0 ? run_elapsed_ : clock_.now();
  r.requests_per_sec =
      r.elapsed > 0.0 ? static_cast<double>(r.completed_all) / r.elapsed
                      : 0.0;
  return r;
}

}  // namespace psd::rt
