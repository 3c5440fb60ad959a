#include "experiment/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "baselines/pdd_policies.hpp"
#include "cluster/dispatcher.hpp"
#include "common/error.hpp"
#include "core/psd_allocation.hpp"
#include "core/psd_rate_allocator.hpp"
#include "experiment/scenario_build.hpp"
#include "sched/lottery.hpp"
#include "sched/sfq.hpp"
#include "server/server.hpp"
#include "stats/convergence.hpp"
#include "stats/percentile.hpp"
#include "workload/generator.hpp"

namespace psd {

namespace detail {

std::unique_ptr<SchedulerBackend> make_scenario_backend(
    const ScenarioConfig& cfg, double unit) {
  switch (cfg.backend) {
    case BackendKind::kDedicated:
      return std::make_unique<DedicatedRateBackend>(cfg.rate_change);
    case BackendKind::kSfq:
      return std::make_unique<SfqBackend>();
    case BackendKind::kLottery:
      return std::make_unique<LotteryBackend>(cfg.lottery_quantum_tu * unit);
    case BackendKind::kWtp:
      return make_wtp_backend(cfg.delta);
    case BackendKind::kPad:
      return make_pad_backend(cfg.delta);
    case BackendKind::kHpd:
      return make_hpd_backend(cfg.delta);
    case BackendKind::kStrict:
      return make_strict_backend(cfg.num_classes());
  }
  PSD_UNREACHABLE("unknown backend kind");
}

std::unique_ptr<RateAllocator> make_scenario_allocator(
    const ScenarioConfig& cfg, double mean_size) {
  PsdAllocatorConfig pc;
  pc.delta = cfg.delta;
  pc.capacity = cfg.capacity;
  pc.mean_size = mean_size;
  pc.rho_max = cfg.rho_max;
  pc.min_residual_share = cfg.min_residual_share;
  return make_allocator(cfg.allocator, pc, cfg.adaptive);
}

// Doc comments for the detail functions live in scenario_build.hpp.
ArrivalVariant scenario_arrivals(const ScenarioConfig& cfg, double lambda,
                                 double unit) {
  if (!cfg.profile.active()) {
    return make_arrivals(cfg.arrivals, lambda, cfg.burstiness,
                         cfg.mmpp_sojourn, cfg.mmpp_duty);
  }
  return make_arrivals(cfg.arrivals, lambda, cfg.burstiness, cfg.mmpp_sojourn,
                       cfg.mmpp_duty, cfg.profile.scaled_time(unit));
}

std::vector<double> settle_times(const ScenarioConfig& cfg,
                                 const RunResult& r) {
  const double step_tu = cfg.profile.step_time();
  if (!std::isfinite(step_tu) || r.cls.size() < 2) return {};
  const double unit = r.time_unit;
  const double onset = (cfg.warmup_tu > step_tu ? cfg.warmup_tu : step_tu) *
                       unit;  // windows only exist past the warmup
  std::vector<double> out(r.cls.size() - 1, kNaN);
  for (std::size_t j = 1; j < r.cls.size(); ++j) {
    const double settled = ratio_settle_time(
        r.cls[0].windows, r.cls[j].windows, cfg.delta[j] / cfg.delta[0],
        cfg.converge_tol, onset, cfg.window_tu * unit);
    out[j - 1] = settled / unit;  // NaN propagates
  }
  return out;
}

ServerConfig node_server_config(const ScenarioConfig& cfg, double unit) {
  ServerConfig sc;
  sc.num_classes = cfg.num_classes();
  sc.capacity = cfg.capacity;
  sc.realloc_period =
      cfg.allocator == AllocatorKind::kNone ? 0.0 : cfg.realloc_tu * unit;
  sc.estimator_history = cfg.estimator_history;
  sc.metrics.num_classes = cfg.num_classes();
  sc.metrics.warmup_end = cfg.warmup_tu * unit;
  sc.metrics.window = cfg.window_tu * unit;
  sc.metrics.record_requests = cfg.record_requests;
  sc.metrics.record_from = cfg.record_from_tu * unit;
  sc.metrics.record_to = cfg.record_to_tu * unit;
  return sc;
}

}  // namespace detail

namespace {

using detail::make_scenario_allocator;
using detail::make_scenario_backend;
using detail::node_server_config;
using detail::scenario_arrivals;
using detail::settle_times;

/// Per-class statistics from one server's metrics into `out`, weighting
/// means by completion counts so multi-node aggregation is exact.  Window
/// series MERGE index-wise: every node rolls the same (warmup, window)
/// grid — IntervalSeries keeps empty windows — so index w is the same time
/// interval cluster-wide, and downstream ratio pairing (class j vs class 0
/// at equal indices) stays time-aligned.  Concatenating node series instead
/// would misalign the pairing as soon as two nodes emit different window
/// counts.
void accumulate_node(RunResult& out, const Server& server) {
  const auto& m = server.metrics();
  out.submitted += server.submitted();
  out.reallocations += server.reallocations();
  for (std::size_t i = 0; i < out.cls.size(); ++i) {
    auto& c = out.cls[i];
    const auto cls = static_cast<ClassId>(i);
    const std::uint64_t done = m.completed(cls);
    if (done > 0) {
      const double total = static_cast<double>(c.completed + done);
      const double w = static_cast<double>(done) / total;
      c.mean_slowdown += (m.slowdown(cls).mean() - c.mean_slowdown) * w;
      c.mean_delay += (m.delay(cls).mean() - c.mean_delay) * w;
      c.completed += done;
    }
    merge_windows_into(c.windows, m.windows(cls));
  }
  const auto& rec = m.records();
  out.records.insert(out.records.end(), rec.begin(), rec.end());
}

RunResult run_cluster_scenario(const ScenarioConfig& cfg,
                               std::uint64_t run_index) {
  const SamplerVariant dist = make_sampler(cfg.size_dist);
  const double unit = dist.mean() / cfg.capacity;
  const auto lambdas = cfg.true_lambdas();  // per node
  const std::size_t n = cfg.num_classes();
  const std::size_t nodes = cfg.cluster_nodes;

  Simulator sim;
  Rng master(cfg.seed);
  Rng run_rng = master.fork(run_index);

  std::optional<BoundedParetoSampler> sita_sizes;
  if (cfg.cluster_policy == AssignmentPolicy::kSizeInterval) {
    // validate() guarantees a bounded-pareto spec here.
    sita_sizes.emplace(cfg.size_dist.a, cfg.size_dist.b, cfg.size_dist.c);
  }

  Cluster cluster(
      sim, nodes, node_server_config(cfg, unit),
      [&] { return make_scenario_backend(cfg, unit); },
      [&] { return make_scenario_allocator(cfg, dist.mean()); },
      AssignmentSpec(cfg.cluster_policy, cfg.cluster_jsq_d),
      run_rng.fork(1000), std::move(sita_sizes));
  if (cfg.admission.active()) {
    // Each node gates its own share of the offered load, mirroring the
    // per-node allocator: a node-local gate sized at node capacity.
    for (std::size_t m = 0; m < nodes; ++m) {
      cluster.node(m).set_admission(
          make_admission(cfg.admission, cfg.delta, dist, cfg.capacity));
    }
  }
  cluster.start(0.0);

  // One generator per class; `load` is per-node utilization, so the cluster
  // as a whole receives nodes x the single-node arrival rate.
  std::vector<std::unique_ptr<RequestGenerator>> gens;
  gens.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gens.push_back(std::make_unique<RequestGenerator>(
        sim, run_rng.fork(i), static_cast<ClassId>(i),
        scenario_arrivals(cfg, lambdas[i] * static_cast<double>(nodes), unit),
        dist, cluster));
    gens.back()->start(0.0);
  }

  const Time horizon = (cfg.warmup_tu + cfg.measure_tu) * unit;
  sim.run_until(horizon);
  for (auto& g : gens) g->stop();
  cluster.finalize();

  RunResult out;
  out.time_unit = unit;
  out.cls.resize(n);
  double sys = 0.0;
  std::uint64_t sys_n = 0;
  for (std::size_t m = 0; m < nodes; ++m) {
    const Server& node = cluster.node(m);
    accumulate_node(out, node);
    const std::uint64_t done = node.metrics().completed_total();
    if (done > 0) {
      sys += (node.metrics().system_slowdown() - sys) *
             (static_cast<double>(done) / static_cast<double>(sys_n + done));
      sys_n += done;
    }
  }
  out.system_slowdown = sys_n > 0 ? sys : kNaN;
  out.settle_tu = settle_times(cfg, out);
  if (cfg.admission.active()) {
    out.shed.assign(n, 0);
    out.offered.assign(n, 0);
    std::uint64_t done = 0;
    for (std::size_t m = 0; m < nodes; ++m) {
      const Server& node = cluster.node(m);
      for (std::size_t i = 0; i < n; ++i) {
        out.shed[i] += node.rejected(static_cast<ClassId>(i));
        out.offered[i] += node.offered(static_cast<ClassId>(i));
      }
    }
    for (const auto& c : out.cls) done += c.completed;
    out.goodput_tu = static_cast<double>(done) / cfg.measure_tu;
  }
  return out;
}

/// Single-node replication core.  `record` (optional) receives every
/// generated arrival as a trace; `replay` (optional) substitutes a
/// TracePlayer for the synthetic generators.  At most one may be set.
RunResult run_single_node_scenario(const ScenarioConfig& cfg,
                                   std::uint64_t run_index,
                                   Trace* record = nullptr,
                                   const Trace* replay = nullptr) {
  const SamplerVariant dist = make_sampler(cfg.size_dist);
  const double unit = dist.mean() / cfg.capacity;
  const auto lambdas = cfg.true_lambdas();
  const std::size_t n = cfg.num_classes();

  Simulator sim;
  Rng master(cfg.seed);
  Rng run_rng = master.fork(run_index);

  Server server(sim, node_server_config(cfg, unit),
                make_scenario_backend(cfg, unit),
                make_scenario_allocator(cfg, dist.mean()),
                run_rng.fork(1000));
  if (cfg.admission.active()) {
    server.set_admission(
        make_admission(cfg.admission, cfg.delta, dist, cfg.capacity));
  }
  server.start(0.0);

  // --- arrivals: generators (one per class, independent streams), with an
  //     optional recording tee in front of the server, or a trace replay ---
  PSD_CHECK(record == nullptr || replay == nullptr,
            "cannot record and replay at once");
  RecordingSink recorder(&server);
  RequestSink& sink = record != nullptr
                          ? static_cast<RequestSink&>(recorder)
                          : static_cast<RequestSink&>(server);
  std::vector<std::unique_ptr<RequestGenerator>> gens;
  std::unique_ptr<TracePlayer> player;
  if (replay != nullptr) {
    player = std::make_unique<TracePlayer>(sim, *replay, server);
    if (!replay->empty()) player->start(replay->front().time);
  } else {
    gens.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      gens.push_back(std::make_unique<RequestGenerator>(
          sim, run_rng.fork(i), static_cast<ClassId>(i),
          scenario_arrivals(cfg, lambdas[i], unit), dist, sink));
      gens.back()->start(0.0);
    }
  }

  // --- run: warmup + measurement ---
  const Time horizon = (cfg.warmup_tu + cfg.measure_tu) * unit;
  sim.run_until(horizon);
  for (auto& g : gens) g->stop();
  server.finalize();
  if (record != nullptr) *record = recorder.take_trace();

  // --- collect ---
  RunResult out;
  out.time_unit = unit;
  out.submitted = server.submitted();
  out.reallocations = server.reallocations();
  out.system_slowdown = server.metrics().system_slowdown();
  out.records = server.metrics().records();
  out.cls.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& m = server.metrics();
    out.cls[i].mean_slowdown = m.slowdown(static_cast<ClassId>(i)).mean();
    out.cls[i].mean_delay = m.delay(static_cast<ClassId>(i)).mean();
    out.cls[i].completed = m.completed(static_cast<ClassId>(i));
    out.cls[i].windows = m.windows(static_cast<ClassId>(i));
  }
  out.settle_tu = settle_times(cfg, out);
  if (cfg.admission.active()) {
    out.shed.resize(n);
    out.offered.resize(n);
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.shed[i] = server.rejected(static_cast<ClassId>(i));
      out.offered[i] = server.offered(static_cast<ClassId>(i));
      done += out.cls[i].completed;
    }
    out.goodput_tu = static_cast<double>(done) / cfg.measure_tu;
  }
  return out;
}

}  // namespace

RunResult run_scenario(const ScenarioConfig& cfg, std::uint64_t run_index) {
  cfg.validate();
  return cfg.cluster_nodes > 1 ? run_cluster_scenario(cfg, run_index)
                               : run_single_node_scenario(cfg, run_index);
}

RunResult run_scenario_recorded(const ScenarioConfig& cfg, Trace& out_trace,
                                std::uint64_t run_index) {
  cfg.validate();
  PSD_REQUIRE(cfg.cluster_nodes == 1,
              "trace recording requires a single-node scenario");
  return run_single_node_scenario(cfg, run_index, &out_trace, nullptr);
}

RunResult run_scenario_replayed(const ScenarioConfig& cfg,
                                const Trace& trace) {
  cfg.validate();
  PSD_REQUIRE(cfg.cluster_nodes == 1,
              "trace replay requires a single-node scenario");
  return run_single_node_scenario(cfg, 0, nullptr, &trace);
}

ReplicatedResult aggregate_replications(const ScenarioConfig& cfg,
                                        const std::vector<RunResult>& results) {
  PSD_REQUIRE(!results.empty(), "need at least one run");
  const std::size_t n = cfg.num_classes();
  ReplicatedResult agg;
  agg.runs = results.size();

  // Across-run means of per-class mean slowdowns.
  agg.slowdown.resize(n);
  std::vector<std::vector<double>> per_class(n);
  std::vector<double> sys;
  for (const auto& r : results) {
    for (std::size_t i = 0; i < n; ++i) {
      if (r.cls[i].completed > 0) {
        per_class[i].push_back(r.cls[i].mean_slowdown);
      }
      agg.completed_total += r.cls[i].completed;
    }
    if (std::isfinite(r.system_slowdown)) sys.push_back(r.system_slowdown);
  }
  for (std::size_t i = 0; i < n; ++i) {
    agg.slowdown[i] = mean_confidence(per_class[i]);
  }
  agg.system_slowdown = mean_confidence(sys).mean;

  // Long-timescale achieved ratios.
  agg.mean_ratio.assign(n, kNaN);
  if (agg.slowdown[0].mean > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      agg.mean_ratio[i] = agg.slowdown[i].mean / agg.slowdown[0].mean;
    }
  }

  // Windowed ratio percentiles (class j vs class 0), pooled over runs.
  agg.ratio.resize(n >= 1 ? n - 1 : 0);
  for (std::size_t j = 1; j < n; ++j) {
    std::vector<double> ratios;
    for (const auto& r : results) {
      const auto& w0 = r.cls[0].windows;
      const auto& wj = r.cls[j].windows;
      const std::size_t m = std::min(w0.size(), wj.size());
      for (std::size_t w = 0; w < m; ++w) {
        if (w0[w].count > 0 && wj[w].count > 0 && w0[w].mean > 0.0) {
          ratios.push_back(wj[w].mean / w0[w].mean);
        }
      }
    }
    RatioPercentiles rp;
    rp.windows = ratios.size();
    if (!ratios.empty()) {
      const auto ps = percentiles_of(ratios, {0.05, 0.5, 0.95});
      rp.p5 = ps[0];
      rp.p50 = ps[1];
      rp.p95 = ps[2];
      double s = 0.0;
      for (double x : ratios) s += x;
      rp.mean = s / static_cast<double>(ratios.size());
    }
    agg.ratio[j - 1] = rp;
  }

  // Transient response: across-run mean of the finite settle times and the
  // fraction of runs that settled (profiled scenarios only).
  if (std::isfinite(cfg.profile.step_time()) && n >= 2) {
    agg.settle_mean_tu.assign(n - 1, kNaN);
    agg.settle_rate.assign(n - 1, 0.0);
    agg.settle_p75_tu.assign(n - 1, kNaN);
    for (std::size_t j = 0; j + 1 < n; ++j) {
      std::vector<double> settled_times;
      std::size_t seen = 0;
      for (const auto& r : results) {
        if (j >= r.settle_tu.size()) continue;
        ++seen;
        if (std::isfinite(r.settle_tu[j])) {
          settled_times.push_back(r.settle_tu[j]);
        }
      }
      if (seen == 0) continue;
      agg.settle_rate[j] = static_cast<double>(settled_times.size()) /
                           static_cast<double>(seen);
      if (settled_times.empty()) continue;
      double sum = 0.0;
      for (double t : settled_times) sum += t;
      agg.settle_mean_tu[j] = sum / static_cast<double>(settled_times.size());
      // p75 over ALL runs, unsettled ones ranking as +inf: the smallest
      // bound that 75% of runs met, NaN when fewer than 75% settled.
      std::sort(settled_times.begin(), settled_times.end());
      const std::size_t rank =
          static_cast<std::size_t>(std::ceil(0.75 * static_cast<double>(seen)));
      if (rank >= 1 && rank <= settled_times.size()) {
        agg.settle_p75_tu[j] = settled_times[rank - 1];
      }
    }
  }

  // Overload-regime aggregation: pooled per-class shed rates, mean goodput,
  // and worst windowed-median ratio error over surviving classes.
  if (cfg.admission.active()) {
    agg.shed_rate.assign(n, kNaN);
    std::vector<std::uint64_t> shed(n, 0), offered(n, 0);
    double good = 0.0;
    std::size_t good_n = 0;
    for (const auto& r : results) {
      for (std::size_t i = 0; i < n && i < r.shed.size(); ++i) {
        shed[i] += r.shed[i];
        offered[i] += r.offered[i];
      }
      if (std::isfinite(r.goodput_tu)) {
        good += r.goodput_tu;
        ++good_n;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      agg.shed_total += shed[i];
      if (offered[i] > 0) {
        agg.shed_rate[i] = static_cast<double>(shed[i]) /
                           static_cast<double>(offered[i]);
      }
    }
    if (good_n > 0) agg.goodput_tu = good / static_cast<double>(good_n);
    for (std::size_t j = 1; j < n; ++j) {
      const auto& rp = agg.ratio[j - 1];
      if (rp.windows == 0) continue;  // class fully shed: not a survivor
      const double target = cfg.delta[j] / cfg.delta[0];
      const double err = std::abs(rp.p50 / target - 1.0);
      if (!(err <= agg.survivor_ratio_err)) {  // NaN-aware max
        agg.survivor_ratio_err = err;
      }
    }
    if (n == 1) agg.survivor_ratio_err = 0.0;
  }

  // eq.-18 predictions (only meaningful for the PSD allocators with a
  // distribution whose E[1/X] exists).
  agg.expected.assign(n, kNaN);
  agg.expected_system = kNaN;
  if (cfg.allocator == AllocatorKind::kPsd ||
      cfg.allocator == AllocatorKind::kAdaptivePsd) {
    try {
      const SamplerVariant dist = make_sampler(cfg.size_dist);
      agg.expected = expected_psd_slowdowns(cfg.true_lambdas(), cfg.delta,
                                            dist, cfg.capacity);
      agg.expected_system = expected_system_slowdown(
          cfg.true_lambdas(), cfg.delta, dist, cfg.capacity);
    } catch (const std::exception&) {
      // leave NaNs (e.g. E[1/X] undefined)
    }
  }
  return agg;
}

ReplicatedResult run_replications(const ScenarioConfig& cfg, std::size_t runs,
                                  bool parallel) {
  PSD_REQUIRE(runs > 0, "need at least one run");
  std::vector<RunResult> results(runs);

  if (parallel && runs > 1) {
    const std::size_t workers = std::min<std::size_t>(
        runs, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::future<void>> futs;
    futs.reserve(workers);
    std::atomic<std::size_t> next{0};
    for (std::size_t w = 0; w < workers; ++w) {
      futs.push_back(std::async(std::launch::async, [&] {
        for (;;) {
          const std::size_t r = next.fetch_add(1);
          if (r >= runs) return;
          results[r] = run_scenario(cfg, r);
        }
      }));
    }
    for (auto& f : futs) f.get();
  } else {
    for (std::size_t r = 0; r < runs; ++r) results[r] = run_scenario(cfg, r);
  }
  return aggregate_replications(cfg, results);
}

std::size_t default_runs(std::size_t paper_default) {
  if (const char* env = std::getenv("PSD_RUNS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  if (const char* fast = std::getenv("PSD_FAST")) {
    if (std::string(fast) == "1") return 8;
  }
  return paper_default;
}

}  // namespace psd
