// cluster_shed: one rt::ClusterRuntime of 2 nodes x 1 shard behind JSQ(2),
// fed by its own single load-generator thread at rho = 1.5 per shard with a
// 2 us mean service time (1.5M req/s offered) and a delta-aware:0.8 gate on
// every shard.  Per-request dispatch, gate verdicts at ring pop, staging
// and the embedded sim carry the cost; it is the only workload that runs
// src/cluster and src/admission.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "cluster/cluster_runtime.hpp"
#include "rt_ledger.hpp"
#include "workloads.hpp"

namespace psdbench {

namespace {

using psd::rt::ClusterRuntime;

constexpr double kWarmup = 1.0;
/// The last reading is taken this long before the generator stops.
constexpr double kReadMargin = 0.05;
constexpr double kGateThreshold = 0.8;

psd::rt::ClusterRtConfig make_config(const Options& opt, bool traced) {
  psd::rt::ClusterRtConfig c;
  psd::rt::RtConfig& n = c.node;
  n.delta = {1.0, 2.0};
  n.load = 1.5;
  n.size_dist = psd::DistSpec::uniform(0.5, 1.5);
  n.mean_service_seconds = 2e-6;
  n.shards = 1;
  n.loadgens = 1;
  n.admission = psd::AdmissionSpec::parse("delta-aware:0.8");
  n.warmup = kWarmup;
  n.duration = kWarmup + opt.seconds;
  n.seed = opt.seed;
  n.obs.enabled = true;
  n.obs.profile = traced;
  c.nodes = 2;
  c.assignment = psd::AssignmentSpec(psd::AssignmentPolicy::kJsq, 2);
  return c;
}

struct Run {
  psd::rt::ClusterReport report;
  RtReading a, b;
  std::vector<RtReading> readings;
  std::vector<psd::rt::ShardSnapshot> final_snapshots;
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< Last set-up start -> report.
};

Run run_once(const Options& opt, bool traced) {
  const psd::rt::ClusterRtConfig cfg = make_config(opt, traced);
  Run out;
  std::unique_ptr<ClusterRuntime> cluster;
  const SetupTiming setup = timed_setups(cluster, [&] {
    return std::make_unique<ClusterRuntime>(cfg, psd::rt::SteadyClock{});
  });
  out.setup_s = setup.median_s;

  RtTap tap;
  for (std::size_t i = 0; i < cluster->nodes(); ++i) {
    psd::rt::Runtime& node = cluster->node(i).runtime();
    for (std::size_t s = 0; s < node.num_shards(); ++s) {
      tap.shards.push_back(&node.shard(s));
    }
    tap.controllers.push_back(&node.controller_mut());
  }
  RtObserver obs(tap, cluster->clock(), kWarmup,
                 cfg.node.duration - kReadMargin, 1.0, std::nullopt);
  out.report = cluster->run();
  out.readings = obs.join();
  out.a = out.readings.front();
  out.b = out.readings.back();
  out.wall_s = wall_seconds() - setup.last_start;
  for (psd::rt::Shard* s : tap.shards) {
    out.final_snapshots.push_back(s->snapshot());
  }
  return out;
}

void check_and_count(Result& r, const Run& run) {
  const psd::rt::ClusterReport& rep = run.report;
  std::uint64_t dispatched = 0;
  std::uint64_t completions = 0;
  for (const auto& n : rep.node) {
    dispatched += n.dispatched;
    completions += n.rt.completed_all;
  }
  r.check(rep.produced == dispatched,
          "produced " + std::to_string(rep.produced) + " != dispatched " +
              std::to_string(dispatched));
  const std::uint64_t accounted = completions + rep.dropped + rep.shed_total +
                                  rep.outstanding + rep.lost_to_kill;
  r.check(dispatched == accounted,
          "dispatched " + std::to_string(dispatched) + " != completions " +
              std::to_string(completions) + " + drops " +
              std::to_string(rep.dropped) + " + shed " +
              std::to_string(rep.shed_total) + " + unfinished " +
              std::to_string(rep.outstanding) + " + lost " +
              std::to_string(rep.lost_to_kill));
  r.attempted += rep.produced;
  r.failed += rep.dropped + rep.outstanding + rep.lost_to_kill;
}

double dispatch_skew(const psd::rt::ClusterReport& rep) {
  std::uint64_t total = 0;
  std::uint64_t most = 0;
  for (const auto& n : rep.node) {
    total += n.dispatched;
    most = std::max(most, n.dispatched);
  }
  return static_cast<double>(most) / static_cast<double>(total) *
         static_cast<double>(rep.node.size());
}

double cumulative_ratio(const psd::rt::ClusterReport& rep) {
  return rep.cls[1].mean_slowdown / rep.cls[0].mean_slowdown;
}

void note_jsq_defect(Result& r, const Run& run,
                     const psd::rt::ClusterRtConfig& cfg) {
  const RtWindowFigures f = window_figures(run.a, run.b);
  const double gate_rps = kGateThreshold * static_cast<double>(cfg.nodes) *
                          static_cast<double>(cfg.node.shards) /
                          cfg.node.mean_service_seconds;
  char line[320];
  std::snprintf(line, sizeof(line),
                "known defect (JSQ(2) under a gate): %.1f%% of dispatches on "
                "one node, windowed ratio %.3f and cumulative ratio %.3f vs "
                "target 2, goodput %.0f req/s = %.3f of the gate's %.0f",
                50.0 * dispatch_skew(run.report),
                run.report.cls[1].window_ratio_p50,
                cumulative_ratio(run.report), f.goodput_rps,
                f.goodput_rps / gate_rps, gate_rps);
  r.note(line);
}

}  // namespace

Result run_cluster_shed(const Options& opt) {
  Result r;
  const psd::rt::ClusterRtConfig cfg = make_config(opt, false);
  const Run run = run_once(opt, /*traced=*/false);
  const RtRunFigures f = run_figures(run.readings);
  check_and_count(r, run);
  if (!opt.trace) {
    note_jsq_defect(r, run, cfg);
    r.set("goodput_rps", f.goodput_rps);
    r.set("cpu_ns_per_req", f.cpu_ns_per_req);
    r.set("ingress_p50_us", f.ingress_p50_us);
    r.set("ratio_attainment",
          attainment(run.report.cls[1].window_ratio_p50,
                     run.report.cls[1].target_ratio));
    r.set("points_per_s", 1.0 / run.wall_s);
    r.set("setup_s", run.setup_s);
    return r;
  }

  const Run tr = run_once(opt, /*traced=*/true);
  check_and_count(r, tr);
  note_jsq_defect(r, tr, cfg);
  const psd::rt::ClusterReport& rep = tr.report;
  // Dispatches inside the window: every routed request was either popped
  // or dropped at the ring.
  const double window_dispatches =
      static_cast<double>((tr.b.popped + tr.b.dropped) -
                          (tr.a.popped + tr.a.dropped));
  const double dispatch_total = rep.mean_dispatch_ns * window_dispatches;
  set_rt_ledger(r, tr.a, tr.b, dispatch_total);
  const RtWindowFigures tf = window_figures(tr.a, tr.b);
  const double traced_cpu = run_figures(tr.readings).cpu_ns_per_req;
  r.set("obs.trace_overhead", traced_cpu / f.cpu_ns_per_req - 1.0);
  r.note("cpu ns/req, median over windows: untraced " +
         std::to_string(f.cpu_ns_per_req) + ", traced " +
         std::to_string(traced_cpu));
  r.set("cluster.dispatch_ns", rep.mean_dispatch_ns);
  r.set("cluster.dispatch_ns_per_req",
        dispatch_total / static_cast<double>(tf.completed));
  r.set("cluster.dispatch_skew", dispatch_skew(rep));
  r.set("cluster.ratio_attainment",
        attainment(rep.cls[1].window_ratio_p50, rep.cls[1].target_ratio));
  r.set("cluster.node_ratio_err_max", rep.cross_node_ratio_error);
  r.set("cluster.rebalances", static_cast<double>(rep.rebalances));
  // Node controllers run rate-less; the global controller's reallocations
  // are the ones that reach the shards.
  r.set("rt.reallocations", static_cast<double>(rep.rebalances));
  r.set("rt.window_ratio_p50", rep.cls[1].window_ratio_p50);
  r.set("rt.slowdown_mean.c1", rep.cls[0].mean_slowdown);
  r.set("rt.slowdown_mean.c2", rep.cls[1].mean_slowdown);
  r.set("rt.drop_share",
        static_cast<double>(rep.dropped) / static_cast<double>(rep.produced));
  r.set("rt.ingress_p99_us",
        ingress_wait_delta(tr.a, tr.b).quantile(0.99) * 1e6);
  // The dispatcher's submit is Shard::submit under the ring_push slot.
  const double push_ticks = static_cast<double>(
      tr.b.prof.ticks[psd::obs::kProfRingPush] -
      tr.a.prof.ticks[psd::obs::kProfRingPush]);
  const double pushes = static_cast<double>(
      tr.b.prof.count[psd::obs::kProfRingPush] -
      tr.a.prof.count[psd::obs::kProfRingPush]);
  r.set("rt.submit_ns", push_ticks / std::max(1.0, pushes) * 1e9 /
                            psd::obs::ticks_per_second());
  for (std::size_t c = 0; c < 2; ++c) {
    std::uint64_t shed = 0;
    std::uint64_t offered = 0;
    for (const auto& snap : tr.final_snapshots) {
      shed += snap.sheds_cls[c];
      offered += snap.sheds_cls[c] + snap.accepted[c];
    }
    r.set("admission.shed_share.c" + std::to_string(c + 1),
          static_cast<double>(shed) / static_cast<double>(offered));
  }

  ProbeInput in;
  in.delta = cfg.node.delta;
  in.lambda = cfg.node.lambdas();
  for (double& l : in.lambda) l *= static_cast<double>(cfg.nodes);
  in.capacity = cfg.node.shard_capacity() *
                static_cast<double>(cfg.node.shards * cfg.nodes);
  in.sizes = cfg.node.size_dist;
  in.seed = opt.seed;
  run_layer_probes(r, in);
  return r;
}

}  // namespace psdbench
