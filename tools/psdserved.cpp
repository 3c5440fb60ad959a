// psdserved — real-time serving front end for the PSD stack, from one node
// to an N-node cluster.
//
//   psdserved --classes 1,2 --load 0.6 --duration 3
//   psdserved --classes 1,2,4 --load 60 --shards 2 --loadgens 2 --pin
//   psdserved --replay-trace arrivals.trace --classes 1,2
//   psdserved --check-ratio-tol 0.15 --bench-out BENCH_rt.json   (CI smoke)
//   psdserved --nodes 4 --policy jsq2 --kill-node 3 --kill-at 1.5 --duration 4
//
// Unlike psdsim (discrete-event, simulated time), this drives src/rt: real
// load-generator / shard / controller threads against the wall clock.  Per
// class it prints completions, measured mean slowdown, achieved vs target
// slowdown ratio, and the ingress transit latency; --check-ratio-tol turns
// the run into a pass/fail differentiation smoke test.  With --nodes N >= 2
// it runs N such nodes behind the src/cluster dispatcher (the task-
// assignment policies the simulator validates), steered by one global
// controller that re-runs eq. 17 against the alive cluster capacity —
// holding per-class slowdown ratios cluster-wide, including through a
// mid-run node kill.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "psd.hpp"
#include "../bench/json_bench.hpp"
#include "cli_util.hpp"
#include "cluster/cluster_runtime.hpp"

namespace {

using namespace psd;

const char* kUsage =
    R"(psdserved — wall-clock PSD serving runtime (src/rt, src/cluster)

options:
  --classes D1,D2[,...]   differentiation parameters, non-decreasing
                          (default 1,2)
  --load F                per-shard utilization: fraction or percent
                          (default 0.6)
  --shares S1,S2[,...]    per-class load shares, sum 1       (default equal)
  --dist SPEC             service-time distribution  (default bp:1.5,0.1,100)
  --arrivals SPEC         poisson | det | mmpp:burst[,sojourn[,duty]]
                          (default poisson)
  --profile SPEC          nonstationary load modulation, times in SECONDS:
                          ramp:t0,t1,f0,f1 | sin:period,amp | spike:t0,dur,mag
                          (the loadgen threads thin their arrival streams to
                           follow it on the wall clock)
  --converge-tol F        settle-band half-width for the re-convergence
                          metric                             (default 0.25)
  --admission SPEC        ring-pop admission gate (lifts the load < 100% cap):
                          admit-all | util[:thresh] | slowdown-budget[:B] |
                          delta-aware[:thresh] | token-bucket[:thresh[,burst]]
  --shards N              worker shards (threads) per node   (default 1)
  --loadgens N            load-generator threads             (default 1)
  --duration SEC          total run length                   (default 3)
  --warmup SEC            excluded from metrics              (default 0.5)
  --mean-service-us U     mean request service time, usec    (default 100)
  --period-ms MS          controller reallocation period     (default 50)
  --allocator NAME        psd | adaptive | equal | loadprop | none
                          (default adaptive)
  --seed N                master seed                        (default fixed)
  --pin                   pin threads to cores (best effort)
  --replay-trace FILE     drive arrivals from a recorded trace (see psdsim
                          --record-trace) instead of synthetic generators
  --trace-scale F         seconds per recorded time unit; needs --replay-trace
                          (default mean-service-us / E[X]: replay a simulator
                          trace at the runtime's native speed)
  --check-ratio-tol F     exit 1 unless max achieved-vs-target slowdown
                          ratio error <= F
  --check-goodput FRAC    exit 1 unless goodput >= FRAC x aggregate capacity
                          (shards / mean-service; needs --admission)
  --check-shed-skew TOL   exit 1 unless every class's shed rate is within
                          TOL of the overall shed rate (needs --admission)
  --bench-out FILE        append a JSONL perf record (suite "rt")

observability (src/obs; all imply --telemetry):
  --telemetry             collect live per-shard histograms + controller
                          decision trace; report gains slowdown percentiles
  --stats-out FILE        stream timestamped stats JSONL while running
                          (schema psd.rt.stats.v1, see src/obs/README.md)
  --stats-interval SEC    sampling period of the stream     (default 0.5)
  --metrics-port N        serve Prometheus text on GET
                          http://127.0.0.1:N/metrics while running
  --obs-profile           arm rdtsc self-profiling timers (drain, ring ops,
                          allocator tick) aggregated into the stream
  --trace-out FILE        write sampled request-lifecycle spans as Chrome
                          trace-event JSON (schema psd.rt.trace.v1; open in
                          chrome://tracing or Perfetto)
  --trace-sample N        trace every Nth request per class, power of two
                          (default 64; 1 = every request); needs
                          --trace-out or --slo
  --slo RULES             SLO watchdog rules, e.g. "ratio_err>0.5,goodput<1e4"
                          (metrics: ratio_err goodput shed_rate settle; ops
                          > <; evaluated once per stats interval, armed
                          after warmup); breach dumps a flight-recorder
                          bundle (schema psd.rt.flight.v1)
  --slo-dump PREFIX       flight bundle path prefix (default psd-flight;
                          files are PREFIX-t<time>.json); needs --slo
  (--stats-interval and --obs-profile need a sink: --stats-out,
   --metrics-port, --trace-out or --slo)

cluster (--nodes N >= 2):
  --nodes N               serving nodes                      (default 1)
  --policy SPEC           assignment: random | rr | lwl | sita | jsq[d]
                          (default rr; jsq2 = least-loaded of 2 sampled)
  --rebalance-ms MS       global reallocation period         (default 50)
  --kill-node I           remove node I mid-run (0-based; needs --kill-at)
  --kill-at SEC           when to remove it (dispatch stops, its metrics
                          freeze, capacity shrinks, cluster re-converges)
  At N >= 2, --load stays per-SHARD utilization (total offered load scales
  with --nodes x --shards); --allocator selects the GLOBAL allocator (node
  controllers run rate-less); --check-ratio-tol gates the cluster-wide
  windowed-median error, plus a finite re-settle when a kill is scheduled
  (per-node error is reported but not gated); --stats-out streams schema
  psd.cluster.stats.v1; --bench-out appends a suite "cluster" record.
  The cluster starts no node exporter, span sink, watchdog or trace replay
  and pins no thread, so --metrics-port, --slo, --slo-dump, --trace-sample,
  --trace-out, --replay-trace, --trace-scale, --check-goodput,
  --check-shed-skew, --telemetry, --obs-profile, --stats-interval and
  --pin exit 2 there; the cluster flags above exit 2 at N = 1.

  --help                  this text
)";

/// Flags only a single node honours, and flags only a cluster honours.
const std::vector<std::string> kNodeOnly = {
    "--metrics-port", "--slo",           "--slo-dump",      "--trace-sample",
    "--trace-out",    "--replay-trace",  "--trace-scale",   "--check-goodput",
    "--check-shed-skew", "--telemetry",  "--obs-profile",   "--stats-interval",
    "--pin"};
const std::vector<std::string> kClusterOnly = {"--policy", "--rebalance-ms",
                                               "--kill-node", "--kill-at"};

[[noreturn]] void usage(int code) {
  std::cout << kUsage;
  std::exit(code);
}

/// The per-node RtConfig grammar.  `value` consumes the flag's argument
/// (throwing CliError when it is missing).  Returns false when `arg` is not
/// one of these flags.
bool parse_rt_flag(const std::string& arg,
                   const std::function<std::string()>& value,
                   rt::RtConfig& cfg) {
  using namespace cli;
  if (arg == "--classes")
    cfg.delta = parse_list(arg, value(), "--classes 1,2,4");
  else if (arg == "--load")
    cfg.load = normalize_load(arg, parse_double(arg, value(), "--load 0.6"));
  else if (arg == "--shares")
    cfg.load_share = parse_list(arg, value(), "--shares 0.7,0.3");
  else if (arg == "--dist")
    cfg.size_dist = parse_dist(arg, value());
  else if (arg == "--arrivals")
    cfg.arrivals = parse_arrival_spec(arg, value());
  else if (arg == "--profile")
    cfg.profile = parse_profile(arg, value());
  else if (arg == "--admission")
    cfg.admission = parse_admission(arg, value());
  else if (arg == "--converge-tol")
    cfg.converge_tol = parse_double(arg, value(), "--converge-tol 0.25");
  else if (arg == "--shards")
    cfg.shards =
        static_cast<std::size_t>(parse_uint(arg, value(), "--shards 2"));
  else if (arg == "--loadgens")
    cfg.loadgens =
        static_cast<std::size_t>(parse_uint(arg, value(), "--loadgens 2"));
  else if (arg == "--duration")
    cfg.duration = parse_double(arg, value(), "--duration 3");
  else if (arg == "--warmup")
    cfg.warmup = parse_double(arg, value(), "--warmup 0.5");
  else if (arg == "--mean-service-us")
    cfg.mean_service_seconds =
        parse_double(arg, value(), "--mean-service-us 100") * 1e-6;
  else if (arg == "--period-ms")
    cfg.controller_period =
        parse_double(arg, value(), "--period-ms 50") * 1e-3;
  else if (arg == "--allocator")
    cfg.allocator = parse_allocator(arg, value());
  else if (arg == "--seed")
    cfg.seed = parse_uint(arg, value(), "--seed 42");
  else if (arg == "--pin")
    cfg.pin_threads = true;
  else if (arg == "--telemetry")
    cfg.obs.enabled = true;
  else if (arg == "--stats-interval")
    cfg.obs.stats_interval =
        parse_double(arg, value(), "--stats-interval 0.5");
  else if (arg == "--metrics-port") {
    cfg.obs.metrics_port =
        static_cast<int>(parse_uint(arg, value(), "--metrics-port 9464"));
    cfg.obs.enabled = true;
  } else if (arg == "--obs-profile") {
    cfg.obs.profile = true;
    cfg.obs.enabled = true;
  } else if (arg == "--trace-sample") {
    cfg.obs.trace_sample_period = static_cast<unsigned>(
        parse_uint(arg, value(), "--trace-sample 64"));
  } else if (arg == "--slo") {
    cfg.obs.slo_rules = value();
    cfg.obs.enabled = true;
  } else if (arg == "--slo-dump") {
    cfg.obs.flight_prefix = value();
  } else if (arg == "--trace-out") {
    cfg.obs.trace_path = value();
    cfg.obs.enabled = true;
  } else {
    return false;
  }
  return true;
}

struct Options {
  std::string replay_path;
  std::string bench_out;
  double trace_scale = 0.0;  // 0 = derive from mean_service / E[X]
  double check_tol = -1.0;
  double check_goodput = -1.0;
  double check_shed_skew = -1.0;
};

int serve_node(rt::RtConfig cfg, const Options& opt) {
  const SamplerVariant dist = make_sampler(cfg.size_dist);

  std::unique_ptr<rt::Runtime> runtime;
  if (!opt.replay_path.empty()) {
    std::ifstream in(opt.replay_path);
    if (!in) {
      std::cerr << "error: cannot open trace '" << opt.replay_path << "'\n";
      return 2;
    }
    Trace trace = read_trace(in);
    const double scale = opt.trace_scale > 0.0
                             ? opt.trace_scale
                             : cfg.mean_service_seconds / dist.mean();
    // Load generation stops at --duration; a trace cut short there would
    // silently compare different arrival sets across the sim and rt
    // stacks, so stretch the run to cover every recorded entry.
    if (!trace.empty()) {
      const double span = (trace.back().time - trace.front().time) * scale;
      if (cfg.duration < span + 0.1) {
        cfg.duration = span + 0.1;
        std::cout << "note: extending --duration to " << cfg.duration
                  << "s to cover the full trace\n";
      }
    }
    std::cout << "replaying " << trace.size() << " arrivals from "
              << opt.replay_path << " (scale " << scale << " s/unit)\n";
    runtime = std::make_unique<rt::Runtime>(cfg, rt::SteadyClock(),
                                            std::move(trace), scale);
  } else {
    runtime = std::make_unique<rt::Runtime>(cfg, rt::SteadyClock());
  }

  std::cout << "serving " << cfg.delta.size() << " classes at load "
            << cfg.load << " for " << cfg.duration << "s (warmup "
            << cfg.warmup << "s): " << cfg.shards << " shard(s), "
            << cfg.loadgens << " loadgen(s), allocator "
            << runtime->controller().allocator_name() << ", E[X]="
            << Table::fmt(dist.mean(), 4) << " in "
            << cfg.mean_service_seconds * 1e6 << "us";
  if (cfg.admission.active()) {
    std::cout << ", admission " << cfg.admission.name();
  }
  std::cout << "...\n\n";

  const rt::RtReport r = runtime->run();

  const bool gated = cfg.admission.active();
  std::vector<std::string> cols = {"class", "delta", "completed", "dropped",
                                   "S measured", "ratio", "ratio p50",
                                   "target", "err%", "ingress us"};
  if (gated) {
    cols.insert(cols.begin() + 4, {"shed", "shed%"});
  }
  if (cfg.obs.enabled) {
    cols.insert(cols.end(), {"S p50", "S p95", "S p99"});
  }
  Table t(cols);
  for (std::size_t c = 0; c < r.cls.size(); ++c) {
    const auto& cl = r.cls[c];
    const double err =
        c > 0 ? (cl.window_ratio_p50 / cl.target_ratio - 1.0) * 100.0 : 0.0;
    std::vector<std::string> row = {
        std::to_string(c + 1), Table::fmt(cl.delta, 2),
        std::to_string(cl.completed), std::to_string(cl.dropped),
        Table::fmt(cl.mean_slowdown, 3),
        Table::fmt(cl.achieved_ratio, 3),
        c > 0 ? Table::fmt(cl.window_ratio_p50, 3) : "1.000",
        Table::fmt(cl.target_ratio, 2),
        c > 0 ? Table::fmt(err, 1) : "-",
        Table::fmt(cl.mean_ingress_wait * 1e6, 1)};
    if (gated) {
      row.insert(row.begin() + 4,
                 {std::to_string(cl.shed),
                  Table::fmt(cl.shed_rate * 100.0, 1)});
    }
    if (cfg.obs.enabled) {
      row.insert(row.end(), {Table::fmt(cl.slowdown_p50, 3),
                             Table::fmt(cl.slowdown_p95, 3),
                             Table::fmt(cl.slowdown_p99, 3)});
    }
    t.add_row(row);
  }
  t.print(std::cout);
  std::cout << "ingress us includes the generators' own lateness (due time "
               "to emission): "
            << Table::fmt(r.gen_late_mean * 1e6, 1) << " us mean\n";

  std::cout << "\nthroughput: " << Table::fmt(r.requests_per_sec, 0)
            << " req/s  (produced " << r.produced << ", completed "
            << r.completed_all << ", dropped " << r.dropped
            << ", unfinished " << r.outstanding << ")\n";
  std::cout << "controller: " << r.controller_ticks << " ticks, "
            << r.reallocations << " reallocations; " << r.drains
            << " shard drains over " << Table::fmt(r.elapsed, 2) << "s\n";
  if (runtime->exporter() != nullptr) {
    std::cout << "telemetry: " << runtime->exporter()->samples()
              << " stats samples";
    if (!cfg.obs.stats_path.empty()) {
      std::cout << " -> " << cfg.obs.stats_path;
    }
    if (cfg.obs.metrics_port > 0) {
      std::cout << " (served /metrics on port " << cfg.obs.metrics_port
                << ")";
    }
    std::cout << "\n";
    if (!cfg.obs.trace_path.empty()) {
      std::uint64_t span_drops = 0;
      for (std::size_t i = 0; i < runtime->num_shards(); ++i) {
        span_drops += runtime->shard(i).spans_dropped();
      }
      std::cout << "tracing: " << runtime->exporter()->trace_events()
                << " events (1-in-" << cfg.obs.trace_sample_period
                << " per class, " << span_drops
                << " ring drops) -> " << cfg.obs.trace_path << "\n";
    }
    if (runtime->watchdog() != nullptr) {
      const obs::Watchdog& wd = *runtime->watchdog();
      std::cout << "watchdog [" << cfg.obs.slo_rules << "]: "
                << wd.total_breaches() << " rule breaches, " << wd.dumps()
                << " flight dumps";
      if (wd.dumps() > 0) {
        std::cout << " (last: " << wd.last_flight_path() << ")";
      }
      std::cout << "\n";
    }
  }
  std::cout << "max ratio error: " << Table::fmt(r.max_ratio_error * 100, 1)
            << "% (of means), "
            << Table::fmt(r.max_window_ratio_error * 100, 1)
            << "% (windowed median)\n";
  const double capacity_rps =
      static_cast<double>(cfg.shards) / cfg.mean_service_seconds;
  if (gated) {
    std::cout << "admission " << cfg.admission.name() << ": shed "
              << r.shed_total << " (ring drops " << r.dropped
              << "), goodput " << Table::fmt(r.goodput, 0) << " req/s of "
              << Table::fmt(capacity_rps, 0) << " capacity ("
              << Table::fmt(r.goodput / capacity_rps * 100.0, 1)
              << "%), survivor ratio error "
              << Table::fmt(r.survivor_window_ratio_error * 100.0, 1)
              << "%\n";
  }
  if (cfg.profile.active()) {
    std::cout << "profile " << cfg.profile.name() << ": ";
    if (std::isfinite(cfg.profile.step_time())) {
      std::cout << "max ratio settle after t="
                << Table::fmt(cfg.profile.step_time(), 2) << "s: "
                << Table::fmt(r.max_settle_seconds, 2) << "s (band +-"
                << Table::fmt(cfg.converge_tol * 100, 0) << "%)\n";
    } else {
      std::cout << "periodic modulation (no settling point)\n";
    }
  }

  if (!opt.bench_out.empty()) {
    // json_num: a single-class run has no ratio to report (NaN) and a
    // zero-completion run no ns_per_op (inf) — both must render as null
    // or the record line poisons the whole file for bench_gate.py.
    using bench::json_num;
    std::ostringstream os;
    os << "{\"suite\":\"rt\",\"bench\":\"serve_load"
       << static_cast<int>(cfg.load * 100 + 0.5)
       << "\",\"impl\":\"psdserved\",\"shards\":" << cfg.shards
       << ",\"classes\":" << cfg.delta.size()
       << ",\"ns_per_op\":" << json_num(1e9 / r.requests_per_sec)
       << ",\"ops_per_sec\":" << json_num(r.requests_per_sec)
       << ",\"ratio_error\":" << json_num(r.max_ratio_error)
       << ",\"window_ratio_error\":" << json_num(r.max_window_ratio_error)
       << ",\"iters\":" << r.completed_all << "}\n";
    std::ofstream out(opt.bench_out, std::ios::app);
    out << os.str();
    std::cout << os.str();
  }

  if (opt.check_tol >= 0.0) {
    // Gate on the windowed median: robust to the single heavy-tail giants
    // that can swing a short run's cumulative class mean arbitrarily.
    if (!(r.max_window_ratio_error <= opt.check_tol)) {
      std::cerr << "RATIO CHECK FAILED: max windowed-median error "
                << r.max_window_ratio_error * 100 << "% > tolerance "
                << opt.check_tol * 100 << "%\n";
      return 1;
    }
    std::cout << "ratio check passed (<= " << opt.check_tol * 100 << "%)\n";
  }

  if (opt.check_goodput >= 0.0) {
    const double need = opt.check_goodput * capacity_rps;
    if (!(r.goodput >= need)) {
      std::cerr << "GOODPUT CHECK FAILED: " << Table::fmt(r.goodput, 0)
                << " req/s < " << Table::fmt(need, 0) << " ("
                << opt.check_goodput << " x " << Table::fmt(capacity_rps, 0)
                << " capacity)\n";
      return 1;
    }
    std::cout << "goodput check passed (>= " << opt.check_goodput
              << " x capacity)\n";
  }
  if (opt.check_shed_skew >= 0.0) {
    // Skew = worst per-class deviation from the mean per-class shed rate;
    // a fair-by-construction policy (util / admit-all) should show ~0.
    double rate_sum = 0.0;
    std::size_t rate_n = 0;
    for (const auto& cl : r.cls) {
      if (std::isfinite(cl.shed_rate)) {
        rate_sum += cl.shed_rate;
        ++rate_n;
      }
    }
    const double overall = rate_n > 0 ? rate_sum / rate_n : 0.0;
    double skew = 0.0;
    for (const auto& cl : r.cls) {
      if (std::isfinite(cl.shed_rate)) {
        skew = std::max(skew, std::fabs(cl.shed_rate - overall));
      }
    }
    if (!(skew <= opt.check_shed_skew)) {
      std::cerr << "SHED SKEW CHECK FAILED: max per-class deviation "
                << Table::fmt(skew * 100, 1) << "% > tolerance "
                << Table::fmt(opt.check_shed_skew * 100, 1) << "%\n";
      return 1;
    }
    std::cout << "shed skew check passed (<= "
              << Table::fmt(opt.check_shed_skew * 100, 1) << "%)\n";
  }
  return 0;
}

int serve_cluster(const rt::ClusterRtConfig& cfg, const Options& opt) {
  const SamplerVariant dist = make_sampler(cfg.node.size_dist);

  std::cout << "cluster: " << cfg.nodes << " node(s) x " << cfg.node.shards
            << " shard(s), assignment " << cfg.assignment.name()
            << ", rebalance every " << cfg.rebalance_period * 1e3
            << "ms\nserving " << cfg.node.delta.size()
            << " classes at per-shard load " << cfg.node.load << " for "
            << cfg.node.duration << "s (warmup " << cfg.node.warmup
            << "s), E[X]=" << Table::fmt(dist.mean(), 4) << " in "
            << cfg.node.mean_service_seconds * 1e6 << "us";
  if (cfg.kill_at >= 0.0) {
    std::cout << "; killing node " << cfg.kill_node << " at t="
              << cfg.kill_at << "s";
  }
  std::cout << "...\n\n";

  rt::ClusterRuntime cluster(cfg, rt::SteadyClock());
  const rt::ClusterReport r = cluster.run();

  Table per_class({"class", "delta", "completed", "dropped", "S measured",
                   "ratio p50", "target", "err%", "settle s"});
  for (std::size_t c = 0; c < r.cls.size(); ++c) {
    const auto& cl = r.cls[c];
    const double err =
        c > 0 ? (cl.window_ratio_p50 / cl.target_ratio - 1.0) * 100.0 : 0.0;
    per_class.add_row(
        {std::to_string(c + 1), Table::fmt(cl.delta, 2),
         std::to_string(cl.completed), std::to_string(cl.dropped),
         Table::fmt(cl.mean_slowdown, 3),
         c > 0 ? Table::fmt(cl.window_ratio_p50, 3) : "1.000",
         Table::fmt(cl.target_ratio, 2), c > 0 ? Table::fmt(err, 1) : "-",
         Table::fmt(cl.settle_seconds, 2)});
  }
  per_class.print(std::cout);
  std::cout << "\n";

  Table per_node({"node", "alive", "dispatched", "completed", "outstanding",
                  "node err%"});
  for (std::size_t i = 0; i < r.node.size(); ++i) {
    const auto& nd = r.node[i];
    per_node.add_row(
        {std::to_string(i), nd.alive ? "yes" : "KILLED",
         std::to_string(nd.dispatched),
         std::to_string(nd.rt.completed_total),
         std::to_string(nd.rt.outstanding),
         Table::fmt(nd.rt.max_window_ratio_error * 100.0, 1)});
  }
  per_node.print(std::cout);

  std::cout << "\nthroughput: produced " << r.produced << ", completed "
            << r.completed_total << " (post-warmup), dropped " << r.dropped
            << ", unfinished " << r.outstanding;
  if (r.lost_to_kill > 0) {
    std::cout << ", lost to kill " << r.lost_to_kill;
  }
  std::cout << " over " << Table::fmt(r.elapsed, 2) << "s\n";
  std::cout << "generator lateness (due time to emission): "
            << Table::fmt(r.gen_late_mean * 1e6, 1) << " us mean\n";
  std::cout << "global controller: " << r.global_ticks << " ticks, "
            << r.rebalances << " rebalances; dispatch "
            << Table::fmt(r.mean_dispatch_ns, 0) << " ns/req\n";
  std::cout << "ratio error (windowed median): cluster-wide "
            << Table::fmt(r.max_window_ratio_error * 100.0, 1)
            << "%, worst surviving node "
            << Table::fmt(r.cross_node_ratio_error * 100.0, 1) << "%\n";
  if (std::isfinite(r.settle_onset)) {
    std::cout << "re-convergence after t=" << Table::fmt(r.settle_onset, 2)
              << "s: max settle " << Table::fmt(r.max_settle_seconds, 2)
              << "s (band +-"
              << Table::fmt(cfg.node.converge_tol * 100, 0) << "%)\n";
  }

  if (!opt.bench_out.empty()) {
    using bench::json_num;
    std::ostringstream os;
    os << "{\"suite\":\"cluster\",\"bench\":\"serve_"
       << cfg.assignment.name() << "\",\"impl\":\"psdserved\",\"nodes\":"
       << cfg.nodes << ",\"classes\":" << cfg.node.delta.size()
       << ",\"ns_per_op\":" << json_num(r.mean_dispatch_ns)
       << ",\"window_ratio_error\":" << json_num(r.max_window_ratio_error)
       << ",\"cross_node_error\":" << json_num(r.cross_node_ratio_error)
       << ",\"iters\":" << r.completed_total << "}\n";
    std::ofstream out(opt.bench_out, std::ios::app);
    out << os.str();
    std::cout << os.str();
  }

  if (opt.check_tol >= 0.0) {
    if (!(r.max_window_ratio_error <= opt.check_tol)) {
      std::cerr << "CLUSTER RATIO CHECK FAILED: cluster-wide error "
                << r.max_window_ratio_error * 100 << "% > tolerance "
                << opt.check_tol * 100 << "%\n";
      return 1;
    }
    if (cfg.kill_at >= 0.0 && !std::isfinite(r.max_settle_seconds)) {
      std::cerr << "CLUSTER RATIO CHECK FAILED: ratios never re-settled "
                << "after the node kill\n";
      return 1;
    }
    std::cout << "cluster ratio check passed (<= " << opt.check_tol * 100
              << "%)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  rt::ClusterRtConfig cluster;
  cluster.nodes = 1;
  rt::RtConfig& cfg = cluster.node;
  Options opt;

  try {
    std::set<std::string> given;
    std::string stats_out;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      given.insert(arg);
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw cli::CliError(arg + " needs a value (see --help)");
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") usage(0);
      else if (arg == "--nodes")
        cluster.nodes = static_cast<std::size_t>(
            cli::parse_uint(arg, value(), "--nodes 4"));
      else if (arg == "--policy")
        cluster.assignment = cli::parse_assignment(arg, value());
      else if (arg == "--rebalance-ms")
        cluster.rebalance_period =
            cli::parse_double(arg, value(), "--rebalance-ms 50") * 1e-3;
      else if (arg == "--kill-node")
        cluster.kill_node = static_cast<std::size_t>(
            cli::parse_uint(arg, value(), "--kill-node 3"));
      else if (arg == "--kill-at")
        cluster.kill_at = cli::parse_double(arg, value(), "--kill-at 1.5");
      else if (arg == "--replay-trace") opt.replay_path = value();
      else if (arg == "--trace-scale")
        opt.trace_scale =
            cli::parse_double(arg, value(), "--trace-scale 1e-4");
      else if (arg == "--check-ratio-tol")
        opt.check_tol =
            cli::parse_double(arg, value(), "--check-ratio-tol 0.15");
      else if (arg == "--check-goodput")
        opt.check_goodput =
            cli::parse_double(arg, value(), "--check-goodput 0.9");
      else if (arg == "--check-shed-skew")
        opt.check_shed_skew =
            cli::parse_double(arg, value(), "--check-shed-skew 0.1");
      else if (arg == "--bench-out") opt.bench_out = value();
      else if (arg == "--stats-out") stats_out = value();
      else if (!parse_rt_flag(arg, value, cfg)) {
        std::cerr << "error: unknown option '" << arg << "'\n";
        usage(2);
      }
    }
    // Every flag takes effect at the chosen topology or exits here.
    const bool clustered = cluster.nodes != 1;
    for (const std::string& flag : clustered ? kNodeOnly : kClusterOnly) {
      if (given.count(flag)) {
        throw cli::CliError(flag + (clustered
                                        ? " is not supported with --nodes >= 2"
                                        : " needs --nodes >= 2"));
      }
    }
    if (clustered) {
      // The cluster's own stream; node telemetry stays off.
      cluster.stats_path = stats_out;
    } else if (!stats_out.empty()) {
      cfg.obs.stats_path = stats_out;
      cfg.obs.enabled = true;
    }
    cli::require_partner(given.count("--trace-scale"), "--trace-scale",
                         !opt.replay_path.empty(), "--replay-trace");
    cli::require_partner(given.count("--slo-dump"), "--slo-dump",
                         !cfg.obs.slo_rules.empty(), "--slo");
    cli::require_partner(given.count("--trace-sample"), "--trace-sample",
                         cfg.obs.tracing(), "--trace-out or --slo");
    cli::require_partner(given.count("--kill-node"), "--kill-node",
                         cluster.kill_at >= 0.0, "--kill-at");
    for (const char* flag : {"--check-goodput", "--check-shed-skew"}) {
      cli::require_partner(given.count(flag), flag, cfg.admission.active(),
                           "--admission");
    }
    for (const char* flag : {"--stats-interval", "--obs-profile"}) {
      cli::require_partner(
          given.count(flag), flag, cfg.obs.wants_exporter(),
          "--stats-out, --metrics-port, --trace-out or --slo");
    }
    cli::validate_config(
        [&] { clustered ? cluster.validate() : cfg.validate(); });
  } catch (const cli::CliError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  try {
    return cluster.nodes == 1 ? serve_node(cfg, opt)
                              : serve_cluster(cluster, opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
