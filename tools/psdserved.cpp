// psdserved — real-time serving front end for the PSD stack.
//
//   psdserved --classes 1,2 --load 0.6 --duration 3
//   psdserved --classes 1,2,4 --load 60 --shards 2 --loadgens 2 --pin
//   psdserved --replay-trace arrivals.trace --classes 1,2
//   psdserved --check-ratio-tol 0.15 --bench-out BENCH_rt.json   (CI smoke)
//
// Unlike psdsim (discrete-event, simulated time), this drives src/rt: real
// load-generator / shard / controller threads against the wall clock.  Per
// class it prints completions, measured mean slowdown, achieved vs target
// slowdown ratio, and the ingress transit latency; --check-ratio-tol turns
// the run into a pass/fail differentiation smoke test.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "psd.hpp"
#include "../bench/json_bench.hpp"
#include "cli_util.hpp"
#include "rt/handle.hpp"
#include "rt_flags.hpp"

namespace {

using namespace psd;

const char* kUsage =
    R"(psdserved — wall-clock PSD serving runtime (src/rt)

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
  --shards N              worker shards (threads)            (default 1)
  --loadgens N            load-generator threads             (default 1)
  --duration SEC          total run length                   (default 3)
  --warmup SEC            excluded from metrics              (default 0.5)
  --mean-service-us U     mean request service time, usec    (default 100)
  --period-ms MS          controller reallocation period     (default 50)
  --allocator NAME        psd | adaptive | equal | loadprop | none
                          (default adaptive)
  --burst SEC             token-bucket burst allowance       (default 0.1)
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
  --help                  this text
)";

[[noreturn]] void usage(int code) {
  std::cout << kUsage;
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  rt::RtConfig cfg;
  std::string replay_path;
  std::string bench_out;
  double trace_scale = 0.0;  // 0 = derive from mean_service / E[X]
  double check_tol = -1.0;
  double check_goodput = -1.0;
  double check_shed_skew = -1.0;

  try {
    std::set<std::string> given;
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
      else if (cli::parse_rt_flag(arg, value, cfg)) {
        // Shared RtConfig grammar (tools/rt_flags.hpp) — also psdcluster's.
      }
      else if (arg == "--replay-trace") replay_path = value();
      else if (arg == "--trace-scale")
        trace_scale = cli::parse_double(arg, value(), "--trace-scale 1e-4");
      else if (arg == "--check-ratio-tol")
        check_tol = cli::parse_double(arg, value(), "--check-ratio-tol 0.15");
      else if (arg == "--check-goodput")
        check_goodput =
            cli::parse_double(arg, value(), "--check-goodput 0.9");
      else if (arg == "--check-shed-skew")
        check_shed_skew =
            cli::parse_double(arg, value(), "--check-shed-skew 0.1");
      else if (arg == "--bench-out") bench_out = value();
      else if (arg == "--stats-out") {
        cfg.obs.stats_path = value();
        cfg.obs.enabled = true;
      } else if (arg == "--trace-out") {
        cfg.obs.trace_path = value();
        cfg.obs.enabled = true;
      } else {
        std::cerr << "error: unknown option '" << arg << "'\n";
        usage(2);
      }
    }
    cli::require_partner(given.count("--trace-scale"), "--trace-scale",
                         !replay_path.empty(), "--replay-trace");
    cli::require_partner(given.count("--slo-dump"), "--slo-dump",
                         !cfg.obs.slo_rules.empty(), "--slo");
    cli::require_partner(given.count("--trace-sample"), "--trace-sample",
                         cfg.obs.tracing(), "--trace-out or --slo");
    cli::validate_config([&] { cfg.validate(); });
  } catch (const cli::CliError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  try {
    const SamplerVariant dist = make_sampler(cfg.size_dist);

    std::unique_ptr<rt::Runtime> runtime;
    if (!replay_path.empty()) {
      std::ifstream in(replay_path);
      if (!in) {
        std::cerr << "error: cannot open trace '" << replay_path << "'\n";
        return 2;
      }
      Trace trace = read_trace(in);
      const double scale = trace_scale > 0.0
                               ? trace_scale
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
                << replay_path << " (scale " << scale << " s/unit)\n";
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

    // psdserved is the 1-node special case of the cluster tier: the whole
    // serving session runs through the same RuntimeHandle the cluster
    // dispatcher drives its nodes through.
    rt::RuntimeHandle handle(*runtime);
    const rt::RtReport r = handle.run();

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
    if (gated) {
      const double capacity_rps =
          static_cast<double>(cfg.shards) / cfg.mean_service_seconds;
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

    if (!bench_out.empty()) {
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
      std::ofstream out(bench_out, std::ios::app);
      out << os.str();
      std::cout << os.str();
    }

    if (check_tol >= 0.0) {
      // Gate on the windowed median: robust to the single heavy-tail giants
      // that can swing a short run's cumulative class mean arbitrarily.
      if (!(r.max_window_ratio_error <= check_tol)) {
        std::cerr << "RATIO CHECK FAILED: max windowed-median error "
                  << r.max_window_ratio_error * 100 << "% > tolerance "
                  << check_tol * 100 << "%\n";
        return 1;
      }
      std::cout << "ratio check passed (<= " << check_tol * 100 << "%)\n";
    }

    if (check_goodput >= 0.0) {
      if (!cfg.admission.active()) {
        std::cerr << "error: --check-goodput needs --admission\n";
        return 2;
      }
      const double capacity_rps =
          static_cast<double>(cfg.shards) / cfg.mean_service_seconds;
      const double need = check_goodput * capacity_rps;
      if (!(r.goodput >= need)) {
        std::cerr << "GOODPUT CHECK FAILED: " << Table::fmt(r.goodput, 0)
                  << " req/s < " << Table::fmt(need, 0) << " ("
                  << check_goodput << " x " << Table::fmt(capacity_rps, 0)
                  << " capacity)\n";
        return 1;
      }
      std::cout << "goodput check passed (>= " << check_goodput
                << " x capacity)\n";
    }
    if (check_shed_skew >= 0.0) {
      if (!cfg.admission.active()) {
        std::cerr << "error: --check-shed-skew needs --admission\n";
        return 2;
      }
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
      if (!(skew <= check_shed_skew)) {
        std::cerr << "SHED SKEW CHECK FAILED: max per-class deviation "
                  << Table::fmt(skew * 100, 1) << "% > tolerance "
                  << Table::fmt(check_shed_skew * 100, 1) << "%\n";
        return 1;
      }
      std::cout << "shed skew check passed (<= "
                << Table::fmt(check_shed_skew * 100, 1) << "%)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
