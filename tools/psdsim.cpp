// psdsim — command-line front end for the PSD simulator.
//
//   psdsim --classes 1,2,4 --load 0.7 --runs 32
//   psdsim --classes 1,2 --load 0.8 --dist bp:1.5,0.1,1000 --backend sfq
//   psdsim --classes 1,2 --load 0.6 --analytic       (closed forms only)
//   psdsim --help
//
// Prints per-class simulated and eq.-18 expected slowdowns, achieved ratios,
// and the windowed ratio percentiles — the numbers a capacity planner or a
// reviewer wants first.  For grids of scenarios, see psdsweep.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "psd.hpp"
#include "cli_util.hpp"

namespace {

using namespace psd;

const char* kUsage =
    R"(psdsim — proportional slowdown differentiation simulator (IPDPS'04)

options:
  --classes D1,D2[,...]   differentiation parameters, non-decreasing
                          (default 1,2)
  --load F                system utilization in (0,1)          (default 0.5)
  --shares S1,S2[,...]    per-class load shares, sum 1          (default equal)
  --dist SPEC             service-time distribution             (default bp:1.5,0.1,100)
                            bp:alpha,k,p     bounded Pareto
                            det:c            deterministic
                            exp:m            exponential
                            bexp:m,lo,hi     bounded exponential
                            lognormal:m,scv  lognormal
                            uniform:a,b      uniform
  --arrivals SPEC         arrival process                       (default poisson)
                            poisson | det | mmpp:burst[,sojourn[,duty]]
                            (mmpp: two-phase modulated Poisson; burst =
                             high-phase rate / mean rate, sojourn = mean
                             high-phase length in mean interarrivals,
                             duty = high-phase time fraction)
  --profile SPEC          nonstationary load modulation (times in tu):
                            ramp:t0,t1,f0,f1   piecewise-linear rate ramp
                            sin:period,amp     sinusoidal "diurnal" cycle
                            spike:t0,dur,mag   flash crowd (mag x rate)
  --admission SPEC        overload admission gate (lifts the load < 1 cap):
                            admit-all              count-only control
                            util[:thresh]          utilization gate
                            slowdown-budget[:B]    eq.-18 predicted-slowdown cap
                            delta-aware[:thresh]   proportional shedding
                            token-bucket[:thresh[,burst]]  per-class caps
  --converge-tol F        settle-band half-width for the re-convergence
                          metric                                (default 0.25)
  --check-converge TU     exit 1 unless, after the profile's settling point,
                          every class's windowed slowdown ratio re-enters
                          the band within TU time units in >= 75% of runs
  --backend NAME          dedicated | sfq | lottery | wtp | pad | hpd | strict
                          (default dedicated)
  --allocator NAME        psd | adaptive | equal | loadprop     (default psd)
  --nodes N               cluster nodes (1 = single server)     (default 1)
  --policy NAME           random | rr | lwl | sita | jsq[d]  (with --nodes > 1)
  --runs N                replications                          (default 32)
  --measure TU            measurement length in time units      (default 60000)
  --warmup TU             warmup in time units                  (default 10000)
  --seed N                master seed                           (default 42)
  --analytic              print closed-form results only (no simulation)
  --record-trace FILE     run ONE replication and write its arrival trace
                          (CSV: time,class,size in raw simulator time)
  --replay-trace FILE     drive ONE replication from a recorded trace
                          instead of synthetic generators (the same trace
                          also feeds psdserved --replay-trace)
  --trace-spans FILE      run ONE replication recording every request and
                          write its lifecycle spans as Chrome-trace JSON
                          (schema psd.rt.trace.v1 — same format psdserved
                          --trace-out emits, so a sim run and its rt replay
                          diff span-by-span; combines with --record-trace /
                          --replay-trace)
  --summary-json FILE     also write the results as one machine-readable
                          JSON object (schema psd.sim.summary.v1) — tooling
                          parity with psdsweep JSONL without a campaign
  --csv                   CSV instead of aligned table
  --help                  this text
)";

[[noreturn]] void usage(int code) {
  std::cout << kUsage;
  std::exit(code);
}

}  // namespace

namespace {

/// Config fields every summary variant shares.
void summary_header(JsonObject& o, const char* mode,
                    const ScenarioConfig& cfg, const std::string& dist_name,
                    const std::vector<double>& lambdas) {
  o.field("schema", "psd.sim.summary.v1")
      .field("mode", mode)
      .field("classes", cfg.delta.size())
      .raw("delta", json_array(cfg.delta))
      .field("load", cfg.load)
      .raw("lambda", json_array(lambdas))
      .field("dist", dist_name)
      .field("backend", backend_name(cfg.backend))
      .field("allocator", allocator_name(cfg.allocator))
      .field("nodes", cfg.cluster_nodes)
      .field("measure_tu", cfg.measure_tu)
      .field("warmup_tu", cfg.warmup_tu)
      .field("seed", cfg.seed);
  if (cfg.profile.active()) o.field("profile", cfg.profile.name());
  if (cfg.admission.active()) o.field("admission", cfg.admission.name());
}

bool write_summary(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot write '" << path << "'\n";
    return false;
  }
  out << body << "\n";
  std::cout << "wrote summary to " << path << "\n";
  return true;
}

/// One-replication summary (the record/replay paths).
std::string single_run_summary(const ScenarioConfig& cfg, const RunResult& r,
                               const std::vector<double>& expected,
                               const std::string& dist_name,
                               const std::vector<double>& lambdas) {
  JsonObject o;
  summary_header(o, "single", cfg, dist_name, lambdas);
  const double s0 = r.cls[0].mean_slowdown;
  std::string cls = "[";
  for (std::size_t i = 0; i < cfg.delta.size(); ++i) {
    JsonObject c;
    c.field("delta", cfg.delta[i])
        .field("mean_slowdown", r.cls[i].mean_slowdown)
        .field("mean_delay", r.cls[i].mean_delay)
        .field("expected", expected[i])
        .field("ratio", s0 > 0.0 ? r.cls[i].mean_slowdown / s0 : kNaN)
        .field("completed", r.cls[i].completed);
    if (i > 0) cls += ',';
    cls += c.str();
  }
  cls += ']';
  o.raw("cls", cls)
      .field("system_slowdown", r.system_slowdown)
      .field("submitted", r.submitted)
      .field("reallocations", r.reallocations);
  if (!r.settle_tu.empty()) o.raw("settle_tu", json_array(r.settle_tu));
  if (cfg.admission.active()) {
    o.raw("shed", json_array(std::vector<double>(r.shed.begin(), r.shed.end())))
        .field("goodput_tu", r.goodput_tu);
  }
  return o.str();
}

/// Cross-replication summary (the default path).
std::string replicated_summary(const ScenarioConfig& cfg, std::size_t runs,
                               const ReplicatedResult& r,
                               const std::string& dist_name,
                               const std::vector<double>& lambdas) {
  JsonObject o;
  summary_header(o, "replications", cfg, dist_name, lambdas);
  o.field("runs", runs);
  std::string cls = "[";
  for (std::size_t i = 0; i < cfg.delta.size(); ++i) {
    JsonObject c;
    c.field("delta", cfg.delta[i])
        .field("mean_slowdown", r.slowdown[i].mean)
        .field("ci95", r.slowdown[i].half_width)
        .field("expected", r.expected[i])
        .field("mean_ratio", r.mean_ratio[i]);
    if (i > 0) cls += ',';
    cls += c.str();
  }
  cls += ']';
  o.raw("cls", cls);
  if (!r.ratio.empty()) {
    std::string rp = "[";
    for (std::size_t j = 0; j < r.ratio.size(); ++j) {
      JsonObject c;
      c.field("p5", r.ratio[j].p5)
          .field("p50", r.ratio[j].p50)
          .field("p95", r.ratio[j].p95)
          .field("mean", r.ratio[j].mean)
          .field("windows", r.ratio[j].windows);
      if (j > 0) rp += ',';
      rp += c.str();
    }
    rp += ']';
    o.raw("ratio_percentiles", rp);
  }
  if (!r.settle_mean_tu.empty()) {
    JsonObject s;
    s.raw("mean_tu", json_array(r.settle_mean_tu))
        .raw("rate", json_array(r.settle_rate))
        .raw("p75_tu", json_array(r.settle_p75_tu));
    o.raw("settle", s.str());
  }
  o.field("system_slowdown", r.system_slowdown)
      .field("expected_system", r.expected_system)
      .field("completed_total", r.completed_total);
  if (cfg.admission.active()) {
    o.field("shed_total", r.shed_total)
        .raw("shed_rate", json_array(r.shed_rate))
        .field("goodput_tu", r.goodput_tu)
        .field("survivor_ratio_err", r.survivor_ratio_err);
  }
  return o.str();
}

/// Per-class table for one replication (the record/replay paths run exactly
/// one, so there are no cross-run confidence intervals to show).
void print_single_run(const ScenarioConfig& cfg, const RunResult& r,
                      const std::vector<double>& expected, bool csv) {
  Table t({"class", "delta", "S measured", "S expected", "ratio vs class 1",
           "completed"});
  const double s0 = r.cls[0].mean_slowdown;
  for (std::size_t i = 0; i < cfg.delta.size(); ++i) {
    t.add_row({std::to_string(i + 1), Table::fmt(cfg.delta[i], 2),
               Table::fmt(r.cls[i].mean_slowdown, 3),
               Table::fmt(expected[i], 3),
               Table::fmt(s0 > 0.0 ? r.cls[i].mean_slowdown / s0 : kNaN, 3),
               std::to_string(r.cls[i].completed)});
  }
  csv ? t.print_csv(std::cout) : t.print(std::cout);
  std::cout << "\nsystem slowdown: " << Table::fmt(r.system_slowdown, 3)
            << "   submitted=" << r.submitted
            << " reallocations=" << r.reallocations << "\n";
  for (std::size_t j = 0; j < r.settle_tu.size(); ++j) {
    std::cout << "class " << j + 2 << " ratio settle after "
              << cfg.profile.name() << ": " << Table::fmt(r.settle_tu[j], 0)
              << " tu\n";
  }
  if (cfg.admission.active() && !r.shed.empty()) {
    std::uint64_t shed_total = 0;
    for (const auto v : r.shed) shed_total += v;
    std::cout << "admission " << cfg.admission.name()
              << ": shed=" << shed_total
              << "  goodput=" << Table::fmt(r.goodput_tu, 4)
              << " completions/tu\n";
  }
}

/// Convert one replication's recorded per-request completions into the same
/// psd.rt.trace.v1 span JSON that psdserved --trace-out emits, so a sim run
/// and its rt replay of the same trace diff span-by-span.  The simulator has
/// no ingress ring or admission gate in this path, so every span is
/// "admitted" on shard 0 with t_ingress = t_admit = t_pop = arrival and
/// tick 0.  Trace ids use the rt packing (shard 0, shed 0, 1-based per-class
/// completion ordinal — identical to the rt accepted ordinal because the
/// dedicated-rate backend completes within-class FIFO), and every record is
/// emitted: diff against an rt run with --trace-sample 1.
bool write_span_trace(const std::string& path, const ScenarioConfig& cfg,
                      const std::vector<Request>& records) {
  try {
    obs::TraceWriter writer(path);
    std::vector<std::uint64_t> ordinal(cfg.num_classes(), 0);
    for (const Request& req : records) {
      obs::Span s;
      s.trace_id = (static_cast<std::uint64_t>(req.cls & 0xff) << 48) |
                   (++ordinal[req.cls] & ((1ull << 47) - 1));
      s.cls = static_cast<std::uint32_t>(req.cls);
      s.shard = 0;
      s.verdict = obs::kSpanAdmitted;
      s.tick_seq = 0;
      s.t_ingress = req.arrival;
      s.t_admit = req.arrival;
      s.t_pop = req.arrival;
      s.t_start = req.service_start;
      s.t_complete = req.departure;
      s.size = req.size;
      s.slowdown = req.slowdown();
      writer.write_span(s);
    }
    writer.close();
    std::cout << "wrote " << records.size() << " spans to " << path << "\n";
    return true;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioConfig cfg;
  std::size_t runs = 32;
  bool analytic_only = false;
  bool csv = false;
  std::string record_path;
  std::string replay_path;
  std::string span_path;
  std::string summary_path;
  double check_converge_tu = -1.0;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw cli::CliError(arg + " needs a value (see --help)");
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") usage(0);
      else if (arg == "--classes")
        cfg.delta = cli::parse_list(arg, value(), "--classes 1,2,4");
      else if (arg == "--load")
        cfg.load = cli::parse_double(arg, value(), "--load 0.7");
      else if (arg == "--shares")
        cfg.load_share = cli::parse_list(arg, value(), "--shares 0.7,0.3");
      else if (arg == "--dist") cfg.size_dist = cli::parse_dist(arg, value());
      else if (arg == "--arrivals") {
        const ArrivalSpec a = cli::parse_arrival_spec(arg, value());
        cfg.arrivals = a.kind;
        cfg.burstiness = a.burstiness;
        cfg.mmpp_sojourn = a.sojourn;
        cfg.mmpp_duty = a.duty;
      }
      else if (arg == "--profile") cfg.profile = cli::parse_profile(arg, value());
      else if (arg == "--admission")
        cfg.admission = cli::parse_admission(arg, value());
      else if (arg == "--converge-tol")
        cfg.converge_tol =
            cli::parse_double(arg, value(), "--converge-tol 0.25");
      else if (arg == "--check-converge")
        check_converge_tu =
            cli::parse_double(arg, value(), "--check-converge 8000");
      else if (arg == "--backend") cfg.backend = cli::parse_backend(arg, value());
      else if (arg == "--allocator")
        cfg.allocator = cli::parse_allocator(arg, value());
      else if (arg == "--nodes")
        cfg.cluster_nodes = static_cast<std::size_t>(
            cli::parse_uint(arg, value(), "--nodes 4"));
      else if (arg == "--policy") {
        const AssignmentSpec as = cli::parse_assignment(arg, value());
        cfg.cluster_policy = as.policy;
        cfg.cluster_jsq_d = as.d;
      }
      else if (arg == "--runs")
        runs = static_cast<std::size_t>(
            cli::parse_uint(arg, value(), "--runs 32"));
      else if (arg == "--measure")
        cfg.measure_tu = cli::parse_double(arg, value(), "--measure 60000");
      else if (arg == "--warmup")
        cfg.warmup_tu = cli::parse_double(arg, value(), "--warmup 10000");
      else if (arg == "--seed")
        cfg.seed = cli::parse_uint(arg, value(), "--seed 42");
      else if (arg == "--analytic") analytic_only = true;
      else if (arg == "--record-trace") record_path = value();
      else if (arg == "--replay-trace") replay_path = value();
      else if (arg == "--trace-spans") span_path = value();
      else if (arg == "--summary-json") summary_path = value();
      else if (arg == "--csv") csv = true;
      else {
        std::cerr << "error: unknown option '" << arg << "'\n";
        usage(2);
      }
    }
    cli::require_runs(runs);
    cli::validate_config([&] { cfg.validate(); });
  } catch (const cli::CliError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  try {
    const SamplerVariant dist = make_sampler(cfg.size_dist);
    const auto lambdas = cfg.true_lambdas();

    // E[1/X] diverges for the unbounded exponential: print it as inf.
    double mean_inv = kInf;
    try {
      mean_inv = dist.mean_inverse();
    } catch (const std::domain_error&) {
    }
    std::cout << "service-time distribution: " << dist.name()
              << "  (E[X]=" << Table::fmt(dist.mean(), 4)
              << ", E[X^2]=" << Table::fmt(dist.second_moment(), 4)
              << ", E[1/X]=" << Table::fmt(mean_inv, 4) << ")\n";

    // Eq. 17/18 predictions need load < 1 (a deliberately overloaded run,
    // admission active at load >= 1, has no feasible allocation) and a
    // finite E[1/X].  Without both the expected columns stay NaN, as
    // aggregate_replications leaves them.
    const bool feasible = cfg.load < 1.0;
    const bool predictable = feasible && std::isfinite(mean_inv);
    std::vector<double> expected(cfg.delta.size(), kNaN);
    if (predictable) {
      expected = expected_psd_slowdowns(lambdas, cfg.delta, dist);
    }

    if (analytic_only) {
      if (!feasible) {
        std::cerr << "error: --analytic needs load < 1 (eq. 17/18 are "
                     "undefined beyond capacity)\n";
        return 2;
      }
      if (!predictable) {
        std::cerr << "error: --analytic needs a finite E[1/X], which "
                  << dist.name() << " does not have (eq. 18 is undefined)\n";
        return 2;
      }
      PsdInput in;
      in.lambda = lambdas;
      in.delta = cfg.delta;
      in.mean_size = dist.mean();
      in.min_residual_share = 0.0;
      const auto alloc = allocate_psd_rates(in);
      Table t({"class", "delta", "lambda", "rate (eq.17)", "E[S] (eq.18)"});
      for (std::size_t i = 0; i < cfg.delta.size(); ++i) {
        t.add_row(std::vector<double>{static_cast<double>(i + 1),
                                      cfg.delta[i], lambdas[i], alloc.rate[i],
                                      expected[i]},
                  4);
      }
      csv ? t.print_csv(std::cout) : t.print(std::cout);
      return 0;
    }

    if (!record_path.empty() && !replay_path.empty()) {
      std::cerr << "error: --record-trace and --replay-trace are mutually "
                   "exclusive\n";
      return 2;
    }
    if (!span_path.empty()) {
      // Span emission needs every request record from the whole run, not
      // the default Figs. 7-8 snapshot window.
      cfg.record_requests = true;
      cfg.record_from_tu = 0.0;
      cfg.record_to_tu = kInf;
    }
    if (!span_path.empty() && record_path.empty() && replay_path.empty()) {
      std::cout << "tracing one replication (" << cfg.measure_tu
                << " tu, warmup " << cfg.warmup_tu << " tu)...\n\n";
      Trace trace;  // Arrival trace is a by-product here; discarded.
      const RunResult r = run_scenario_recorded(cfg, trace);
      print_single_run(cfg, r, expected, csv);
      if (!write_span_trace(span_path, cfg, r.records)) return 1;
      if (!summary_path.empty() &&
          !write_summary(summary_path, single_run_summary(
                             cfg, r, expected, dist.name(), lambdas))) {
        return 1;
      }
      return 0;
    }
    if (!record_path.empty()) {
      std::cout << "recording one replication (" << cfg.measure_tu
                << " tu, warmup " << cfg.warmup_tu << " tu)...\n\n";
      Trace trace;
      const RunResult r = run_scenario_recorded(cfg, trace);
      std::ofstream out(record_path);
      if (!out) {
        std::cerr << "error: cannot write '" << record_path << "'\n";
        return 1;
      }
      write_trace(out, trace);
      print_single_run(cfg, r, expected, csv);
      std::cout << "wrote " << trace.size() << " arrivals to " << record_path
                << "\n";
      if (!span_path.empty() && !write_span_trace(span_path, cfg, r.records)) {
        return 1;
      }
      if (!summary_path.empty() &&
          !write_summary(summary_path, single_run_summary(
                             cfg, r, expected, dist.name(), lambdas))) {
        return 1;
      }
      return 0;
    }
    if (!replay_path.empty()) {
      std::ifstream in(replay_path);
      if (!in) {
        std::cerr << "error: cannot open trace '" << replay_path << "'\n";
        return 1;
      }
      const Trace trace = read_trace(in);
      std::cout << "replaying " << trace.size() << " arrivals from "
                << replay_path << " (" << cfg.measure_tu << " tu, warmup "
                << cfg.warmup_tu << " tu)...\n\n";
      const RunResult r = run_scenario_replayed(cfg, trace);
      print_single_run(cfg, r, expected, csv);
      if (!span_path.empty() && !write_span_trace(span_path, cfg, r.records)) {
        return 1;
      }
      if (!summary_path.empty() &&
          !write_summary(summary_path, single_run_summary(
                             cfg, r, expected, dist.name(), lambdas))) {
        return 1;
      }
      return 0;
    }

    std::cout << "simulating " << runs << " replications ("
              << cfg.measure_tu << " tu each, warmup " << cfg.warmup_tu
              << " tu";
    if (cfg.cluster_nodes > 1) {
      std::cout << ", " << cfg.cluster_nodes << " nodes, "
                << AssignmentSpec(cfg.cluster_policy, cfg.cluster_jsq_d)
                       .name();
    }
    if (cfg.arrivals == ArrivalKind::kBursty) {
      std::cout << ", mmpp burst=" << cfg.burstiness;
    }
    if (cfg.profile.active()) {
      std::cout << ", profile " << cfg.profile.name();
    }
    if (cfg.admission.active()) {
      std::cout << ", admission " << cfg.admission.name();
    }
    std::cout << ")...\n\n";
    const auto r = run_replications(cfg, runs);

    Table t({"class", "delta", "S simulated", "+-95%", "S expected",
             "ratio vs class 1"});
    for (std::size_t i = 0; i < cfg.delta.size(); ++i) {
      t.add_row({std::to_string(i + 1), Table::fmt(cfg.delta[i], 2),
                 Table::fmt(r.slowdown[i].mean, 3),
                 Table::fmt(r.slowdown[i].half_width, 3),
                 Table::fmt(r.expected[i], 3),
                 Table::fmt(r.mean_ratio[i], 3)});
    }
    csv ? t.print_csv(std::cout) : t.print(std::cout);

    if (!r.ratio.empty()) {
      std::cout << "\nwindowed ratio percentiles (vs class 1):\n";
      Table rt({"class", "p5", "p50", "p95"});
      for (std::size_t j = 0; j < r.ratio.size(); ++j) {
        rt.add_row({std::to_string(j + 2), Table::fmt(r.ratio[j].p5, 2),
                    Table::fmt(r.ratio[j].p50, 2),
                    Table::fmt(r.ratio[j].p95, 2)});
      }
      csv ? rt.print_csv(std::cout) : rt.print(std::cout);
    }
    // Transient response: how fast the windowed ratios re-entered the band
    // after the profile's settling point (the adaptive-vs-static statistic
    // for nonstationary scenarios).
    if (!r.settle_mean_tu.empty()) {
      std::cout << "\nratio re-convergence after " << cfg.profile.name()
                << " settles at t=" << Table::fmt(cfg.profile.step_time(), 0)
                << " tu (band +-"
                << Table::fmt(cfg.converge_tol * 100.0, 0) << "%):\n";
      Table ct({"class", "settled runs", "mean settle tu", "p75 settle tu"});
      for (std::size_t j = 0; j < r.settle_mean_tu.size(); ++j) {
        ct.add_row({std::to_string(j + 2),
                    Table::fmt(r.settle_rate[j] * 100.0, 0) + "%",
                    Table::fmt(r.settle_mean_tu[j], 0),
                    Table::fmt(r.settle_p75_tu[j], 0)});
      }
      csv ? ct.print_csv(std::cout) : ct.print(std::cout);
    }

    std::cout << "\nsystem slowdown: simulated="
              << Table::fmt(r.system_slowdown, 3)
              << " expected=" << Table::fmt(r.expected_system, 3)
              << "   completions=" << r.completed_total << "\n";

    // Overload survival: what the gate shed, what got through, and whether
    // the admitted classes still held their slowdown ratios.
    if (cfg.admission.active()) {
      std::cout << "\noverload survival (" << cfg.admission.name() << "):\n";
      Table at({"class", "shed rate"});
      for (std::size_t j = 0; j < r.shed_rate.size(); ++j) {
        at.add_row({std::to_string(j + 1),
                    Table::fmt(r.shed_rate[j] * 100.0, 1) + "%"});
      }
      csv ? at.print_csv(std::cout) : at.print(std::cout);
      std::cout << "goodput=" << Table::fmt(r.goodput_tu, 4)
                << " completions/tu   shed_total=" << r.shed_total
                << "   survivor ratio error="
                << Table::fmt(r.survivor_ratio_err * 100.0, 1) << "%\n";
    }

    if (!summary_path.empty() &&
        !write_summary(summary_path,
                       replicated_summary(cfg, runs, r, dist.name(),
                                          lambdas))) {
      return 1;
    }

    if (check_converge_tu >= 0.0) {
      if (r.settle_mean_tu.empty()) {
        std::cerr << "error: --check-converge needs a --profile with a "
                     "settling point (ramp or spike) and >= 2 classes\n";
        return 2;
      }
      // The documented contract: 75% of runs re-entered the band within the
      // bound, i.e. the p75 settle time (never-settled = infinite) is under
      // it.  A mean-based check would let fast runs mask a slow tail.
      for (std::size_t j = 0; j < r.settle_p75_tu.size(); ++j) {
        if (!(r.settle_p75_tu[j] <= check_converge_tu)) {
          std::cerr << "CONVERGENCE CHECK FAILED: class " << j + 2
                    << " settled in " << Table::fmt(r.settle_rate[j] * 100, 0)
                    << "% of runs, p75 "
                    << Table::fmt(r.settle_p75_tu[j], 0) << " tu (need >=75%"
                    << " within " << check_converge_tu << " tu)\n";
          return 1;
        }
      }
      std::cout << "convergence check passed (<= " << check_converge_tu
                << " tu in >= 75% of runs)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
