// psdsweep — declarative campaign driver over the sweep engine.
//
//   psdsweep --loads 30,60,90 --backends dedicated,sfq,lottery --runs 8
//            --out campaign.jsonl
//   psdsweep --spec campaigns/fig05_fig09.spec
//   psdsweep --spec campaigns/abl01.spec --runs 4 --out abl01.jsonl
//
// Expands the grid (axes cross; loads vary fastest), executes scenarios x
// replications on one shared FIFO thread pool, and streams one JSONL record
// per grid point in grid order while the campaign runs.  Re-running with the
// same --out skips points whose key (config content hash) is already present
// for the same master seed, so a killed run resumes where it stopped; a
// record the kill left half-written is cut and re-run.  Fixed seed =>
// byte-identical records, regardless of --threads.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "psd.hpp"
#include "cli_util.hpp"

namespace {

using namespace psd;

const char* kUsage =
    R"(psdsweep — declarative PSD campaign runner (grids -> JSONL)

grid axes (comma-separated; every axis defaults to one base value):
  --loads L1,L2,...        utilizations; < 1 reads as fraction, >= 1 as %
  --classes V1|V2|...      delta vectors, '|'-separated (e.g. '1,2|1,4|1,8')
  --backends B1,B2,...     dedicated | sfq | lottery | wtp | pad | hpd | strict
  --allocators A1,A2,...   psd | adaptive | equal | loadprop | none
  --dists D1;D2;...        ';'-separated specs (e.g. 'bp:1.5,0.1,100;det:1')
  --rate-changes R1,R2     rescale | finish
  --nodes N1,N2,...        cluster sizes (1 = single server)
  --policies P1,P2,...     random | rr | lwl | sita | jsq[d]
  --profiles S1;S2;...     ';'-separated nonstationary load profiles, times
                           in tu (e.g. 'none;spike:30000,5000,2' compares the
                           stationary control against a flash crowd)
  --admissions S1;S2;...   ';'-separated admission gates (e.g.
                           'admit-all;util;delta-aware' compares shedding
                           policies; any active gate lifts the load < 100%
                           cap, so overload factors go on --loads)

base workload (not an axis):
  --arrivals SPEC          poisson | det | mmpp:burst[,sojourn[,duty]]

protocol / execution:
  --runs N                 replications per point              (default 8)
  --lockstep K             run replications in lane-groups of K on the
                           lockstep batch kernel (same numbers and JSONL
                           bytes as the default per-task mode, just faster;
                           0 = per-task)                       (default 0)
  --seed N                 campaign master seed                (default 42)
  --measure TU             measurement length per replication  (default 60000)
  --warmup TU              warmup per replication              (default 10000)
  --threads N              pool workers; 0 = hardware          (default 0)

artifacts:
  --out PATH               append JSONL records (enables resume)
  --no-resume              re-run everything; truncates --out first
  --csv PATH               write a CSV pivot of all points
  --timing                 add wall_ms to records (breaks byte-identity)
  --spec FILE              read options from FILE first: 'key = value' lines
                           (keys = long option names without '--'; '#' comments;
                           command-line flags override the spec)
  --dry-run                print the expanded points and exit
  --quiet                  suppress per-point progress lines
  --progress               live ticker on stderr: done/total points,
                           points/s, replication count, ETA (reads the
                           campaign gauge; does not touch the JSONL)
  --help                   this text
)";

[[noreturn]] void usage(int code) {
  std::cout << kUsage;
  std::exit(code);
}

struct Options {
  GridSpec grid;
  CampaignOptions campaign;
  std::string csv_path;
  bool dry_run = false;
  bool quiet = false;
  bool progress = false;
};

void apply_option(Options& o, const std::string& key,
                  const std::string& value) {
  const std::string opt = "--" + key;
  if (key == "loads") {
    o.grid.loads.clear();
    for (double v : cli::parse_list(opt, value, "--loads 30,60,90")) {
      o.grid.loads.push_back(cli::normalize_load(opt, v));
    }
  } else if (key == "classes") {
    o.grid.deltas.clear();
    for (const auto& item : cli::split(value, '|')) {
      o.grid.deltas.push_back(
          cli::parse_list(opt, item, "--classes '1,2|1,4'"));
    }
  } else if (key == "backends") {
    o.grid.backends.clear();
    for (const auto& item : cli::split(value, ',')) {
      o.grid.backends.push_back(cli::parse_backend(opt, item));
    }
  } else if (key == "allocators") {
    o.grid.allocators.clear();
    for (const auto& item : cli::split(value, ',')) {
      o.grid.allocators.push_back(cli::parse_allocator(opt, item));
    }
  } else if (key == "dists") {
    o.grid.dists.clear();
    for (const auto& item : cli::split(value, ';')) {
      o.grid.dists.push_back(cli::parse_dist(opt, item));
    }
  } else if (key == "rate-changes") {
    o.grid.rate_changes.clear();
    for (const auto& item : cli::split(value, ',')) {
      o.grid.rate_changes.push_back(cli::parse_rate_change(opt, item));
    }
  } else if (key == "nodes") {
    o.grid.cluster_nodes.clear();
    for (double v : cli::parse_list(opt, value, "--nodes 1,4")) {
      if (v < 1.0 || v != static_cast<double>(static_cast<std::size_t>(v))) {
        cli::fail(opt + " expects positive integers", value, "--nodes 1,4");
      }
      o.grid.cluster_nodes.push_back(static_cast<std::size_t>(v));
    }
  } else if (key == "policies") {
    o.grid.cluster_policies.clear();
    std::string jsq_token;  // first jsq token of this list
    for (const auto& item : cli::split(value, ',')) {
      const AssignmentSpec as = cli::parse_assignment(opt, item);
      o.grid.cluster_policies.push_back(as.policy);
      // The grid axis carries the policy only; a jsq token's sample width
      // lands on the base config (one d per campaign), so two widths
      // cannot both run.
      if (as.policy == AssignmentPolicy::kJsq) {
        if (jsq_token.empty()) {
          jsq_token = item;
          o.grid.base.cluster_jsq_d = as.d;
        } else if (as.d != o.grid.base.cluster_jsq_d) {
          cli::fail(opt + " names two jsq widths (" + jsq_token + " and " +
                        item + "); a campaign runs one",
                    value, "--policies rr,jsq2");
        }
      }
    }
  } else if (key == "profiles") {
    o.grid.profiles.clear();
    for (const auto& item : cli::split(value, ';')) {
      o.grid.profiles.push_back(cli::parse_profile(opt, item));
    }
  } else if (key == "admissions") {
    o.grid.admissions.clear();
    for (const auto& item : cli::split(value, ';')) {
      o.grid.admissions.push_back(cli::parse_admission(opt, item));
    }
  } else if (key == "arrivals") {
    const ArrivalSpec a = cli::parse_arrival_spec(opt, value);
    o.grid.base.arrivals = a.kind;
    o.grid.base.burstiness = a.burstiness;
    o.grid.base.mmpp_sojourn = a.sojourn;
    o.grid.base.mmpp_duty = a.duty;
  } else if (key == "runs") {
    o.campaign.runs = static_cast<std::size_t>(
        cli::parse_uint(opt, value, "--runs 8"));
  } else if (key == "lockstep") {
    const std::size_t lanes = static_cast<std::size_t>(
        cli::parse_uint(opt, value, "--lockstep 8"));
    o.campaign.replication_mode =
        lanes > 1 ? ReplicationMode::kLockstep : ReplicationMode::kPerTask;
    o.campaign.lockstep_lanes = lanes;
  } else if (key == "seed") {
    o.campaign.master_seed = cli::parse_uint(opt, value, "--seed 42");
  } else if (key == "measure") {
    o.grid.base.measure_tu = cli::parse_double(opt, value, "--measure 60000");
  } else if (key == "warmup") {
    o.grid.base.warmup_tu = cli::parse_double(opt, value, "--warmup 10000");
  } else if (key == "threads") {
    o.campaign.threads = static_cast<std::size_t>(
        cli::parse_uint(opt, value, "--threads 8"));
  } else if (key == "out") {
    o.campaign.jsonl_path = value;
  } else if (key == "csv") {
    o.csv_path = value;
  } else {
    cli::fail("unknown option", opt, "see --help");
  }
}

void load_spec_file(Options& o, const std::string& path) {
  std::ifstream in(path);
  if (!in) cli::fail("cannot open spec file", path, "--spec campaigns/abl01.spec");
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto items = cli::split(line, '=');
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (items.size() != 2 || line.find('=') == std::string::npos) {
      cli::fail("spec line " + std::to_string(lineno) +
                    " is not 'key = value'",
                line, "loads = 30,60,90");
    }
    if (items[0] == "no-resume" || items[0] == "timing" ||
        items[0] == "spec") {
      cli::fail("spec line " + std::to_string(lineno) +
                    ": flag not allowed in spec files",
                items[0], "pass it on the command line");
    }
    apply_option(o, items[0], items[1]);
  }
}

void write_csv_pivot(const std::string& path, const CampaignResult& result) {
  std::ofstream csv(path);
  if (!csv) cli::fail("cannot open CSV pivot for writing", path, "--csv out.csv");
  csv << "key,load,backend,allocator,dist,delta,nodes,policy,rate_change,"
         "runs,skipped,system_slowdown,expected_system";
  // Widest class count decides the per-class column block.
  std::size_t classes = 0;
  for (const auto& p : result.points) {
    classes = std::max(classes, p.point.cfg.num_classes());
  }
  for (std::size_t i = 0; i < classes; ++i) {
    csv << ",s" << i + 1 << "_mean,s" << i + 1 << "_half,s" << i + 1
        << "_expected,ratio" << i + 1 << ",target" << i + 1;
  }
  csv << "\n";
  auto cell = [&](double v) {
    csv << ',';
    if (std::isfinite(v)) csv << json_number(v);
  };
  for (const auto& p : result.points) {
    const auto& cfg = p.point.cfg;
    std::string delta;
    for (std::size_t i = 0; i < cfg.delta.size(); ++i) {
      if (i > 0) delta += ':';
      delta += json_number(cfg.delta[i]);
    }
    csv << p.point.key << ',' << json_number(cfg.load) << ','
        << backend_name(cfg.backend) << ',' << allocator_name(cfg.allocator)
        // dist specs contain commas (bp:1.5,0.1,100) — CSV-quote them.
        << ',' << '"' << dist_name(cfg.size_dist) << '"' << ',' << delta << ','
        << cfg.cluster_nodes << ','
        << AssignmentSpec(cfg.cluster_policy, cfg.cluster_jsq_d).name()
        << ','
        << rate_change_name(cfg.rate_change) << ',' << p.result.runs << ','
        << (p.skipped ? 1 : 0);
    // Resumed points carry no in-memory results (their numbers live in the
    // JSONL from the earlier run); leave their result cells blank.
    cell(p.skipped ? kNaN : p.result.system_slowdown);
    cell(p.skipped ? kNaN : p.result.expected_system);
    for (std::size_t i = 0; i < classes; ++i) {
      if (i < cfg.num_classes() && !p.skipped) {
        cell(p.result.slowdown[i].mean);
        cell(p.result.slowdown[i].half_width);
        cell(p.result.expected[i]);
        cell(p.result.mean_ratio[i]);
        cell(cfg.delta[i] / cfg.delta[0]);
      } else {
        csv << ",,,,,";
      }
    }
    csv << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::vector<CampaignPoint> points;
  try {
    // First pass: --spec files load in order, then flags override.
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--spec") {
        if (i + 1 >= argc) throw cli::CliError("--spec needs a file path");
        load_spec_file(o, argv[i + 1]);
      }
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw cli::CliError(arg + " needs a value (see --help)");
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") usage(0);
      else if (arg == "--spec") value();  // consumed in the first pass
      else if (arg == "--no-resume") o.campaign.resume = false;
      else if (arg == "--timing") o.campaign.timing = true;
      else if (arg == "--dry-run") o.dry_run = true;
      else if (arg == "--quiet") o.quiet = true;
      else if (arg == "--progress") o.progress = true;
      else if (arg.rfind("--", 0) == 0) apply_option(o, arg.substr(2), value());
      else cli::fail("unknown argument", arg, "see --help");
    }
    cli::require_runs(o.campaign.runs);
    // Expansion validates every point's config.
    cli::validate_config([&] { points = expand_grid(o.grid); });
  } catch (const cli::CliError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  try {
    if (o.dry_run) {
      std::cout << points.size() << " points:\n";
      for (const auto& p : points) {
        std::cout << "  " << p.key << "  " << p.label << "\n";
      }
      return 0;
    }

    const auto on_point = [&](const PointOutcome& p) {
      if (o.quiet) return;
      std::cout << (p.skipped ? "skip " : "done ") << p.point.key << "  "
                << p.point.label;
      if (!p.skipped) {
        std::printf("  S=[");
        for (std::size_t i = 0; i < p.result.slowdown.size(); ++i) {
          std::printf(i == 0 ? "%.3g" : " %.3g", p.result.slowdown[i].mean);
        }
        std::printf("]");
      }
      std::cout << "\n";
    };

    // The gauge is bumped by pool workers inside run_campaign; the ticker
    // reads it from this side on a fixed cadence.  ETA extrapolates from
    // executed points only (resumed points land instantly).
    CampaignGauge gauge;
    std::atomic<bool> ticker_stop{false};
    std::thread ticker;
    if (o.progress) {
      ticker = std::thread([&] {
        const auto start = std::chrono::steady_clock::now();
        while (!ticker_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::seconds(1));
          const double elapsed =
              std::chrono::duration_cast<std::chrono::duration<double>>(
                  std::chrono::steady_clock::now() - start)
                  .count();
          const std::uint64_t total = gauge.total.get();
          const std::uint64_t done = gauge.done();
          const std::uint64_t executed = gauge.executed.get();
          const double rate =
              elapsed > 0.0 ? static_cast<double>(executed) / elapsed : 0.0;
          if (rate > 0.0 && total > done) {
            std::fprintf(stderr,
                         "progress: %llu/%llu points, %llu reps, "
                         "%.2f points/s, ETA %.0fs\n",
                         static_cast<unsigned long long>(done),
                         static_cast<unsigned long long>(total),
                         static_cast<unsigned long long>(
                             gauge.replications.get()),
                         rate, static_cast<double>(total - done) / rate);
          } else {
            std::fprintf(stderr, "progress: %llu/%llu points, %llu reps\n",
                         static_cast<unsigned long long>(done),
                         static_cast<unsigned long long>(total),
                         static_cast<unsigned long long>(
                             gauge.replications.get()));
          }
        }
      });
    }

    CampaignResult result;
    try {
      result = run_campaign(o.grid, o.campaign, nullptr, on_point, &gauge);
    } catch (...) {
      if (ticker.joinable()) {
        ticker_stop.store(true, std::memory_order_relaxed);
        ticker.join();
      }
      throw;
    }
    if (ticker.joinable()) {
      ticker_stop.store(true, std::memory_order_relaxed);
      ticker.join();
    }

    if (!o.csv_path.empty()) write_csv_pivot(o.csv_path, result);

    std::printf(
        "\n%zu points (%zu executed, %zu resumed) x %zu runs on %zu threads "
        "in %.2fs — %.2f points/s, pool efficiency %.0f%%\n",
        result.points.size(), result.executed, result.skipped,
        o.campaign.runs, result.threads, result.wall_seconds,
        result.points_per_sec(), 100.0 * result.pool_efficiency());
    if (!o.campaign.jsonl_path.empty()) {
      std::cout << "JSONL: " << o.campaign.jsonl_path << "\n";
    }
    if (!o.csv_path.empty()) std::cout << "CSV pivot: " << o.csv_path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
