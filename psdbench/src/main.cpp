// psdbench: run one benchmark workload and print its metrics.
//
//   psdbench --workload serve_nominal|cluster_shed|sweep_paper --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the workload untraced and then traced at the same seed, each for
// half of S, and prints the per-layer metrics.  The last stdout line is the
// JSON result.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/prof.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "psdbench: %s\nusage: psdbench --workload "
               "serve_nominal|cluster_shed|sweep_paper --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

psdbench::Options parse(int argc, char** argv) {
  psdbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds >= 1.0 && opt.seconds <= 60.0)) {
        usage("--seconds must be in [1, 60]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const psdbench::Options opt = parse(argc, argv);
  // Calibrate the profiling clock before anything is timed.
  (void)psd::obs::ticks_per_second();
  // A traced invocation makes two runs of the workload, untraced and then
  // traced, of half the time each, so it measures --seconds in all, as an
  // untraced one does.
  psdbench::Options run_opt = opt;
  if (opt.trace) run_opt.seconds = std::max(1.0, opt.seconds / 2.0);
  try {
    psdbench::Result r;
    if (opt.workload == "serve_nominal") {
      r = psdbench::run_serve_nominal(run_opt);
    } else if (opt.workload == "cluster_shed") {
      r = psdbench::run_cluster_shed(run_opt);
    } else if (opt.workload == "sweep_paper") {
      r = psdbench::run_sweep_paper(run_opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
    r.finalize(opt.trace);
    r.print(opt.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psdbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
