// The three benchmark workloads and the bench-timed layer probes.  Each
// workload function runs one invocation: the untraced run (end-to-end
// metrics) or, with opt.trace, an untraced run followed by a traced run of
// the same seed (per-layer metrics).
#pragma once

#include <vector>

#include "common.hpp"
#include "dist/factory.hpp"
#include "sweep/grid.hpp"

namespace psdbench {

Result run_serve_nominal(const Options& opt);
Result run_cluster_shed(const Options& opt);
Result run_sweep_paper(const Options& opt);

/// sweep_paper's grid: the paper's loads x deltas x {dedicated, sfq}.
psd::GridSpec paper_grid();

/// Inputs of the layer probes, taken from the workload being traced.
struct ProbeInput {
  std::vector<double> delta;
  std::vector<double> lambda;  ///< Per-class arrival rates, requests/s.
  double capacity = 1.0;       ///< Work units per second.
  psd::DistSpec sizes;
  std::uint64_t seed = 1;
};

/// Time direct calls into the public functions of core, cluster,
/// admission, dist, workload, experiment and sweep, and set their
/// per-layer metrics.
void run_layer_probes(Result& r, const ProbeInput& in);

}  // namespace psdbench
