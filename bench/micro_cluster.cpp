// Cluster-tier benchmark: assignment-router dispatch cost per policy, plus
// deterministic differentiation-quality records from ManualClock cluster
// runs.
//
// Appends JSONL records to BENCH_cluster.json (suite "cluster"):
//
//   * route_<policy>   — ns per AssignmentRouter::route() decision at 4
//                        nodes, the pure dispatch overhead every cluster
//                        arrival pays (min-of-k, machine-dependent).
//   * quality_<policy> — cluster-wide windowed-median ratio error of a
//                        4-node ManualClock run, gated as
//                        window_ratio_error (lower is better).  The run is
//                        bitwise deterministic, so the gated value moves
//                        only when behavior changes — this is a drift
//                        tripwire, not a perf number.
//
//   ./micro_cluster [records.json]     (default BENCH_cluster.json)
#include <string>
#include <vector>

#include "cluster/cluster_runtime.hpp"
#include "cluster/dispatcher.hpp"
#include "dist/sampler.hpp"
#include "json_bench.hpp"

namespace {

using namespace psd;

constexpr std::size_t kNodes = 4;

double route_cost_ns(const AssignmentSpec& spec) {
  AssignmentRouter router(spec, kNodes, Rng(0xC1A5Bu),
                          BoundedParetoSampler(1.5, 0.1, 100.0));

  // Pre-drawn request sizes (the SITA band lookup cost depends on them) and
  // a rotating synthetic load vector (the LWL/JSQ scan input).
  const SamplerVariant sampler =
      make_sampler(DistSpec::bounded_pareto(1.5, 0.1, 100.0));
  Rng rng(0xD15Bu);
  std::vector<double> sizes(4096);
  for (auto& s : sizes) s = const_cast<SamplerVariant&>(sampler).sample(rng);
  std::vector<double> load(kNodes, 0.0);
  std::size_t i = 0;
  return bench::min_ns_per_op(1 << 14, 1 << 18, 5, [&] {
    load[i & (kNodes - 1)] = static_cast<double>((i * 7) % 13);
    const std::size_t n = router.route(sizes[i & 4095], load);
    ++i;
    return static_cast<double>(n);
  });
}

double quality_ratio_error(const AssignmentSpec& spec) {
  rt::ClusterRtConfig cfg;
  cfg.nodes = kNodes;
  cfg.assignment = spec;
  cfg.node.delta = {1.0, 2.0};
  cfg.node.load = 0.6;
  // SITA-E requires (and is built for) the heavy-tailed default; JSQ(2)'s
  // sampled-of-2 signal is seed-noisy under bounded-pareto giants on
  // 1-shard nodes, so its tripwire runs the light-tailed uniform dist —
  // the same split the CI smokes use.
  if (spec.policy != AssignmentPolicy::kSizeInterval) {
    cfg.node.size_dist = DistSpec::uniform(0.5, 1.5);
  }
  cfg.node.warmup = 0.5;
  cfg.node.duration = 4.0;
  cfg.node.seed = 0xBE9C4u;
  rt::ClusterRuntime cluster(cfg, rt::ManualClock());
  // Step at the inter-arrival timescale: coarse manual steps batch arrivals
  // and the co-batched classes then share GPS capacity from equal start
  // times, compressing the measured ratio toward 1.
  for (double t = 0.0; t < cfg.node.duration; t += 0.0002) {
    cluster.step_to(t);
  }
  cluster.step_to(cfg.node.duration);
  cluster.quiesce();
  cluster.finish();
  return cluster.report().max_window_ratio_error;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_cluster.json";

  const std::vector<AssignmentSpec> policies = {
      AssignmentPolicy::kRandom,
      AssignmentPolicy::kRoundRobin,
      AssignmentPolicy::kLeastWorkLeft,
      AssignmentPolicy::kSizeInterval,
      {AssignmentPolicy::kJsq, 2},
  };

  for (const AssignmentSpec& spec : policies) {
    const double ns = route_cost_ns(spec);
    bench::emit_record(path, "cluster", "route_" + spec.name(),
                       "\"impl\":\"router\",\"nodes\":4", ns, 1 << 18);
  }

  // Quality tripwires: deterministic, so the 25% gate effectively demands
  // "unchanged" — JSQ(2) and SITA-E exercise both router load signals.
  for (const AssignmentSpec& spec :
       {AssignmentSpec{AssignmentPolicy::kJsq, 2},
        AssignmentSpec{AssignmentPolicy::kSizeInterval}}) {
    bench::emit_metric_record(path, "cluster", "quality_" + spec.name(),
                              "\"impl\":\"manualclock\",\"nodes\":4",
                              "window_ratio_error", quality_ratio_error(spec),
                              "lower", 1);
  }
  return 0;
}
