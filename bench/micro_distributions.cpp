// Microbenchmark M3, grown into the hot-path suite: sampling throughput of
// the distribution layer, per-draw and batched, plus a campaign-engine
// points/sec record.  The request generators draw one arrival gap and one
// size per request, so ns/sample here bounds every simulation bench.
//
// Two measurements per distribution:
//   * variant — SamplerVariant::sample(): one std::visit, fast-path math
//               (ziggurat exponentials, alias tables, cached BP exponents),
//   * batched — SamplerVariant::sample_n(): one visit per 256 draws, the
//               refill path the generators actually run.
//
// Appends JSONL to BENCH_hot_path.json (shared with micro_simulator's
// end-to-end ns/request records; CI gates on the combined file).
//
//   ./micro_distributions [records.json]
#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "dist/sampler.hpp"
#include "dist/ziggurat.hpp"
#include "json_bench.hpp"
#include "sweep/campaign.hpp"

namespace {

using namespace psd;
using bench::emit_record;
using bench::min_ns_per_op;

constexpr std::uint64_t kIters = 2'000'000;
constexpr int kRepeats = 5;
constexpr std::size_t kBlock = 256;

void bench_dist(const std::string& path, const std::string& bench,
                const SamplerVariant& sampler) {
  Rng rng(42);
  const double variant_ns = min_ns_per_op(
      kIters / 5, kIters, kRepeats, [&] { return sampler.sample(rng); });
  emit_record(path, "distributions", bench, "\"impl\":\"variant\"", variant_ns,
              kIters);

  double block[kBlock];
  const double batched_ns =
      min_ns_per_op(kIters / (5 * kBlock), kIters / kBlock, kRepeats, [&] {
        sampler.sample_n(rng, block, kBlock);
        return block[0];
      }) /
      static_cast<double>(kBlock);
  emit_record(path, "distributions", bench,
              "\"impl\":\"batched\",\"block\":" + std::to_string(kBlock),
              batched_ns, kIters);

  std::printf("%-18s variant %6.2f  batched %6.2f ns/sample\n", bench.c_str(),
              variant_ns, batched_ns);
}

void bench_rng_primitives(const std::string& path) {
  Rng rng(7);
  const double inv_ns = min_ns_per_op(kIters / 5, kIters, kRepeats,
                                      [&] { return rng.exponential(1.0); });
  emit_record(path, "rng", "exponential", "\"impl\":\"inverse_log\"", inv_ns,
              kIters);
  const double zig_ns = min_ns_per_op(
      kIters / 5, kIters, kRepeats, [&] { return ziggurat_exponential(rng); });
  emit_record(path, "rng", "exponential", "\"impl\":\"ziggurat\"", zig_ns,
              kIters);
  const double uni_ns = min_ns_per_op(kIters / 5, kIters, kRepeats,
                                      [&] { return rng.uniform01(); });
  emit_record(path, "rng", "uniform01", "\"impl\":\"xoshiro\"", uni_ns, kIters);
  std::printf("%-18s inverse %5.2f  ziggurat %5.2f (%.2fx) ns/draw\n",
              "exp(1) draw", inv_ns, zig_ns, inv_ns / zig_ns);
}

// Campaign throughput with the devirtualized hot path: the sweep engine's
// points/sec is the number every figure reproduction ultimately waits on.
void bench_campaign(const std::string& path) {
  GridSpec grid;
  grid.base.warmup_tu = 500.0;
  grid.base.measure_tu = 4000.0;
  grid.loads = {0.3, 0.6, 0.9};
  grid.backends = {BackendKind::kDedicated, BackendKind::kSfq};
  grid.deltas = {{1.0, 2.0}};
  CampaignOptions opt;
  opt.runs = 8;
  opt.master_seed = 42;
  const auto result = run_campaign(grid, opt);
  char extra[192];
  std::snprintf(extra, sizeof(extra),
                "\"impl\":\"variant\",\"points\":%zu,\"runs\":%zu,"
                "\"threads\":%zu,\"points_per_sec\":%.4f",
                result.points.size(), opt.runs, result.threads,
                result.points_per_sec());
  emit_record(path, "campaign", "points_per_sec", extra,
              result.wall_seconds * 1e9 /
                  static_cast<double>(result.points.size()),
              result.points.size());
  std::printf("%-18s %.2f points/s (%zu points x %zu runs, %zu threads)\n",
              "campaign", result.points_per_sec(), result.points.size(),
              opt.runs, result.threads);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : psd::bench::kHotPathRecordsPath;

  bench_dist(path, "bounded_pareto15", BoundedParetoSampler(1.5, 0.1, 100.0));
  bench_dist(path, "bounded_pareto27", BoundedParetoSampler(2.7, 0.1, 100.0));
  bench_dist(path, "exponential", ExponentialSampler(1.0));
  bench_dist(path, "bounded_exp", BoundedExponentialSampler(1.0, 0.1, 10.0));
  bench_dist(path, "lognormal", LognormalSampler::from_mean_scv(1.0, 4.0));
  bench_dist(path, "uniform", UniformSampler(0.5, 2.0));
  bench_dist(path, "deterministic", DeterministicSampler(1.0));
  // Mixture: the storefront-style det + heavy-tail blend.
  bench_dist(path, "mixture_det_bp",
             MixtureSampler({{0.6, DeterministicSampler(0.3)},
                             {0.4, BoundedParetoSampler(1.5, 0.1, 50.0)}}));

  bench_rng_primitives(path);
  bench_campaign(path);

  std::printf("done; records appended to %s\n", path.c_str());
  return 0;
}
