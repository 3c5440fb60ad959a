// Microbenchmark M1: cost of one eq.-17 allocation as the class count grows.
// The allocator runs on every reallocation tick (1000 tu), so it must be
// cheap; expected O(N) with a tiny constant.
#include <benchmark/benchmark.h>

#include "core/psd_allocation.hpp"
#include "core/psd_rate_allocator.hpp"
#include "dist/sampler.hpp"

namespace {

void BM_AllocatePsdRates(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const psd::BoundedParetoSampler bp(1.5, 0.1, 100.0);
  psd::PsdInput in;
  in.mean_size = bp.mean();
  for (std::size_t i = 0; i < n; ++i) {
    in.delta.push_back(static_cast<double>(i + 1));
    in.lambda.push_back(0.8 / in.mean_size / static_cast<double>(n));
  }
  for (auto _ : state) {
    auto out = psd::allocate_psd_rates(in);
    benchmark::DoNotOptimize(out.rate.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocatePsdRates)->RangeMultiplier(4)->Range(2, 512);

void BM_ExpectedSlowdowns(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const psd::SamplerVariant bp = psd::BoundedParetoSampler(1.5, 0.1, 100.0);
  std::vector<double> lambda(n, 0.8 / bp.mean() / static_cast<double>(n));
  std::vector<double> delta;
  for (std::size_t i = 0; i < n; ++i) delta.push_back(static_cast<double>(i + 1));
  for (auto _ : state) {
    auto sd = psd::expected_psd_slowdowns(lambda, delta, bp);
    benchmark::DoNotOptimize(sd.data());
  }
}
BENCHMARK(BM_ExpectedSlowdowns)->RangeMultiplier(4)->Range(2, 512);

void BM_RuntimeAllocatorRoundTrip(benchmark::State& state) {
  const psd::BoundedParetoSampler bp(1.5, 0.1, 100.0);
  psd::PsdAllocatorConfig cfg;
  cfg.delta = {1.0, 2.0, 3.0};
  cfg.mean_size = bp.mean();
  psd::PsdRateAllocator alloc(cfg);
  const std::vector<double> lam = {0.9, 0.9, 0.9};
  for (auto _ : state) {
    auto rates = alloc.allocate(lam);
    benchmark::DoNotOptimize(rates.data());
  }
}
BENCHMARK(BM_RuntimeAllocatorRoundTrip);

}  // namespace

BENCHMARK_MAIN();
