// Runtime allocator adapters: PSD (eq. 17), baselines, overload clamping.
#include <gtest/gtest.h>

#include <numeric>

#include "baselines/static_allocators.hpp"
#include "core/psd_rate_allocator.hpp"
#include "dist/sampler.hpp"
#include "workload/class_spec.hpp"

namespace psd {
namespace {

PsdAllocatorConfig paper_cfg() {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  PsdAllocatorConfig c;
  c.delta = {1.0, 2.0};
  c.capacity = 1.0;
  c.mean_size = bp.mean();
  return c;
}

TEST(PsdRateAllocator, MatchesClosedFormOnTrueLambdas) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  auto cfg = paper_cfg();
  cfg.min_residual_share = 0.0;
  PsdRateAllocator alloc(cfg);
  const auto lam = rates_for_equal_load(0.5, 1.0, bp.mean(), 2);
  const auto rates = alloc.allocate(lam);
  PsdInput in;
  in.lambda = lam;
  in.delta = cfg.delta;
  in.mean_size = cfg.mean_size;
  in.min_residual_share = 0.0;
  const auto direct = allocate_psd_rates(in);
  EXPECT_NEAR(rates[0], direct.rate[0], 1e-12);
  EXPECT_NEAR(rates[1], direct.rate[1], 1e-12);
  EXPECT_EQ(alloc.name(), "psd-eq17");
}

TEST(PsdRateAllocator, AlwaysFeasibleUnderEstimatorSpikes) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  PsdRateAllocator alloc(paper_cfg());
  // Estimate spike: 5x the capacity.
  const auto lam = rates_for_equal_load(0.9, 1.0, bp.mean(), 2);
  const std::vector<double> spike = {lam[0] * 5, lam[1] * 5};
  const auto rates = alloc.allocate(spike);
  EXPECT_NEAR(std::accumulate(rates.begin(), rates.end(), 0.0), 1.0, 1e-9);
  EXPECT_EQ(alloc.clamp_events(), 1u);
  for (double r : rates) EXPECT_GT(r, 0.0);
}

TEST(PsdRateAllocator, ColdStartZeroEstimatesSplitEvenly) {
  PsdRateAllocator alloc(paper_cfg());
  const auto rates = alloc.allocate({0.0, 0.0});
  EXPECT_NEAR(rates[0], 0.5, 1e-12);
  EXPECT_NEAR(rates[1], 0.5, 1e-12);
}

TEST(PsdRateAllocator, RejectsSizeMismatch) {
  PsdRateAllocator alloc(paper_cfg());
  EXPECT_THROW(alloc.allocate({1.0}), std::invalid_argument);
}

TEST(PsdRateAllocator, RejectsBadConfig) {
  auto bad = paper_cfg();
  bad.delta.clear();
  EXPECT_THROW(PsdRateAllocator{bad}, std::invalid_argument);
  bad = paper_cfg();
  bad.mean_size = 0.0;
  EXPECT_THROW(PsdRateAllocator{bad}, std::invalid_argument);
}

TEST(EqualShare, ConstantRegardlessOfLoad) {
  EqualShareAllocator alloc(4, 2.0);
  const auto r1 = alloc.allocate({0.0, 0.0, 0.0, 0.0});
  const auto r2 = alloc.allocate({5.0, 0.1, 2.0, 9.0});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(r1[i], 0.5);
    EXPECT_DOUBLE_EQ(r2[i], 0.5);
  }
  EXPECT_EQ(alloc.name(), "equal-share");
}

TEST(LoadProportional, TracksWorkDemand) {
  LoadProportionalAllocator alloc(2, 1.0, 0.5);
  const auto r = alloc.allocate({3.0, 1.0});
  EXPECT_NEAR(r[0], 0.75, 1e-9);
  EXPECT_NEAR(r[1], 0.25, 1e-9);
}

TEST(LoadProportional, ZeroTotalFallsBackToEqual) {
  LoadProportionalAllocator alloc(2, 1.0, 0.5);
  const auto r = alloc.allocate({0.0, 0.0});
  EXPECT_DOUBLE_EQ(r[0], 0.5);
}

TEST(LoadProportional, IdleClassKeepsTrickle) {
  LoadProportionalAllocator alloc(2, 1.0, 0.5);
  const auto r = alloc.allocate({4.0, 0.0});
  EXPECT_GT(r[1], 0.0);
  EXPECT_NEAR(r[0] + r[1], 1.0, 1e-9);
}

TEST(FixedRate, ReturnsPinnedRates) {
  FixedRateAllocator alloc({0.7, 0.3});
  const auto r = alloc.allocate({9.0, 9.0});
  EXPECT_DOUBLE_EQ(r[0], 0.7);
  EXPECT_DOUBLE_EQ(r[1], 0.3);
  EXPECT_THROW(FixedRateAllocator({0.5, 0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace psd
