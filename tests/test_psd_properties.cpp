// The three predictability/controllability properties the paper derives from
// eq. 18 (§3), verified numerically across a parameter grid, plus invariance
// properties of the allocation (property-style sweeps via TEST_P).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/psd_allocation.hpp"
#include "dist/sampler.hpp"
#include "workload/class_spec.hpp"

namespace psd {
namespace {

using Grid = std::tuple<double, double>;  // (load, delta2)

class PsdPropertyGrid : public ::testing::TestWithParam<Grid> {
 protected:
  const BoundedParetoSampler bp_{1.5, 0.1, 100.0};

  std::vector<double> lambdas() const {
    const auto [load, d2] = GetParam();
    (void)d2;
    return rates_for_equal_load(load, 1.0, bp_.mean(), 2);
  }
  std::vector<double> deltas() const {
    const auto [load, d2] = GetParam();
    (void)load;
    return {1.0, d2};
  }
};

TEST_P(PsdPropertyGrid, RatioPinnedToDeltaRatio) {
  const auto sd = expected_psd_slowdowns(lambdas(), deltas(), bp_);
  EXPECT_NEAR(sd[1] / sd[0], deltas()[1], 1e-10);
}

TEST_P(PsdPropertyGrid, Property1SlowdownIncreasesWithOwnArrivalRate) {
  auto lam = lambdas();
  const auto base = expected_psd_slowdowns(lam, deltas(), bp_);
  lam[0] *= 1.05;
  const auto bumped = expected_psd_slowdowns(lam, deltas(), bp_);
  EXPECT_GT(bumped[0], base[0]);
  EXPECT_GT(bumped[1], base[1]);  // shared capacity: everyone slows
}

TEST_P(PsdPropertyGrid, Property2DeltaRaisesOwnLowersOthers) {
  const auto lam = lambdas();
  auto d = deltas();
  const auto base = expected_psd_slowdowns(lam, d, bp_);
  d[1] *= 1.25;
  const auto bumped = expected_psd_slowdowns(lam, d, bp_);
  EXPECT_GT(bumped[1], base[1]);  // its own slowdown rises
  EXPECT_LT(bumped[0], base[0]);  // every other class improves
}

TEST_P(PsdPropertyGrid, Property3HigherClassLoadHurtsMore) {
  // Adding load to the higher class (smaller delta) increases everyone's
  // slowdown MORE than adding the same load to a lower class.
  const auto lam = lambdas();
  const auto d = deltas();
  const double eps = lam[0] * 0.05;

  auto lam_hi = lam;
  lam_hi[0] += eps;  // bump the higher class (delta 1)
  auto lam_lo = lam;
  lam_lo[1] += eps;  // bump the lower class (delta d2 > 1)

  const auto sd_hi = expected_psd_slowdowns(lam_hi, d, bp_);
  const auto sd_lo = expected_psd_slowdowns(lam_lo, d, bp_);
  EXPECT_GT(sd_hi[0], sd_lo[0]);
  EXPECT_GT(sd_hi[1], sd_lo[1]);
}

TEST_P(PsdPropertyGrid, HigherClassAlwaysFasterWithOrderedDeltas) {
  const auto sd = expected_psd_slowdowns(lambdas(), deltas(), bp_);
  EXPECT_LT(sd[0], sd[1]);  // predictability: class 1 (delta 1) is fastest
}

TEST_P(PsdPropertyGrid, AllocationInvariantUnderDeltaRescaling) {
  // Only delta *ratios* matter: scaling all deltas by a constant leaves the
  // rates untouched.
  PsdInput a;
  a.lambda = lambdas();
  a.delta = deltas();
  a.mean_size = bp_.mean();
  a.min_residual_share = 0.0;
  auto b = a;
  for (auto& x : b.delta) x *= 7.3;
  const auto ra = allocate_psd_rates(a);
  const auto rb = allocate_psd_rates(b);
  for (std::size_t i = 0; i < ra.rate.size(); ++i) {
    EXPECT_NEAR(ra.rate[i], rb.rate[i], 1e-12);
  }
}

TEST_P(PsdPropertyGrid, SlowdownDependsOnDistOnlyThroughThreeMoments) {
  // eq. 18 factorizes: doubling E[X^2]E[1/X] doubles every slowdown.
  const BoundedParetoSampler wide(1.5, 0.1, 1000.0);  // heavier tail
  const auto sd_narrow = expected_psd_slowdowns(lambdas(), deltas(), bp_);
  // Rescale lambdas so utilization matches under the wider distribution.
  const auto [load, d2] = GetParam();
  (void)d2;
  const auto lam_wide = rates_for_equal_load(load, 1.0, wide.mean(), 2);
  const auto sd_wide = expected_psd_slowdowns(lam_wide, deltas(), wide);
  const double factor_moments =
      (wide.second_moment() * wide.mean_inverse() / wide.mean()) /
      (bp_.second_moment() * bp_.mean_inverse() / bp_.mean());
  EXPECT_NEAR(sd_wide[0] / sd_narrow[0], factor_moments, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    LoadDeltaGrid, PsdPropertyGrid,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(1.5, 2.0, 4.0, 8.0)));

// ---- three-class sweeps -------------------------------------------------

class ThreeClassGrid : public ::testing::TestWithParam<double> {};

TEST_P(ThreeClassGrid, PairwiseRatiosAllPinned) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const double load = GetParam();
  const std::vector<double> delta = {1.0, 2.0, 3.0};
  const auto lam = rates_for_equal_load(load, 1.0, bp.mean(), 3);
  const auto sd = expected_psd_slowdowns(lam, delta, bp);
  EXPECT_NEAR(sd[1] / sd[0], 2.0, 1e-10);
  EXPECT_NEAR(sd[2] / sd[0], 3.0, 1e-10);
  EXPECT_NEAR(sd[2] / sd[1], 1.5, 1e-10);
}

TEST_P(ThreeClassGrid, RatesMonotoneInPriorityGivenEqualLoads) {
  // With equal lambdas, the higher class (smaller delta) gets more rate.
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  PsdInput in;
  in.delta = {1.0, 2.0, 3.0};
  in.lambda = rates_for_equal_load(GetParam(), 1.0, bp.mean(), 3);
  in.mean_size = bp.mean();
  in.min_residual_share = 0.0;
  const auto a = allocate_psd_rates(in);
  EXPECT_GT(a.rate[0], a.rate[1]);
  EXPECT_GT(a.rate[1], a.rate[2]);
}

INSTANTIATE_TEST_SUITE_P(Loads, ThreeClassGrid,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

// ---- unequal load mixes -------------------------------------------------

TEST(UnequalMix, RatiosHoldUnderSkewedShares) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const std::vector<double> delta = {1.0, 2.0};
  for (double hi_share : {0.1, 0.3, 0.7, 0.9}) {
    const auto lam =
        rates_for_load(0.6, 1.0, bp.mean(), {hi_share, 1.0 - hi_share});
    const auto sd = expected_psd_slowdowns(lam, delta, bp);
    EXPECT_NEAR(sd[1] / sd[0], 2.0, 1e-10) << "share=" << hi_share;
  }
}

TEST(UnequalMix, LoadConcentrationRaisesAbsoluteSlowdowns) {
  // eq. 18: E[S_i] ∝ sum(lambda_j/delta_j); shifting load into the higher
  // class (delta 1) increases that sum and thus all slowdowns.
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const std::vector<double> delta = {1.0, 2.0};
  const auto balanced = expected_psd_slowdowns(
      rates_for_load(0.6, 1.0, bp.mean(), {0.5, 0.5}), delta, bp);
  const auto skewed = expected_psd_slowdowns(
      rates_for_load(0.6, 1.0, bp.mean(), {0.9, 0.1}), delta, bp);
  EXPECT_GT(skewed[0], balanced[0]);
}

}  // namespace
}  // namespace psd
