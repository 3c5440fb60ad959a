// eq. 17 / eq. 18 — the paper's core closed forms.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "core/psd_allocation.hpp"
#include "dist/sampler.hpp"
#include "queueing/md1.hpp"
#include "workload/class_spec.hpp"

namespace psd {
namespace {

PsdInput paper_input(std::vector<double> delta, double load,
                     const BoundedParetoSampler& bp) {
  PsdInput in;
  in.delta = delta;
  in.lambda = rates_for_equal_load(load, 1.0, bp.mean(), delta.size());
  in.mean_size = bp.mean();
  in.min_residual_share = 0.0;  // pure eq. 17 for analytic checks
  return in;
}

TEST(Eq17, RatesSumToCapacity) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  for (double load : {0.1, 0.5, 0.9}) {
    const auto a = allocate_psd_rates(paper_input({1.0, 2.0}, load, bp));
    EXPECT_NEAR(a.rate[0] + a.rate[1], 1.0, 1e-12) << "load=" << load;
    EXPECT_NEAR(a.utilization, load, 1e-12);
    EXPECT_FALSE(a.clamped);
  }
}

TEST(Eq17, EachClassGetsAtLeastItsDemand) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto in = paper_input({1.0, 2.0, 3.0}, 0.8, bp);
  const auto a = allocate_psd_rates(in);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(a.rate[i], in.lambda[i] * bp.mean());
  }
}

TEST(Eq17, ClosedFormMatchesHandDerivation) {
  // r_i = lambda_i E[X] + (lambda_i/delta_i)/(sum lambda_j/delta_j) * (1-rho)
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto in = paper_input({1.0, 4.0}, 0.6, bp);
  const auto a = allocate_psd_rates(in);
  const double denom = in.lambda[0] / 1.0 + in.lambda[1] / 4.0;
  const double residual = 1.0 - 0.6;
  EXPECT_NEAR(a.rate[0],
              in.lambda[0] * bp.mean() + in.lambda[0] / 1.0 / denom * residual,
              1e-12);
  EXPECT_NEAR(a.rate[1],
              in.lambda[1] * bp.mean() + in.lambda[1] / 4.0 / denom * residual,
              1e-12);
}

TEST(Eq17, SingleClassGetsEverything) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto a = allocate_psd_rates(paper_input({1.0}, 0.5, bp));
  EXPECT_NEAR(a.rate[0], 1.0, 1e-12);
}

TEST(Eq17, EqualDeltasReduceToEqualResidualSplit) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto in = paper_input({2.0, 2.0}, 0.5, bp);
  const auto a = allocate_psd_rates(in);
  EXPECT_NEAR(a.rate[0], a.rate[1], 1e-12);  // equal lambdas + equal deltas
}

TEST(Eq17, GeneralizesToArbitraryCapacity) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  auto in = paper_input({1.0, 2.0}, 0.5, bp);
  // Doubling capacity and lambdas scales all rates by 2.
  auto in2 = in;
  in2.capacity = 2.0;
  for (auto& l : in2.lambda) l *= 2.0;
  const auto a = allocate_psd_rates(in);
  const auto a2 = allocate_psd_rates(in2);
  EXPECT_NEAR(a2.rate[0], 2.0 * a.rate[0], 1e-12);
  EXPECT_NEAR(a2.rate[1], 2.0 * a.rate[1], 1e-12);
}

TEST(Eq18, AchievesTargetRatiosExactly) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  for (double d2 : {2.0, 4.0, 8.0}) {
    const auto lam = rates_for_equal_load(0.7, 1.0, bp.mean(), 2);
    const auto sd = expected_psd_slowdowns(lam, {1.0, d2}, bp);
    EXPECT_NEAR(sd[1] / sd[0], d2, 1e-12) << "d2=" << d2;
  }
}

TEST(Eq18, EqualsTheorem1AppliedToEq17Rates) {
  // The consistency identity the whole paper rests on.
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  for (double load : {0.2, 0.5, 0.8}) {
    const auto in = paper_input({1.0, 2.0, 3.0}, load, bp);
    const auto a = allocate_psd_rates(in);
    const auto sd = expected_psd_slowdowns(in.lambda, in.delta, bp);
    for (std::size_t i = 0; i < 3; ++i) {
      const double direct = theorem1_slowdown(in.lambda[i], bp, a.rate[i]);
      EXPECT_NEAR(sd[i] / direct, 1.0, 1e-10)
          << "load=" << load << " class=" << i;
    }
  }
}

TEST(Eq18, Md1SpecialCaseViaDeterministicDistribution) {
  // eq. 15 consistency: with X == c the generic machinery must reproduce
  // rho_i / (2 (1 - rho_i)) on each task server.
  const DeterministicSampler d(0.5);
  const std::vector<double> delta = {1.0, 2.0};
  const auto lam = rates_for_equal_load(0.6, 1.0, d.mean(), 2);
  PsdInput in;
  in.lambda = lam;
  in.delta = delta;
  in.mean_size = d.mean();
  in.min_residual_share = 0.0;
  const auto a = allocate_psd_rates(in);
  const auto sd = expected_psd_slowdowns(lam, delta, d);
  for (std::size_t i = 0; i < 2; ++i) {
    Md1 md(lam[i], 0.5, a.rate[i]);
    EXPECT_NEAR(sd[i], md.expected_slowdown(), 1e-10);
  }
  EXPECT_NEAR(sd[1] / sd[0], 2.0, 1e-12);
}

TEST(Eq18, SystemSlowdownIsLambdaWeighted) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const std::vector<double> lam = {0.3, 0.9};
  const std::vector<double> delta = {1.0, 2.0};
  const auto sd = expected_psd_slowdowns(lam, delta, bp);
  const double sys = expected_system_slowdown(lam, delta, bp);
  EXPECT_NEAR(sys, (0.3 * sd[0] + 0.9 * sd[1]) / 1.2, 1e-12);
}

TEST(Overload, ThrowPolicy) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  PsdInput in = paper_input({1.0, 2.0}, 0.9, bp);
  for (auto& l : in.lambda) l *= 2.0;  // rho = 1.8
  in.overload = OverloadPolicy::kThrow;
  EXPECT_THROW(allocate_psd_rates(in), std::domain_error);
  EXPECT_FALSE(psd_feasible(in.lambda, bp.mean(), 1.0));
}

TEST(Overload, ClampPreservesMixAndFeasibility) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  PsdInput in = paper_input({1.0, 2.0}, 0.9, bp);
  in.lambda[0] *= 3.0;  // asymmetric overload
  in.overload = OverloadPolicy::kClamp;
  in.rho_max = 0.95;
  const auto a = allocate_psd_rates(in);
  EXPECT_TRUE(a.clamped);
  EXPECT_NEAR(a.utilization, 0.95, 1e-12);
  EXPECT_NEAR(std::accumulate(a.rate.begin(), a.rate.end(), 0.0), 1.0, 1e-12);
  for (double r : a.rate) EXPECT_GT(r, 0.0);
}

TEST(Floor, ZeroLambdaClassKeepsTrickleRate) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  PsdInput in = paper_input({1.0, 2.0}, 0.5, bp);
  in.lambda[1] = 0.0;  // estimator saw nothing for class 1
  in.min_residual_share = 1e-3;
  const auto a = allocate_psd_rates(in);
  EXPECT_GT(a.rate[1], 0.0);
  EXPECT_NEAR(a.rate[0] + a.rate[1], 1.0, 1e-12);
}

TEST(Floor, AllZeroLambdasSplitEvenly) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  PsdInput in = paper_input({1.0, 2.0}, 0.5, bp);
  in.lambda = {0.0, 0.0};
  const auto a = allocate_psd_rates(in);
  EXPECT_NEAR(a.rate[0], 0.5, 1e-12);
  EXPECT_NEAR(a.rate[1], 0.5, 1e-12);
}

TEST(Validation, RejectsMalformedInputs) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  PsdInput in = paper_input({1.0, 2.0}, 0.5, bp);
  auto bad = in;
  bad.delta = {1.0};
  EXPECT_THROW(allocate_psd_rates(bad), std::invalid_argument);
  bad = in;
  bad.lambda[0] = -1.0;
  EXPECT_THROW(allocate_psd_rates(bad), std::invalid_argument);
  bad = in;
  bad.delta[0] = 0.0;
  EXPECT_THROW(allocate_psd_rates(bad), std::invalid_argument);
  bad = in;
  bad.mean_size = 0.0;
  EXPECT_THROW(allocate_psd_rates(bad), std::invalid_argument);
  EXPECT_THROW(expected_psd_slowdowns({1.0}, {1.0, 2.0}, bp),
               std::invalid_argument);
}

TEST(Eq18, UnstableInputThrows) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto lam = rates_for_equal_load(0.99, 1.0, bp.mean(), 2);
  std::vector<double> heavy = {lam[0] * 3, lam[1] * 3};
  EXPECT_THROW(expected_psd_slowdowns(heavy, {1.0, 2.0}, bp),
               std::domain_error);
}

}  // namespace
}  // namespace psd
