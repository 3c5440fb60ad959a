// Mixture distribution + heterogeneous PSD allocation (the per-class-
// distribution generalization of eq. 17) + session-workload integration.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "core/hetero_psd_allocator.hpp"
#include "core/psd_allocation.hpp"
#include "dist/sampler.hpp"
#include "stats/online.hpp"
#include "workload/session.hpp"

namespace psd {
namespace {

MixtureSampler two_point_mixture() {
  return MixtureSampler(
      {{1.0, DeterministicSampler(1.0)}, {3.0, DeterministicSampler(2.0)}});
}

TEST(Mixture, MomentsAreWeightedAverages) {
  const auto m = two_point_mixture();
  // Weights normalize to (0.25, 0.75).
  EXPECT_DOUBLE_EQ(m.mean(), 0.25 * 1.0 + 0.75 * 2.0);
  EXPECT_DOUBLE_EQ(m.second_moment(), 0.25 * 1.0 + 0.75 * 4.0);
  EXPECT_DOUBLE_EQ(m.mean_inverse(), 0.25 * 1.0 + 0.75 * 0.5);
  EXPECT_DOUBLE_EQ(m.min_value(), 1.0);
  EXPECT_DOUBLE_EQ(m.max_value(), 2.0);
}

TEST(Mixture, SamplingMatchesWeights) {
  const auto m = two_point_mixture();
  Rng rng(3);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ones += (m.sample(rng) == 1.0);
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.25, 0.01);
}

TEST(Mixture, HeavyTailComponentDominatesSecondMoment) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const MixtureSampler m({{0.5, DeterministicSampler(0.3)}, {0.5, bp}});
  EXPECT_NEAR(m.second_moment(), 0.5 * 0.09 + 0.5 * bp.second_moment(), 1e-9);
  Rng rng(4);
  OnlineMoments inv;
  for (int i = 0; i < 200000; ++i) inv.add(1.0 / m.sample(rng));
  EXPECT_NEAR(inv.mean() / m.mean_inverse(), 1.0, 0.02);
}

TEST(Mixture, RateScalingScalesComponents) {
  const MixtureSampler m = two_point_mixture();
  const MixtureSampler s = m.scaled_by_rate(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), m.mean() / 2.0);
  EXPECT_DOUBLE_EQ(s.mean_inverse(), 2.0 * m.mean_inverse());
}

TEST(Mixture, RejectsBadComponents) {
  EXPECT_THROW(MixtureSampler(std::vector<MixtureComponent>{}),
               std::invalid_argument);
  EXPECT_THROW(MixtureSampler({{0.0, DeterministicSampler(1.0)}}),
               std::invalid_argument);
}

// ---- heterogeneous allocation -------------------------------------------

TEST(HeteroEq17, ReducesToHomogeneousWithIdenticalDistributions) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const std::vector<double> lambda = {0.8, 0.6};
  const std::vector<double> delta = {1.0, 2.0};

  PsdInput homo;
  homo.lambda = lambda;
  homo.delta = delta;
  homo.mean_size = bp.mean();
  homo.min_residual_share = 0.0;

  HeteroPsdInput het;
  het.lambda = lambda;
  het.delta = delta;
  het.dist = {bp, bp};
  het.min_residual_share = 0.0;

  const auto a = allocate_psd_rates(homo);
  const auto b = allocate_psd_rates_hetero(het);
  EXPECT_NEAR(a.rate[0], b.rate[0], 1e-12);
  EXPECT_NEAR(a.rate[1], b.rate[1], 1e-12);
}

TEST(HeteroEq17, RatesSumToCapacityAndExceedDemand) {
  const DeterministicSampler d1(0.4);
  const BoundedParetoSampler d2(1.5, 0.1, 100.0);
  HeteroPsdInput in;
  in.lambda = {0.5, 0.9};
  in.delta = {1.0, 2.0};
  in.dist = {d1, d2};
  in.min_residual_share = 0.0;
  const auto a = allocate_psd_rates_hetero(in);
  EXPECT_NEAR(std::accumulate(a.rate.begin(), a.rate.end(), 0.0), 1.0, 1e-12);
  EXPECT_GT(a.rate[0], 0.5 * 0.4);
  EXPECT_GT(a.rate[1], 0.9 * d2.mean());
}

TEST(HeteroEq17, PredictedSlowdownsHitDeltaRatios) {
  const DeterministicSampler d1(0.4);
  const BoundedParetoSampler d2(1.5, 0.1, 100.0);
  const std::vector<double> lambda = {0.5, 0.9};
  const std::vector<double> delta = {1.0, 3.0};
  const std::vector<SamplerVariant> dist = {d1, d2};
  const auto sd = expected_psd_slowdowns_hetero(lambda, delta, dist);
  EXPECT_NEAR(sd[1] / sd[0], 3.0, 1e-12);
}

TEST(HeteroEq17, Theorem1ConsistencyPerClass) {
  // Applying Theorem 1 to each class's own distribution at the hetero rates
  // must reproduce the predicted slowdowns (ignoring floors).
  const DeterministicSampler d1(0.4);
  const BoundedParetoSampler d2(1.5, 0.1, 100.0);
  HeteroPsdInput in;
  in.lambda = {0.5, 0.9};
  in.delta = {1.0, 3.0};
  in.dist = {d1, d2};
  in.min_residual_share = 0.0;
  const auto a = allocate_psd_rates_hetero(in);
  const auto sd = expected_psd_slowdowns_hetero(in.lambda, in.delta, in.dist);
  EXPECT_NEAR(theorem1_slowdown(in.lambda[0], d1, a.rate[0]) / sd[0], 1.0,
              1e-9);
  EXPECT_NEAR(theorem1_slowdown(in.lambda[1], d2, a.rate[1]) / sd[1], 1.0,
              1e-9);
}

TEST(HeteroEq17, OverloadClampWorks) {
  const DeterministicSampler d1(1.0);
  HeteroPsdInput in;
  in.lambda = {2.0};
  in.delta = {1.0};
  in.dist = {d1};
  in.overload = OverloadPolicy::kClamp;
  in.rho_max = 0.9;
  const auto a = allocate_psd_rates_hetero(in);
  EXPECT_TRUE(a.clamped);
  EXPECT_NEAR(a.utilization, 0.9, 1e-12);
  in.overload = OverloadPolicy::kThrow;
  EXPECT_THROW(allocate_psd_rates_hetero(in), std::domain_error);
}

TEST(HeteroAllocator, RuntimeAdapterMatchesClosedForm) {
  const DeterministicSampler d1(0.4);
  const BoundedParetoSampler d2(1.5, 0.1, 100.0);
  HeteroPsdAllocator alloc({1.0, 2.0}, {d1, d2}, 1.0, 0.98, 0.0);
  const std::vector<double> lam = {0.5, 0.9};
  const auto rates = alloc.allocate(lam);
  HeteroPsdInput in;
  in.lambda = lam;
  in.delta = {1.0, 2.0};
  in.dist = {d1, d2};
  in.min_residual_share = 0.0;
  const auto direct = allocate_psd_rates_hetero(in);
  EXPECT_NEAR(rates[0], direct.rate[0], 1e-12);
  EXPECT_NEAR(rates[1], direct.rate[1], 1e-12);
}

// ---- session integration --------------------------------------------------

TEST(SessionMixtures, ClassMixtureMomentsArePositiveAndOrdered) {
  const auto profile = SessionProfile::storefront(0.3);
  const auto mix = profile.class_mixtures(2);
  ASSERT_EQ(mix.size(), 2u);
  for (const auto& m : mix) {
    EXPECT_GT(m.mean(), 0.0);
    EXPECT_GT(m.second_moment(), 0.0);
    EXPECT_GT(m.mean_inverse(), 0.0);
  }
  // The browsing class mixes heavy-tailed states: bigger second moment.
  EXPECT_GT(mix[1].second_moment(), mix[0].second_moment());
}

TEST(SessionMixtures, MixtureMeanMatchesEmpiricalSessionSizes) {
  // Sample sizes emitted by the session generator for each class and compare
  // against the analytic mixture mean.
  const auto profile = SessionProfile::storefront(0.5);
  const auto mix = profile.class_mixtures(2);

  Simulator sim;
  struct Sink final : RequestSink {
    OnlineMoments size_by_class[2];
    void submit(const Request& r) override { size_by_class[r.cls].add(r.size); }
  } sink;
  SessionWorkload w(sim, Rng(8), profile, sink);
  w.start(0.0);
  sim.run_until(30000.0);
  w.stop();
  for (int c = 0; c < 2; ++c) {
    ASSERT_GT(sink.size_by_class[c].count(), 1000u);
    EXPECT_NEAR(sink.size_by_class[c].mean() / mix[c].mean(), 1.0, 0.1)
        << "class " << c;
  }
}

}  // namespace
}  // namespace psd
