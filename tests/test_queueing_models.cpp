// Analytic queueing layer: Pollaczek–Khinchin (Lemma 1), Theorem-1 scaling,
// M/D/1 eq. 15, M/G/1 against textbook M/M/1 values, cross-model
// consistency.
#include <gtest/gtest.h>

#include <cmath>

#include "dist/sampler.hpp"
#include "queueing/mg1_priority.hpp"
#include "queueing/md1.hpp"
#include "queueing/mg1.hpp"

namespace psd {
namespace {

TEST(Md1, Equation15IsLoadOnly) {
  // eq. 15: E[S] = rho/(2(1-rho)) regardless of the constant c.
  for (double c : {0.1, 1.0, 10.0}) {
    Md1 q(0.5 / c, c);
    EXPECT_NEAR(q.expected_slowdown(), 0.5, 1e-12) << "c=" << c;
  }
}

TEST(Md1, WaitScalesWithService) {
  Md1 a(0.5, 1.0);
  Md1 b(0.05, 10.0);
  EXPECT_NEAR(b.expected_wait() / a.expected_wait(), 10.0, 1e-9);
}

TEST(Md1, RateParameterActsLikeCapacity) {
  // Serving constant c at rate r == serving constant c/r at rate 1.
  Md1 scaled(0.25, 1.0, 0.5);
  Md1 direct(0.25, 2.0, 1.0);
  EXPECT_NEAR(scaled.expected_wait(), direct.expected_wait(), 1e-12);
  EXPECT_NEAR(scaled.expected_slowdown(), direct.expected_slowdown(), 1e-12);
}

TEST(Mg1, MatchesMm1ForExponentialService) {
  // P-K with E[X^2] = 2 m^2 must reproduce the textbook M/M/1 values at
  // lambda = 0.5, mu = 1: rho = 0.5, E[W] = rho / (mu - lambda) = 1,
  // E[T] = 1 / (mu - lambda) = 2.
  Mg1 g(0.5, ExponentialSampler(1.0));
  EXPECT_TRUE(g.stable());
  EXPECT_NEAR(g.utilization(), 0.5, 1e-12);
  EXPECT_NEAR(g.expected_wait(), 1.0, 1e-12);
  EXPECT_NEAR(g.expected_response(), 2.0, 1e-12);
}

TEST(Mg1, MatchesMd1ForDeterministicService) {
  const DeterministicSampler d(1.0);
  Mg1 g(0.5, d);
  Md1 m(0.5, 1.0);
  EXPECT_NEAR(g.expected_wait(), m.expected_wait(), 1e-12);
  EXPECT_NEAR(g.expected_slowdown(), m.expected_slowdown(), 1e-12);
}

TEST(Mg1, Lemma1SlowdownFactorization) {
  // E[S] = E[W] * E[1/X] for the Bounded Pareto (Lemma 1).
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const double lam = 0.5 / bp.mean();
  Mg1 g(lam, bp);
  EXPECT_NEAR(g.expected_slowdown(), g.expected_wait() * bp.mean_inverse(),
              1e-10);
}

TEST(Mg1, Theorem1ClosedForm) {
  // E[S_i] = lambda E[X^2] E[1/X] / (2 (r - lambda E[X])).
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  for (double r : {0.3, 0.5, 1.0}) {
    const double lam = 0.4 * r / bp.mean();  // rho = 0.4 at this rate
    Mg1 g(lam, bp, r);
    const double expect = lam * bp.second_moment() * bp.mean_inverse() /
                          (2.0 * (r - lam * bp.mean()));
    EXPECT_NEAR(g.expected_slowdown(), expect, 1e-10 * expect) << "r=" << r;
  }
}

TEST(Mg1, Theorem1EqualsLemma1OnScaledDistribution) {
  // Serving X at rate r == serving X/r at rate 1 (Lemma 2 consistency).
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const double r = 0.37;
  const double lam = 0.6 * r / bp.mean();
  Mg1 direct(lam, bp, r);
  const BoundedParetoSampler scaled = bp.scaled_by_rate(r);
  Mg1 unit(lam, scaled, 1.0);
  EXPECT_NEAR(direct.expected_wait(), unit.expected_wait(), 1e-10);
  EXPECT_NEAR(direct.expected_slowdown(), unit.expected_slowdown(), 1e-10);
}

TEST(Mg1, SlowdownDivergesAsRhoApproachesOne) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  double prev = 0.0;
  for (double rho : {0.5, 0.9, 0.99, 0.999}) {
    Mg1 g(rho / bp.mean(), bp);
    const double s = g.expected_slowdown();
    EXPECT_GT(s, prev);
    prev = s;
  }
  EXPECT_GT(prev, 1000.0);
}

TEST(Mg1, UnstableThrowsButUtilizationReadable) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  Mg1 g(2.0 / bp.mean(), bp);
  EXPECT_FALSE(g.stable());
  EXPECT_NEAR(g.utilization(), 2.0, 1e-12);
  EXPECT_THROW(g.expected_wait(), std::domain_error);
  EXPECT_THROW(g.expected_slowdown(), std::domain_error);
}

TEST(Mg1, MetricsBundleConsistent) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  Mg1 g(0.5 / bp.mean(), bp);
  const auto m = g.metrics();
  EXPECT_DOUBLE_EQ(m.utilization, g.utilization());
  EXPECT_DOUBLE_EQ(m.expected_wait, g.expected_wait());
  EXPECT_DOUBLE_EQ(m.expected_response, g.expected_response());
  EXPECT_DOUBLE_EQ(m.expected_slowdown, g.expected_slowdown());
  EXPECT_NEAR(m.expected_response - m.expected_wait, bp.mean(), 1e-12);
}

TEST(Mg1, RejectsNonPositiveInputs) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  EXPECT_THROW(Mg1(0.0, bp), std::invalid_argument);
  EXPECT_THROW(Mg1(1.0, bp, 0.0), std::invalid_argument);
}

TEST(Mg1SecondMoments, TakacsMatchesMm1ClosedForm) {
  // M/M/1 wait: P(W=0)=1-rho plus an exponential tail, so
  // E[W^2] = 2 rho / (mu - lambda)^2.  Takacs must reproduce it.
  const ExponentialSampler ex(1.0);
  const double lam = 0.5;
  Mg1 g(lam, ex, 1.0, /*E[X^3]=*/6.0);
  EXPECT_NEAR(g.wait_second_moment(), 2.0 * 0.5 / 0.25, 1e-12);
}

TEST(Mg1SecondMoments, RequiresThirdMoment) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  Mg1 g(0.5 / bp.mean(), bp);  // third moment not supplied
  EXPECT_THROW(g.wait_second_moment(), std::domain_error);
}

TEST(Mg1SecondMoments, BoundedParetoViaMomentFunction) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const double lam = 0.5 / bp.mean();
  Mg1 g(lam, bp, 1.0, bp.moment(3.0));
  const double ew = g.expected_wait();
  EXPECT_GT(g.wait_second_moment(), ew * ew);  // Var[W] > 0
  // Slowdown CV is large for heavy tails — the analytic root of the wide
  // percentile bands in the paper's Fig. 5.
  const double cv = g.slowdown_cv(bp.moment(-2.0));
  EXPECT_GT(cv, 1.0);
}

TEST(Mg1SecondMoments, SlowdownCvGrowsWithUpperBound) {
  // Fig.-12/Fig.-5 connection: a heavier tail widens the slowdown spread.
  double prev = 0.0;
  for (double p : {100.0, 1000.0, 10000.0}) {
    const BoundedParetoSampler bp(1.5, 0.1, p);
    Mg1 g(0.5 / bp.mean(), bp, 1.0, bp.moment(3.0));
    const double cv = g.slowdown_cv(bp.moment(-2.0));
    EXPECT_GT(cv, prev) << "p=" << p;
    prev = cv;
  }
}

TEST(Mg1SecondMoments, VarianceNonNegativeAcrossLoads) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  for (double rho : {0.1, 0.5, 0.9}) {
    Mg1 g(rho / bp.mean(), bp, 1.0, bp.moment(3.0));
    EXPECT_GE(g.slowdown_variance(bp.moment(-2.0)), 0.0) << rho;
  }
}

TEST(Mg1, ExponentialSlowdownUndefinedButDelayWorks) {
  // Paper §5: E[1/X] diverges under unbounded exponential service, so the
  // slowdown is undefined — yet delay/response metrics must remain usable.
  const ExponentialSampler ex(1.0);
  Mg1 g(0.5, ex);
  EXPECT_NEAR(g.expected_wait(), 1.0, 1e-12);
  EXPECT_THROW(g.expected_slowdown(), std::domain_error);
  EXPECT_THROW(g.metrics(), std::domain_error);
}

}  // namespace
}  // namespace psd
