// Bounded Pareto sampler: closed-form moments vs numeric integration vs
// sampling; inverse-transform correctness; Lemma-2 rate scaling —
// parameterized across the (alpha, k, p) grid the paper sweeps in
// Figs. 11-12.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "dist/sampler.hpp"
#include "stats/online.hpp"

namespace psd {
namespace {

/// pdf(x) = g x^{-alpha-1} on [k, p].
double bp_pdf(const BoundedParetoSampler& bp, double x) {
  return bp.normalizer() * std::pow(x, -bp.alpha() - 1.0);
}

/// CDF oracle: (1 - (k/x)^alpha) / (1 - (k/p)^alpha) on [k, p].
double bp_cdf(const BoundedParetoSampler& bp, double x) {
  const double k = bp.min_value(), p = bp.max_value(), a = bp.alpha();
  return (1.0 - std::pow(k / x, a)) / (1.0 - std::pow(k / p, a));
}

TEST(BoundedPareto, RejectsInvalidParameters) {
  EXPECT_THROW(BoundedParetoSampler(0.0, 0.1, 100.0), std::invalid_argument);
  EXPECT_THROW(BoundedParetoSampler(1.5, 0.0, 100.0), std::invalid_argument);
  EXPECT_THROW(BoundedParetoSampler(1.5, -1.0, 100.0), std::invalid_argument);
  EXPECT_THROW(BoundedParetoSampler(1.5, 100.0, 100.0), std::invalid_argument);
  EXPECT_THROW(BoundedParetoSampler(1.5, 100.0, 0.1), std::invalid_argument);
}

TEST(BoundedPareto, PdfIntegratesToOne) {
  // Checks the normalizer g that SITA-E and moment(n) build on.
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const double total =
      integrate([&](double x) { return bp_pdf(bp, x); }, 0.1, 100.0);
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(BoundedPareto, InverseCdfRoundTrip) {
  // sample() is the inverse CDF of its uniform draw: replay the stream and
  // map each variate back through the CDF.  Covers every fast path.
  for (double alpha : {1.0, 1.5, 2.0, 2.7}) {
    const BoundedParetoSampler bp(alpha, 0.1, 100.0);
    Rng draws(7), uniforms(7);
    for (int i = 0; i < 2000; ++i) {
      const double u = uniforms.uniform01();
      const double x = bp.sample(draws);
      ASSERT_GE(x, bp.min_value());
      ASSERT_LE(x, bp.max_value());
      EXPECT_NEAR(bp_cdf(bp, x), u, 1e-10) << "alpha=" << alpha;
    }
  }
}

TEST(BoundedPareto, PaperDefaultMoments) {
  // The exact scalars driving every figure: BP(1.5, 0.1, 100).
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  EXPECT_NEAR(bp.mean(), 0.29052, 1e-4);
  EXPECT_NEAR(bp.second_moment(), 0.91871, 1e-4);
  EXPECT_NEAR(bp.mean_inverse(), 6.0002, 1e-3);
}

using BpParams = std::tuple<double, double, double>;

class BpMomentGrid : public ::testing::TestWithParam<BpParams> {
 protected:
  BoundedParetoSampler make() const {
    const auto [a, k, p] = GetParam();
    return BoundedParetoSampler(a, k, p);
  }
};

TEST_P(BpMomentGrid, ClosedFormMatchesQuadrature) {
  const auto bp = make();
  for (double n : {-1.0, 1.0, 2.0}) {
    const double closed = bp.moment(n);
    const double numeric = integrate(
        [&](double x) { return std::pow(x, n) * bp_pdf(bp, x); },
        bp.min_value(), bp.max_value(), 1e-11);
    EXPECT_NEAR(closed / numeric, 1.0, 1e-6)
        << "n=" << n << " " << bp.name();
  }
}

TEST_P(BpMomentGrid, SampleMomentsMatchClosedForm) {
  const auto bp = make();
  Rng rng(99);
  OnlineMoments m, inv;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double x = bp.sample(rng);
    ASSERT_GE(x, bp.min_value());
    ASSERT_LE(x, bp.max_value());
    m.add(x);
    inv.add(1.0 / x);
  }
  // Heavy tails converge slowly in the sample mean (p = 10^4 gives a
  // non-negligible mass of 1000x-mean outliers); 10% is still a strong check.
  EXPECT_NEAR(m.mean() / bp.mean(), 1.0, 0.10) << bp.name();
  EXPECT_NEAR(inv.mean() / bp.mean_inverse(), 1.0, 0.02) << bp.name();
}

TEST_P(BpMomentGrid, Lemma2ScalingOfAllThreeMoments) {
  const auto bp = make();
  for (double r : {0.25, 0.5, 2.0, 7.5}) {
    const BoundedParetoSampler scaled = bp.scaled_by_rate(r);
    // Lemma 2: E[X_i] = E[X]/r, E[X_i^2] = E[X^2]/r^2, E[1/X_i] = r E[1/X].
    EXPECT_NEAR(scaled.mean(), bp.mean() / r, 1e-9 * bp.mean() / r);
    EXPECT_NEAR(scaled.second_moment(), bp.second_moment() / (r * r),
                1e-9 * bp.second_moment() / (r * r));
    EXPECT_NEAR(scaled.mean_inverse(), r * bp.mean_inverse(),
                1e-9 * r * bp.mean_inverse());
    // Support scales as [k/r, p/r] (paper's task-server distribution).
    EXPECT_NEAR(scaled.min_value(), bp.min_value() / r, 1e-12);
    EXPECT_NEAR(scaled.max_value(), bp.max_value() / r, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaKPGrid, BpMomentGrid,
    ::testing::Values(BpParams{1.5, 0.1, 100.0},   // paper default
                      BpParams{1.0, 0.1, 100.0},   // alpha == 1 edge
                      BpParams{2.0, 0.1, 100.0},   // alpha == E[X^2] edge
                      BpParams{1.1, 0.1, 100.0},
                      BpParams{1.9, 0.5, 50.0},
                      BpParams{1.5, 0.1, 1000.0},  // Fig. 12 sweep
                      BpParams{1.5, 0.1, 10000.0},
                      BpParams{0.8, 1.0, 10.0},    // alpha < 1
                      BpParams{3.0, 2.0, 200.0}));

TEST(BoundedPareto, AlphaEqualsMomentOrderUsesLogForm) {
  // E[X^n] at n == alpha switches to g*ln(p/k); check continuity around it.
  const BoundedParetoSampler bp(2.0, 0.1, 100.0);
  const double at = bp.moment(2.0);
  const double below = bp.moment(2.0 - 1e-7);
  const double above = bp.moment(2.0 + 1e-7);
  EXPECT_NEAR(at / below, 1.0, 1e-4);
  EXPECT_NEAR(at / above, 1.0, 1e-4);
}

TEST(BoundedPareto, ShapeParameterEffectMatchesFig11Narrative) {
  // Paper §4.5: smaller alpha => larger E[X^2] (burstier) => larger slowdown;
  // E[1/X] shrinks slightly as alpha falls.
  const BoundedParetoSampler lo(1.1, 0.1, 100.0), hi(1.9, 0.1, 100.0);
  EXPECT_GT(lo.second_moment(), hi.second_moment());
  EXPECT_GT(lo.second_moment() * lo.mean_inverse(),
            hi.second_moment() * hi.mean_inverse());
}

TEST(BoundedPareto, UpperBoundEffectMatchesFig12Narrative) {
  // Paper §4.5: larger p => larger E[X^2], E[1/X] nearly unchanged.
  const BoundedParetoSampler p100(1.5, 0.1, 100.0), p10k(1.5, 0.1, 10000.0);
  EXPECT_GT(p10k.second_moment(), p100.second_moment());
  EXPECT_NEAR(p10k.mean_inverse() / p100.mean_inverse(), 1.0, 0.01);
}

TEST(BoundedPareto, CopyIsIndependentAndEqual) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const BoundedParetoSampler c = bp;  // plain value copy, no heap clone
  EXPECT_EQ(c.name(), bp.name());
  EXPECT_DOUBLE_EQ(c.mean(), bp.mean());
}

TEST(BoundedPareto, ScvIsLargeForHeavyTail) {
  const SamplerVariant bp = BoundedParetoSampler(1.5, 0.1, 100.0);
  EXPECT_GT(bp.scv(), 5.0);  // strongly non-exponential
}

}  // namespace
}  // namespace psd
