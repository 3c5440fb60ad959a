// Non-Pareto service-time samplers: closed-form moments vs sampling and
// quadrature; Lemma-2-style rate scaling holds for every family; the
// exponential correctly refuses E[1/X] (paper §5's divergence argument); and
// each constructor rejects parameters outside its law's domain.
#include <gtest/gtest.h>

#include <cmath>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "dist/factory.hpp"
#include "dist/sampler.hpp"
#include "stats/online.hpp"

namespace psd {
namespace {

void expect_sample_moments(const SamplerVariant& d, double tol_mean = 0.02,
                           double tol_inv = 0.02, int n = 300000) {
  Rng rng(4242);
  OnlineMoments m, inv;
  for (int i = 0; i < n; ++i) {
    const double x = d.sample(rng);
    ASSERT_GT(x, 0.0);
    m.add(x);
    inv.add(1.0 / x);
  }
  EXPECT_NEAR(m.mean() / d.mean(), 1.0, tol_mean) << d.name();
  EXPECT_NEAR(inv.mean() / d.mean_inverse(), 1.0, tol_inv) << d.name();
}

/// Bounded-exponential density, written out independently of the sampler:
/// (1/m) e^{-x/m} / (e^{-lo/m} - e^{-hi/m}) on [lo, hi].
double bexp_pdf(double m, double lo, double hi, double x) {
  return std::exp(-x / m) / (m * (std::exp(-lo / m) - std::exp(-hi / m)));
}

// ---------------------------------------------------------------- exponential
TEST(Exponential, MomentsAndSampling) {
  const ExponentialSampler e(2.0);
  EXPECT_DOUBLE_EQ(e.mean(), 2.0);
  EXPECT_DOUBLE_EQ(e.second_moment(), 8.0);
  Rng rng(1);
  OnlineMoments m;
  for (int i = 0; i < 200000; ++i) m.add(e.sample(rng));
  EXPECT_NEAR(m.mean(), 2.0, 0.05);
}

TEST(Exponential, MeanInverseDiverges) {
  // The paper's related-work point: slowdown has no finite expectation under
  // unbounded exponential service times.
  const ExponentialSampler e(1.0);
  EXPECT_THROW(e.mean_inverse(), std::domain_error);
}

TEST(Exponential, RateScaling) {
  const ExponentialSampler e(3.0);
  const ExponentialSampler s = e.scaled_by_rate(1.5);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

// --------------------------------------------------------- bounded exponential
TEST(BoundedExponential, MomentsMatchQuadrature) {
  const BoundedExponentialSampler be(1.0, 0.05, 8.0);
  const auto pdf = [](double x) { return bexp_pdf(1.0, 0.05, 8.0, x); };
  const auto num_mean =
      integrate([&](double x) { return x * pdf(x); }, 0.05, 8.0, 1e-12);
  const auto num_m2 =
      integrate([&](double x) { return x * x * pdf(x); }, 0.05, 8.0, 1e-12);
  EXPECT_NEAR(be.mean(), num_mean, 1e-8);
  EXPECT_NEAR(be.second_moment(), num_m2, 1e-8);
  // The oracle density integrates to 1.
  EXPECT_NEAR(integrate(pdf, 0.05, 8.0), 1.0, 1e-8);
}

TEST(BoundedExponential, FiniteMeanInverseUnlikeUnbounded) {
  const BoundedExponentialSampler be(1.0, 0.05, 8.0);
  EXPECT_GT(be.mean_inverse(), 0.0);
  EXPECT_LT(be.mean_inverse(), 1.0 / 0.05);
  expect_sample_moments(be);
}

TEST(BoundedExponential, SamplesStayInBounds) {
  const BoundedExponentialSampler be(2.0, 0.5, 4.0);
  Rng rng(2);
  for (int i = 0; i < 50000; ++i) {
    const double x = be.sample(rng);
    EXPECT_GE(x, 0.5);
    EXPECT_LE(x, 4.0);
  }
}

TEST(BoundedExponential, RateScalingScalesAllMoments) {
  const BoundedExponentialSampler be(1.0, 0.1, 10.0);
  const BoundedExponentialSampler s = be.scaled_by_rate(2.0);
  EXPECT_NEAR(s.mean(), be.mean() / 2.0, 1e-9);
  EXPECT_NEAR(s.second_moment(), be.second_moment() / 4.0, 1e-9);
  EXPECT_NEAR(s.mean_inverse(), 2.0 * be.mean_inverse(), 1e-6);
}

TEST(BoundedExponential, RejectsZeroLowerBound) {
  EXPECT_THROW(BoundedExponentialSampler(1.0, 0.0, 5.0), std::invalid_argument);
}

// -------------------------------------------------------------- deterministic
TEST(Deterministic, AllMomentsExact) {
  const SamplerVariant d = DeterministicSampler(2.5);
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
  EXPECT_DOUBLE_EQ(d.second_moment(), 6.25);
  EXPECT_DOUBLE_EQ(d.mean_inverse(), 0.4);
  EXPECT_DOUBLE_EQ(d.scv(), 0.0);
  Rng rng(3);
  EXPECT_DOUBLE_EQ(d.sample(rng), 2.5);
}

TEST(Deterministic, RateScaling) {
  const DeterministicSampler d(3.0);
  const DeterministicSampler s = d.scaled_by_rate(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.5);
  EXPECT_DOUBLE_EQ(s.mean_inverse(), 2.0);
}

// ------------------------------------------------------------------ lognormal
TEST(Lognormal, ClosedFormMoments) {
  const LognormalSampler ln(0.5, 0.75);
  const double s2 = 0.75 * 0.75;
  EXPECT_NEAR(ln.mean(), std::exp(0.5 + s2 / 2), 1e-12);
  EXPECT_NEAR(ln.second_moment(), std::exp(1.0 + 2 * s2), 1e-12);
  EXPECT_NEAR(ln.mean_inverse(), std::exp(-0.5 + s2 / 2), 1e-12);
  expect_sample_moments(ln, 0.03, 0.03);
}

TEST(Lognormal, FromMeanScvRoundTrip) {
  const SamplerVariant ln = LognormalSampler::from_mean_scv(2.0, 4.0);
  EXPECT_NEAR(ln.mean(), 2.0, 1e-9);
  EXPECT_NEAR(ln.scv(), 4.0, 1e-9);
}

TEST(Lognormal, RateScalingShiftsMu) {
  const LognormalSampler ln(1.0, 0.5);
  const LognormalSampler s = ln.scaled_by_rate(std::exp(1.0));
  EXPECT_NEAR(s.mean(), ln.mean() / std::exp(1.0), 1e-9);
}

// -------------------------------------------------------------------- uniform
TEST(Uniform, ClosedFormMoments) {
  const UniformSampler u(1.0, 3.0);
  EXPECT_DOUBLE_EQ(u.mean(), 2.0);
  EXPECT_NEAR(u.second_moment(), 13.0 / 3.0, 1e-12);
  EXPECT_NEAR(u.mean_inverse(), std::log(3.0) / 2.0, 1e-12);
  expect_sample_moments(u, 0.01, 0.01);
}

TEST(Uniform, RequiresPositiveLowerBound) {
  EXPECT_THROW(UniformSampler(0.0, 1.0), std::invalid_argument);
}

// -------------------------------------------------------------------- factory
TEST(Factory, BuildsEveryKind) {
  EXPECT_EQ(make_sampler(DistSpec::bounded_pareto(1.5, 0.1, 100)).mean(),
            BoundedParetoSampler(1.5, 0.1, 100).mean());
  EXPECT_DOUBLE_EQ(make_sampler(DistSpec::deterministic(2.0)).mean(), 2.0);
  EXPECT_DOUBLE_EQ(make_sampler(DistSpec::exponential(3.0)).mean(), 3.0);
  EXPECT_NEAR(make_sampler(DistSpec::lognormal(2.0, 1.0)).mean(), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(make_sampler(DistSpec::uniform(1.0, 3.0)).mean(), 2.0);
  EXPECT_GT(make_sampler(DistSpec::bounded_exponential(1.0, 0.1, 5.0)).mean(),
            0.0);
}

TEST(Factory, ScaledSamplerKeepsKind) {
  const SamplerVariant d = make_sampler(DistSpec::bounded_pareto(1.5, 0.1, 100));
  const SamplerVariant s = d.scaled_by_rate(0.5);
  EXPECT_NEAR(s.mean(), d.mean() * 2.0, 1e-9);
  EXPECT_NE(s.get_if<BoundedParetoSampler>(), nullptr);
}

TEST(Factory, ConstructorsRejectParametersOutsideTheDomain) {
  // The sampler constructors are the one place each law's domain is checked
  // (DistSpec::parse builds a sampler to reject bad specs early).
  EXPECT_THROW(DeterministicSampler(0.0), std::invalid_argument);
  EXPECT_THROW(ExponentialSampler(-1.0), std::invalid_argument);
  EXPECT_THROW(BoundedExponentialSampler(0.0, 0.1, 5.0),
               std::invalid_argument);
  EXPECT_THROW(BoundedExponentialSampler(1.0, 5.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(LognormalSampler(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(LognormalSampler::from_mean_scv(0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(LognormalSampler::from_mean_scv(1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(UniformSampler(2.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace psd
