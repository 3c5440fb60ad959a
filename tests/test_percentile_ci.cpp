// Exact percentiles and confidence intervals.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "stats/ci.hpp"
#include "stats/percentile.hpp"

namespace psd {
namespace {

TEST(Percentile, EmptyIsNaN) {
  std::vector<double> v;
  EXPECT_TRUE(std::isnan(percentile_of(v, 0.5)));
}

TEST(Percentile, SingleElement) {
  std::vector<double> v = {7.0};
  EXPECT_DOUBLE_EQ(percentile_of(v, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile_of(v, 1.0), 7.0);
}

TEST(Percentile, LinearInterpolation) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_of(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile_of(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile_of(v, 1.0 / 3.0), 2.0);
}

TEST(Percentile, UnsortedInput) {
  std::vector<double> v = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile_of(v, 0.5), 5.0);
}

TEST(Percentile, MultipleQuantilesSingleSort) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0, 5.0};
  const auto ps = percentiles_of(v, {0.0, 0.5, 1.0});
  EXPECT_DOUBLE_EQ(ps[0], 1.0);
  EXPECT_DOUBLE_EQ(ps[1], 3.0);
  EXPECT_DOUBLE_EQ(ps[2], 5.0);
}

TEST(Percentile, RejectsOutOfRangeQuantile) {
  std::vector<double> v = {1.0};
  EXPECT_THROW(percentile_of(v, 1.5), std::invalid_argument);
}

TEST(ConfidenceInterval, EmptyAndSingle) {
  EXPECT_EQ(mean_confidence({}).n, 0u);
  const auto ci = mean_confidence({5.0});
  EXPECT_DOUBLE_EQ(ci.mean, 5.0);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
}

TEST(ConfidenceInterval, KnownTwoSample) {
  const auto ci = mean_confidence({1.0, 3.0});
  EXPECT_DOUBLE_EQ(ci.mean, 2.0);
  // s = sqrt(2), se = 1, t(df=1) = 12.706
  EXPECT_NEAR(ci.half_width, 12.706, 1e-9);
}

TEST(ConfidenceInterval, CoverageOnGaussianLikeData) {
  // ~95% of intervals over repeated samples should cover the true mean.
  Rng rng(42);
  int covered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> xs;
    for (int i = 0; i < 30; ++i) xs.push_back(rng.uniform(0, 2));  // mean 1
    const auto ci = mean_confidence(xs);
    if (std::abs(ci.mean - 1.0) <= ci.half_width) ++covered;
  }
  EXPECT_GT(covered, trials * 0.90);
  EXPECT_LT(covered, trials * 0.995);
}

TEST(TQuantile, TableSanity) {
  EXPECT_NEAR(t_quantile_975(1), 12.706, 1e-9);
  EXPECT_NEAR(t_quantile_975(30), 2.042, 1e-9);
  EXPECT_NEAR(t_quantile_975(1000), 1.96, 1e-9);
  EXPECT_DOUBLE_EQ(t_quantile_975(0), 0.0);
}

}  // namespace
}  // namespace psd
