// Adaptive feedback extension: bias dynamics and closed-loop direction.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/types.hpp"
#include "core/adaptive_psd.hpp"
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

TEST(AdaptivePsd, NoObservationsBehavesLikeOpenLoop) {
  AdaptivePsdAllocator adaptive(paper_cfg(), {});
  PsdRateAllocator open(paper_cfg());
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto lam = rates_for_equal_load(0.5, 1.0, bp.mean(), 2);
  const auto ra = adaptive.allocate(lam);
  const auto ro = open.allocate(lam);
  EXPECT_NEAR(ra[0], ro[0], 1e-12);
  EXPECT_NEAR(ra[1], ro[1], 1e-12);
}

TEST(AdaptivePsd, OnTargetObservationsLeaveBiasNearZero) {
  AdaptivePsdAllocator a(paper_cfg(), {});
  // Achieved ratio exactly 2 == delta ratio: normalized slowdowns equal.
  a.observe_slowdowns({5.0, 10.0});
  for (double b : a.bias()) EXPECT_NEAR(b, 0.0, 1e-12);
}

TEST(AdaptivePsd, SlowClassGetsMoreRateNextRound) {
  AdaptivePsdAllocator a(paper_cfg(), {});
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto lam = rates_for_equal_load(0.5, 1.0, bp.mean(), 2);
  const auto before = a.allocate(lam);
  // Class 0 running at ratio 1:1 instead of 1:2 — class 1 is too slow
  // relative to target (10/2 > 10/1? no: normalized 10/1=10 vs 10/2=5 ->
  // class 0 too slow). Feed class-0-too-slow signal:
  a.observe_slowdowns({10.0, 10.0});  // S0/d0 = 10 > S1/d1 = 5
  const auto after = a.allocate(lam);
  EXPECT_GT(after[0], before[0]);  // class 0 compensated with more rate
  EXPECT_LT(after[1], before[1]);
}

TEST(AdaptivePsd, BiasIsBoundedByMaxCorrection) {
  AdaptiveConfig ac;
  ac.gain = 10.0;  // aggressive
  ac.max_correction = 2.0;
  AdaptivePsdAllocator a(paper_cfg(), ac);
  for (int i = 0; i < 100; ++i) a.observe_slowdowns({100.0, 1.0});
  for (double b : a.bias()) {
    EXPECT_LE(std::abs(b), std::log(2.0) + 1e-9);
  }
}

TEST(AdaptivePsd, BiasesStayCentered) {
  AdaptivePsdAllocator a(paper_cfg(), {});
  for (int i = 0; i < 10; ++i) a.observe_slowdowns({30.0, 10.0});
  const auto& b = a.bias();
  EXPECT_NEAR(std::accumulate(b.begin(), b.end(), 0.0), 0.0, 1e-9);
}

TEST(AdaptivePsd, IgnoresWindowsWithSilentClasses) {
  AdaptivePsdAllocator a(paper_cfg(), {});
  a.observe_slowdowns({10.0, kNaN});  // only one class reported: skip
  for (double b : a.bias()) EXPECT_DOUBLE_EQ(b, 0.0);
  a.observe_slowdowns({kNaN, kNaN});
  for (double b : a.bias()) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(AdaptivePsd, RatesRemainFeasibleUnderFeedback) {
  AdaptivePsdAllocator a(paper_cfg(), {});
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto lam = rates_for_equal_load(0.8, 1.0, bp.mean(), 2);
  for (int i = 0; i < 50; ++i) {
    a.observe_slowdowns({50.0, 10.0 + i});
    const auto r = a.allocate(lam);
    EXPECT_NEAR(std::accumulate(r.begin(), r.end(), 0.0), 1.0, 1e-9);
    for (double x : r) EXPECT_GT(x, 0.0);
  }
}

TEST(AdaptivePsd, RejectsBadConfig) {
  AdaptiveConfig ac;
  ac.max_correction = 1.0;
  EXPECT_THROW(AdaptivePsdAllocator(paper_cfg(), ac), std::invalid_argument);
  ac = {};
  ac.gain = -0.1;
  EXPECT_THROW(AdaptivePsdAllocator(paper_cfg(), ac), std::invalid_argument);
}

TEST(AdaptivePsd, ObservationSizeMismatchThrows) {
  AdaptivePsdAllocator a(paper_cfg(), {});
  EXPECT_THROW(a.observe_slowdowns({1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace psd
