// Experiment harness: determinism, parallel == serial aggregation, scenario
// validation, figure configs, table formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "dist/sampler.hpp"
#include "experiment/figures.hpp"
#include "experiment/runner.hpp"
#include "experiment/table.hpp"

namespace psd {
namespace {

ScenarioConfig tiny_cfg() {
  ScenarioConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = 0.5;
  cfg.warmup_tu = 500.0;
  cfg.measure_tu = 3000.0;
  cfg.seed = 99;
  return cfg;
}

TEST(Runner, SameSeedSameRunIndexIsBitIdentical) {
  const auto a = run_scenario(tiny_cfg(), 3);
  const auto b = run_scenario(tiny_cfg(), 3);
  ASSERT_EQ(a.cls.size(), b.cls.size());
  EXPECT_EQ(a.submitted, b.submitted);
  for (std::size_t i = 0; i < a.cls.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cls[i].mean_slowdown, b.cls[i].mean_slowdown);
    EXPECT_EQ(a.cls[i].completed, b.cls[i].completed);
  }
}

TEST(Runner, DifferentRunIndicesDiffer) {
  const auto a = run_scenario(tiny_cfg(), 0);
  const auto b = run_scenario(tiny_cfg(), 1);
  EXPECT_NE(a.submitted, b.submitted);
}

// EXPECT_DOUBLE_EQ on every field, with NaN == NaN (both paths must produce
// NaN in the same places for bit-identity to hold).
void expect_bit_identical(const ReplicatedResult& p,
                          const ReplicatedResult& s) {
  auto same = [](double a, double b) {
    if (std::isnan(a) || std::isnan(b)) {
      EXPECT_TRUE(std::isnan(a) && std::isnan(b));
    } else {
      EXPECT_DOUBLE_EQ(a, b);
    }
  };
  EXPECT_EQ(p.runs, s.runs);
  ASSERT_EQ(p.slowdown.size(), s.slowdown.size());
  for (std::size_t i = 0; i < p.slowdown.size(); ++i) {
    same(p.slowdown[i].mean, s.slowdown[i].mean);
    same(p.slowdown[i].half_width, s.slowdown[i].half_width);
    EXPECT_EQ(p.slowdown[i].n, s.slowdown[i].n);
  }
  ASSERT_EQ(p.expected.size(), s.expected.size());
  for (std::size_t i = 0; i < p.expected.size(); ++i) {
    same(p.expected[i], s.expected[i]);
  }
  same(p.system_slowdown, s.system_slowdown);
  same(p.expected_system, s.expected_system);
  ASSERT_EQ(p.mean_ratio.size(), s.mean_ratio.size());
  for (std::size_t i = 0; i < p.mean_ratio.size(); ++i) {
    same(p.mean_ratio[i], s.mean_ratio[i]);
  }
  ASSERT_EQ(p.ratio.size(), s.ratio.size());
  for (std::size_t i = 0; i < p.ratio.size(); ++i) {
    same(p.ratio[i].p5, s.ratio[i].p5);
    same(p.ratio[i].p50, s.ratio[i].p50);
    same(p.ratio[i].p95, s.ratio[i].p95);
    same(p.ratio[i].mean, s.ratio[i].mean);
    EXPECT_EQ(p.ratio[i].windows, s.ratio[i].windows);
  }
  EXPECT_EQ(p.completed_total, s.completed_total);
}

// The sweep engine's ordering-independence rests on this: for a fixed seed,
// thread-parallel and serial replication sets aggregate to bit-identical
// ReplicatedResults, every field.
TEST(Runner, ParallelAndSerialReplicationsBitIdentical) {
  const auto p = run_replications(tiny_cfg(), 6, /*parallel=*/true);
  const auto s = run_replications(tiny_cfg(), 6, /*parallel=*/false);
  expect_bit_identical(p, s);

  // Same guarantee on a config whose eq.-18 closed form does NOT apply
  // (NaN expected values must agree too).
  auto cfg = tiny_cfg();
  cfg.allocator = AllocatorKind::kEqualShare;
  expect_bit_identical(run_replications(cfg, 5, true),
                       run_replications(cfg, 5, false));
}

TEST(Runner, AggregateReplicationsMatchesRunReplications) {
  // The exposed aggregation hook (used by the sweep campaign engine) must
  // reproduce run_replications exactly when fed the same per-run results.
  const auto cfg = tiny_cfg();
  std::vector<RunResult> results;
  for (std::size_t r = 0; r < 4; ++r) results.push_back(run_scenario(cfg, r));
  const auto a = aggregate_replications(cfg, results);
  const auto b = run_replications(cfg, 4, /*parallel=*/false);
  expect_bit_identical(a, b);
  EXPECT_THROW(aggregate_replications(cfg, {}), std::invalid_argument);
}

TEST(Runner, ExpectedValuesMatchClosedForm) {
  const auto r = run_replications(tiny_cfg(), 2);
  ASSERT_EQ(r.expected.size(), 2u);
  EXPECT_TRUE(std::isfinite(r.expected[0]));
  EXPECT_NEAR(r.expected[1] / r.expected[0], 2.0, 1e-9);
  EXPECT_TRUE(std::isfinite(r.expected_system));
}

TEST(Runner, WindowCountsMatchProtocol) {
  // 3000 tu of measurement in 1000-tu windows -> ~3 windows per class.
  const auto r = run_scenario(tiny_cfg(), 0);
  EXPECT_GE(r.cls[0].windows.size(), 2u);
  EXPECT_LE(r.cls[0].windows.size(), 4u);
}

TEST(Runner, RatioPercentilesOrdered) {
  const auto r = run_replications(tiny_cfg(), 6);
  ASSERT_EQ(r.ratio.size(), 1u);
  EXPECT_LE(r.ratio[0].p5, r.ratio[0].p50);
  EXPECT_LE(r.ratio[0].p50, r.ratio[0].p95);
  EXPECT_GT(r.ratio[0].windows, 0u);
}

TEST(Runner, ZeroRunsRejected) {
  EXPECT_THROW(run_replications(tiny_cfg(), 0), std::invalid_argument);
}

TEST(Scenario, ValidationCatchesBadConfigs) {
  auto cfg = tiny_cfg();
  cfg.load = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = tiny_cfg();
  cfg.delta = {2.0, 1.0};  // must be non-decreasing
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = tiny_cfg();
  cfg.delta.clear();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = tiny_cfg();
  cfg.load_share = {0.5, 0.3, 0.2};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Scenario, TimeUnitIsMeanOverCapacity) {
  auto cfg = tiny_cfg();
  cfg.size_dist = DistSpec::deterministic(2.0);
  cfg.capacity = 4.0;
  EXPECT_DOUBLE_EQ(cfg.time_unit(), 0.5);
}

TEST(Scenario, TrueLambdasHitTargetUtilization) {
  auto cfg = tiny_cfg();
  cfg.load = 0.7;
  const auto lam = cfg.true_lambdas();
  const SamplerVariant dist = make_sampler(cfg.size_dist);
  double rho = 0.0;
  for (double l : lam) rho += l * dist.mean();
  EXPECT_NEAR(rho, 0.7, 1e-9);
}

TEST(Figures, CannedConfigsValid) {
  for (double load : standard_load_sweep()) {
    two_class_scenario(2.0, load).validate();
    three_class_scenario(load).validate();
  }
  individual_request_scenario(50.0).validate();
  EXPECT_THROW(two_class_scenario(0.5, 50.0), std::invalid_argument);
  EXPECT_THROW(two_class_scenario(2.0, 100.0), std::invalid_argument);
}

TEST(Figures, SweepsCoverPaperRanges) {
  const auto alphas = shape_parameter_sweep();
  EXPECT_DOUBLE_EQ(alphas.front(), 1.0);
  EXPECT_DOUBLE_EQ(alphas.back(), 2.0);
  const auto bounds = upper_bound_sweep();
  EXPECT_DOUBLE_EQ(bounds.front(), 100.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 10000.0);
}

TEST(Table, AlignsAndFormats) {
  Table t({"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row(std::vector<double>{1.5, kNaN, 2.0}, 2);
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("-"), std::string::npos);  // NaN cell
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row(std::vector<std::string>{"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"x", "y"});
  EXPECT_THROW(t.add_row({std::string("1")}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(DefaultRuns, EnvOverrides) {
  // Without env vars this returns the paper default passed in.
  unsetenv("PSD_RUNS");
  unsetenv("PSD_FAST");
  EXPECT_EQ(default_runs(40), 40u);
  setenv("PSD_FAST", "1", 1);
  EXPECT_EQ(default_runs(40), 8u);
  setenv("PSD_RUNS", "17", 1);
  EXPECT_EQ(default_runs(40), 17u);  // PSD_RUNS wins
  unsetenv("PSD_RUNS");
  unsetenv("PSD_FAST");
}

}  // namespace
}  // namespace psd
