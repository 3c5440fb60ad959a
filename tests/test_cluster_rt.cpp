// ClusterRuntime (src/cluster/cluster_runtime.*): the multi-node serving
// tier under a ManualClock — bitwise determinism, dispatch accounting, the
// global controller holding cluster-wide slowdown ratios, and node-kill
// re-convergence.
//
// Manual steps run at the inter-arrival timescale (0.2ms): coarser steps
// batch arrivals, and co-batched classes then share GPS capacity from equal
// start times, compressing the measured ratio toward 1 (a clock-granularity
// artifact, not controller error).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "cluster/cluster_runtime.hpp"

namespace psd {
namespace {

constexpr double kStep = 0.0002;

rt::ClusterRtConfig base_cfg(AssignmentSpec assignment) {
  rt::ClusterRtConfig cfg;
  cfg.nodes = 4;
  cfg.assignment = assignment;
  cfg.node.delta = {1.0, 2.0};
  cfg.node.load = 0.6;
  cfg.node.warmup = 0.5;
  cfg.node.duration = 3.0;
  cfg.node.seed = 0x5EEDu;
  if (assignment.policy != AssignmentPolicy::kSizeInterval) {
    cfg.node.size_dist = DistSpec::uniform(0.5, 1.5);
  }
  return cfg;
}

rt::ClusterReport run_manual(const rt::ClusterRtConfig& cfg) {
  rt::ClusterRuntime cluster(cfg, rt::ManualClock());
  for (double t = 0.0; t < cfg.node.duration; t += kStep) {
    cluster.step_to(t);
  }
  cluster.step_to(cfg.node.duration);
  cluster.quiesce();
  cluster.finish();
  return cluster.report();
}

/// Bitwise double equality (NaN == NaN; no epsilon — determinism means
/// identical bits, not close values).
::testing::AssertionResult same_bits(double x, double y) {
  if (std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << x << " and " << y << " differ in bits";
}

TEST(ClusterRt, ManualClockRunsAreBitwiseIdentical) {
  const auto cfg = base_cfg({AssignmentPolicy::kJsq, 2});
  const rt::ClusterReport a = run_manual(cfg);
  const rt::ClusterReport b = run_manual(cfg);

  EXPECT_EQ(a.produced, b.produced);
  EXPECT_EQ(a.completed_total, b.completed_total);
  EXPECT_EQ(a.rebalances, b.rebalances);
  EXPECT_EQ(a.global_ticks, b.global_ticks);
  EXPECT_TRUE(same_bits(a.max_window_ratio_error, b.max_window_ratio_error));
  EXPECT_TRUE(same_bits(a.cross_node_ratio_error, b.cross_node_ratio_error));
  EXPECT_TRUE(same_bits(a.max_settle_seconds, b.max_settle_seconds));
  ASSERT_EQ(a.cls.size(), b.cls.size());
  for (std::size_t c = 0; c < a.cls.size(); ++c) {
    EXPECT_EQ(a.cls[c].completed, b.cls[c].completed);
    EXPECT_TRUE(same_bits(a.cls[c].mean_slowdown, b.cls[c].mean_slowdown));
    EXPECT_TRUE(
        same_bits(a.cls[c].window_ratio_p50, b.cls[c].window_ratio_p50));
  }
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    EXPECT_EQ(a.node[i].dispatched, b.node[i].dispatched);
    EXPECT_EQ(a.node[i].rt.completed_total, b.node[i].rt.completed_total);
  }
  // Timing is deliberately off under a ManualClock (reading steady_clock
  // would break the determinism this test pins down).
  EXPECT_TRUE(std::isnan(a.mean_dispatch_ns));
}

TEST(ClusterRt, SeedChangesTheRun) {
  auto cfg = base_cfg({AssignmentPolicy::kJsq, 2});
  const rt::ClusterReport a = run_manual(cfg);
  cfg.node.seed = 0x5EEEu;
  const rt::ClusterReport b = run_manual(cfg);
  EXPECT_NE(a.produced, b.produced);
}

TEST(ClusterRt, DispatchAccountingIsConserved) {
  const auto cfg = base_cfg({AssignmentPolicy::kRoundRobin});
  const rt::ClusterReport r = run_manual(cfg);
  std::uint64_t dispatched = 0;
  for (const auto& nd : r.node) dispatched += nd.dispatched;
  EXPECT_EQ(dispatched, r.produced);
  EXPECT_EQ(r.outstanding, 0u);
  EXPECT_EQ(r.lost_to_kill, 0u);
  // Round-robin with no failures splits arrivals evenly (within one cycle).
  for (const auto& nd : r.node) {
    EXPECT_NEAR(static_cast<double>(nd.dispatched),
                static_cast<double>(r.produced) / 4.0, 1.0);
  }
}

TEST(ClusterRt, HoldsClusterWideRatioUnderJsq2) {
  const rt::ClusterReport r = run_manual(base_cfg({AssignmentPolicy::kJsq, 2}));
  ASSERT_EQ(r.cls.size(), 2u);
  EXPECT_NEAR(r.cls[1].window_ratio_p50, 2.0, 0.3);
  EXPECT_LE(r.max_window_ratio_error, 0.15);
}

TEST(ClusterRt, HoldsClusterWideRatioUnderSitaE) {
  // SITA-E keeps the heavy-tailed default dist (cutoffs need its CDF).
  auto cfg = base_cfg({AssignmentPolicy::kSizeInterval});
  cfg.node.warmup = 1.0;
  cfg.node.duration = 6.0;
  const rt::ClusterReport r = run_manual(cfg);
  EXPECT_LE(r.max_window_ratio_error, 0.15);
  // SITA-E concentrates the giants on the last band's node; dispatch counts
  // must be monotonically decreasing in band index (smallest sizes are the
  // most frequent under bounded-pareto).
  for (std::size_t i = 1; i < r.node.size(); ++i) {
    EXPECT_LT(r.node[i].dispatched, r.node[i - 1].dispatched);
  }
}

TEST(ClusterRt, HoldsClusterWideRatioUnderSitaEAcrossANodeKill) {
  // A kill re-splits the size law into one equal-work band per survivor, so
  // no survivor inherits the dead node's band on top of its own.  One that
  // did would run at twice the others' load (1.2 of its capacity here): its
  // queues would grow for the rest of the run and its mean slowdowns pass
  // 1000, while the re-banded survivors' stay below 20.
  auto cfg = base_cfg({AssignmentPolicy::kSizeInterval});
  cfg.node.warmup = 1.0;
  cfg.node.duration = 6.0;
  cfg.kill_node = 1;
  cfg.kill_at = 1.5;
  const rt::ClusterReport r = run_manual(cfg);
  EXPECT_FALSE(r.node[1].alive);
  EXPECT_LE(r.max_window_ratio_error, 0.15);
  EXPECT_NEAR(r.settle_onset, 1.5, 1e-9);
  for (std::size_t i = 0; i < r.node.size(); ++i) {
    if (!r.node[i].alive) continue;
    for (const auto& cls : r.node[i].rt.cls) {
      EXPECT_LT(cls.mean_slowdown, 100.0) << "node " << i;
    }
  }
  // The survivors' bands still follow the law: smaller sizes are the more
  // frequent, so dispatch counts fall with band index.
  EXPECT_GT(r.node[0].dispatched, r.node[2].dispatched);
  EXPECT_GT(r.node[2].dispatched, r.node[3].dispatched);
}

TEST(ClusterRt, NodeKillReconvergesWithinSettleBound) {
  auto cfg = base_cfg({AssignmentPolicy::kJsq, 2});
  cfg.node.duration = 5.0;
  cfg.kill_node = 3;
  cfg.kill_at = 2.0;
  const rt::ClusterReport r = run_manual(cfg);

  EXPECT_FALSE(r.node[3].alive);
  EXPECT_TRUE(r.node[0].alive);
  // Dispatch to the dead node stops at the kill: its share is well under
  // the ~1/4 it would carry alive for the full run.
  EXPECT_LT(r.node[3].dispatched, r.produced / 5);
  // The ratio held cluster-wide across the failure, and re-settled into the
  // tolerance band within the remaining run (settle is measured from the
  // kill instant).
  EXPECT_LE(r.max_window_ratio_error, 0.15);
  EXPECT_NEAR(r.settle_onset, 2.0, 1e-9);
  ASSERT_TRUE(std::isfinite(r.max_settle_seconds));
  EXPECT_LE(r.max_settle_seconds, 3.0);
}

TEST(ClusterRt, SitaKillKeepsEveryNodeWithinCapacity) {
  // After a kill every alive node gets an equal capacity share (and, under
  // SITA-E, an equal-work band); no node's rates may exceed its capacity,
  // and the run completes.
  auto cfg = base_cfg({AssignmentPolicy::kSizeInterval});
  cfg.kill_node = 1;
  cfg.kill_at = 1.5;
  rt::ClusterRuntime cluster(cfg, rt::ManualClock());
  for (double t = 0.0; t < cfg.node.duration; t += kStep) {
    cluster.step_to(t);
  }
  cluster.step_to(cfg.node.duration);
  cluster.quiesce();
  cluster.finish();
  const rt::ClusterReport r = cluster.report();

  EXPECT_FALSE(r.node[1].alive);
  std::uint64_t dispatched = 0;
  for (const auto& nd : r.node) dispatched += nd.dispatched;
  EXPECT_EQ(dispatched, r.produced);
  EXPECT_GT(r.rebalances, 0u);
  const double capacity = cfg.node.shard_capacity();
  for (std::size_t i = 0; i < cluster.nodes(); ++i) {
    if (!r.node[i].alive) continue;
    rt::Runtime& node = cluster.node(i).runtime();
    for (std::size_t s = 0; s < node.num_shards(); ++s) {
      const rt::ShardSnapshot snap = node.shard(s).snapshot();
      double total = 0.0;
      for (std::size_t c = 0; c < cfg.num_classes(); ++c) {
        total += snap.rate[c];
      }
      EXPECT_LE(total, capacity * (1.0 + 1e-9)) << "node " << i;
    }
  }
}

TEST(ClusterRt, KillRejectsBadSchedules) {
  auto cfg = base_cfg({AssignmentPolicy::kRoundRobin});
  cfg.kill_at = 1.0;
  cfg.kill_node = 7;  // out of range
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.kill_node = 0;
  cfg.kill_at = 99.0;  // past the end of the run
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClusterRt, SingleNodeClusterMatchesConfigValidation) {
  auto cfg = base_cfg({AssignmentPolicy::kRoundRobin});
  cfg.nodes = 1;
  cfg.node.duration = 1.0;
  const rt::ClusterReport r = run_manual(cfg);
  EXPECT_EQ(r.node.size(), 1u);
  EXPECT_EQ(r.node[0].dispatched, r.produced);
}

}  // namespace
}  // namespace psd
