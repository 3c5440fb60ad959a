// Lockstep batch kernel: per-lane results must be BITWISE identical to the
// per-task path at the same derived seeds — for the dedicated and the SFQ
// backend, across allocators, rate-change policies, arrival shapes,
// profiles, class counts, recording and exact time ties — plus the
// ragged-tail group split and campaign JSONL byte-identity in both modes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "experiment/lockstep.hpp"
#include "experiment/runner.hpp"
#include "sweep/campaign.hpp"
#include "sweep/grid.hpp"

namespace psd {
namespace {

ScenarioConfig base_cfg() {
  ScenarioConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = 0.6;
  cfg.warmup_tu = 400.0;
  cfg.measure_tu = 2500.0;
  cfg.seed = 1234;
  return cfg;
}

// Exact-bit double comparison that treats NaN == NaN as equal (settle times
// and empty-class means are NaN by contract).
void expect_bits(double a, double b, const char* what) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  const bool both_nan = std::isnan(a) && std::isnan(b);
  EXPECT_TRUE(ba == bb || both_nan) << what << ": " << a << " vs " << b;
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.reallocations, b.reallocations);
  expect_bits(a.system_slowdown, b.system_slowdown, "system_slowdown");
  expect_bits(a.time_unit, b.time_unit, "time_unit");
  ASSERT_EQ(a.cls.size(), b.cls.size());
  for (std::size_t i = 0; i < a.cls.size(); ++i) {
    EXPECT_EQ(a.cls[i].completed, b.cls[i].completed) << "class " << i;
    expect_bits(a.cls[i].mean_slowdown, b.cls[i].mean_slowdown, "slowdown");
    expect_bits(a.cls[i].mean_delay, b.cls[i].mean_delay, "delay");
    ASSERT_EQ(a.cls[i].windows.size(), b.cls[i].windows.size());
    for (std::size_t w = 0; w < a.cls[i].windows.size(); ++w) {
      EXPECT_EQ(a.cls[i].windows[w].count, b.cls[i].windows[w].count);
      expect_bits(a.cls[i].windows[w].mean, b.cls[i].windows[w].mean,
                  "window mean");
    }
  }
  ASSERT_EQ(a.settle_tu.size(), b.settle_tu.size());
  for (std::size_t j = 0; j < a.settle_tu.size(); ++j) {
    expect_bits(a.settle_tu[j], b.settle_tu[j], "settle_tu");
  }
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t r = 0; r < a.records.size(); ++r) {
    EXPECT_EQ(a.records[r].id, b.records[r].id);
    expect_bits(a.records[r].arrival, b.records[r].arrival, "rec arrival");
    expect_bits(a.records[r].size, b.records[r].size, "rec size");
    expect_bits(a.records[r].service_start, b.records[r].service_start,
                "rec service_start");
    expect_bits(a.records[r].departure, b.records[r].departure,
                "rec departure");
    expect_bits(a.records[r].service_elapsed, b.records[r].service_elapsed,
                "rec service_elapsed");
  }
}

void check_lanes_match_per_task(const ScenarioConfig& cfg,
                                std::uint64_t first, std::size_t lanes) {
  const auto batch = run_scenario_lanes(cfg, first, lanes);
  ASSERT_EQ(batch.size(), lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    expect_bitwise_equal(batch[l], run_scenario(cfg, first + l));
  }
}

// Every bitwise case runs on both lane-stepped backends.
class LockstepBitwise : public ::testing::TestWithParam<BackendKind> {
 protected:
  ScenarioConfig cfg() const {
    ScenarioConfig c = base_cfg();
    c.backend = GetParam();
    return c;
  }

  static void check(const ScenarioConfig& c, std::uint64_t first,
                    std::size_t lanes) {
    ASSERT_TRUE(lockstep_eligible(c));
    check_lanes_match_per_task(c, first, lanes);
  }
};

TEST_P(LockstepBitwise, DefaultScenario) { check(cfg(), 0, 4); }

TEST_P(LockstepBitwise, NonzeroFirstRunIndex) { check(cfg(), 7, 3); }

TEST_P(LockstepBitwise, HighLoadThreeClasses) {
  ScenarioConfig c = cfg();
  c.delta = {1.0, 2.0, 8.0};
  c.load = 0.9;
  check(c, 0, 3);
}

TEST_P(LockstepBitwise, AdaptiveAllocatorAndFinishAtOldRate) {
  ScenarioConfig c = cfg();
  c.allocator = AllocatorKind::kAdaptivePsd;
  c.rate_change = RateChangePolicy::kFinishAtOldRate;
  check(c, 0, 3);
}

TEST_P(LockstepBitwise, EqualShareAndNoAllocator) {
  ScenarioConfig c = cfg();
  c.allocator = AllocatorKind::kEqualShare;
  check(c, 0, 2);
  c.allocator = AllocatorKind::kNone;  // realloc loop disabled entirely
  check(c, 0, 2);
}

TEST_P(LockstepBitwise, BurstyArrivalsAndLognormalSizes) {
  ScenarioConfig c = cfg();
  c.arrivals = ArrivalKind::kBursty;
  c.burstiness = 4.0;
  c.size_dist = DistSpec::lognormal(1.0, 2.0);
  check(c, 0, 3);
}

TEST_P(LockstepBitwise, NonstationaryProfileWithSettleMetric) {
  ScenarioConfig c = cfg();
  c.load = 0.4;
  c.profile = LoadProfile::spike(1200.0, 600.0, 2.0);
  check(c, 0, 3);
}

TEST_P(LockstepBitwise, RequestRecordingWindow) {
  ScenarioConfig c = cfg();
  c.record_requests = true;
  c.record_from_tu = 1000.0;
  c.record_to_tu = 1400.0;
  check(c, 0, 2);
}

// Deterministic arrivals (both classes every 8 tu) and unit sizes put
// events on exactly equal times: SFQ completions land on 10 of the ticks
// at k * 1001 tu, and the two classes always arrive together.  This runs
// the tie paths under the equality check; it does not tell the tie orders
// apart (swapping tick-vs-completion or heap-vs-arrival order gives the
// same results here).  Lockstep.CompletionTiedWithRateChangingTick does,
// on the dedicated backend.
TEST_P(LockstepBitwise, ExactTimeTies) {
  ScenarioConfig c = cfg();
  c.arrivals = ArrivalKind::kDeterministic;
  c.size_dist = DistSpec::deterministic(1.0);
  c.load = 0.25;
  c.realloc_tu = 1001.0;
  c.warmup_tu = 4000.0;
  c.measure_tu = 36000.0;
  check(c, 0, 2);
}

// A reallocation period of 7 tu at load 0.95: most chunks end with a deep
// queue, so requests carried over on the ring start service in a later
// burst — after the tick has rescaled the class rate or deferred the new
// one — and their service state (start, settle point) must match the
// per-task path under both rate-change policies.
TEST_P(LockstepBitwise, ShortReallocPeriodDeepQueues) {
  ScenarioConfig c = cfg();
  c.load = 0.95;
  c.delta = {1.0, 4.0};
  c.realloc_tu = 7.0;
  c.window_tu = 7.0;
  for (const auto policy : {RateChangePolicy::kRescaleRemaining,
                            RateChangePolicy::kFinishAtOldRate}) {
    SCOPED_TRACE(rate_change_name(policy));
    c.rate_change = policy;
    check(c, 0, 3);
  }
}

TEST_P(LockstepBitwise, RaggedTailAggregatesIdentically) {
  const ScenarioConfig c = cfg();
  const std::size_t runs = 10;  // K=4 -> groups of 4, 4, 2
  ReplicationPlan plan;
  plan.mode = ReplicationMode::kLockstep;
  plan.lanes = 4;
  const auto lockstep = run_replications(c, runs, /*parallel=*/false, plan);
  const auto per_task = run_replications(c, runs, /*parallel=*/false);
  ASSERT_EQ(lockstep.runs, per_task.runs);
  ASSERT_EQ(lockstep.slowdown.size(), per_task.slowdown.size());
  for (std::size_t i = 0; i < lockstep.slowdown.size(); ++i) {
    expect_bits(lockstep.slowdown[i].mean, per_task.slowdown[i].mean,
                "agg slowdown mean");
    expect_bits(lockstep.slowdown[i].half_width,
                per_task.slowdown[i].half_width, "agg half width");
  }
  expect_bits(lockstep.system_slowdown, per_task.system_slowdown,
              "agg system");
  EXPECT_EQ(lockstep.completed_total, per_task.completed_total);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, LockstepBitwise,
    ::testing::Values(BackendKind::kDedicated, BackendKind::kSfq),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(backend_name(info.param));
    });

TEST(Lockstep, EligibilityCoversUngatedSingleNodeSfq) {
  ScenarioConfig cfg = base_cfg();
  cfg.backend = BackendKind::kSfq;
  EXPECT_TRUE(lockstep_eligible(cfg));
  ScenarioConfig gated = cfg;
  gated.admission = AdmissionSpec::parse("delta-aware:0.8");
  EXPECT_FALSE(lockstep_eligible(gated));
  ScenarioConfig cluster = cfg;
  cluster.cluster_nodes = 2;
  EXPECT_FALSE(lockstep_eligible(cluster));
}

TEST(Lockstep, IneligibleBackendFallsBackToPerTask) {
  ScenarioConfig cfg = base_cfg();
  cfg.backend = BackendKind::kLottery;
  EXPECT_FALSE(lockstep_eligible(cfg));
  check_lanes_match_per_task(cfg, 0, 2);
}

// A completion lands exactly on a tick while a request waits, and the
// tick changes the class rate.  Sizes are det:1 and arrivals deterministic,
// so every time below is exact.  In per-task order the tick fires first:
// under kFinishAtOldRate the completion then adopts the tick's new rate for
// the waiting request, where a burst that ran the completion before the
// tick would serve it at the previous pending rate.  Two geometries:
//  * load 0.75 split 8:1 (class 0 every 1.5 tu, class 1 every 12 tu),
//    ticks every 7.5 tu: at the initial rate 0.5 class 0 departs at
//    1.5 + 2k, so a departure computed inside the first burst lands on the
//    first tick while the arrival from 6 tu waits; the loadprop allocator
//    moves class 0 from 0.5 to ~1 there.
//  * load 19/21 split 12:7 (every 1.75 and 3 tu), ticks every tu: the
//    request already in service when a burst starts departs on the next
//    tick (first at 9 tu) while an arrival from that chunk waits, and
//    class-0 arrivals land on ticks (every 7 tu).
// No warmup, so the first requests count.
TEST(Lockstep, CompletionTiedWithRateChangingTick) {
  struct Geometry {
    double load;
    std::vector<double> share;
    double realloc_tu;
  };
  for (const Geometry& g :
       {Geometry{0.75, {8.0 / 9.0, 1.0 / 9.0}, 7.5},
        Geometry{19.0 / 21.0, {12.0 / 19.0, 7.0 / 19.0}, 1.0}}) {
    SCOPED_TRACE("realloc_tu " + std::to_string(g.realloc_tu));
    ScenarioConfig c = base_cfg();
    c.backend = BackendKind::kDedicated;
    c.rate_change = RateChangePolicy::kFinishAtOldRate;
    c.allocator = AllocatorKind::kLoadProportional;
    c.arrivals = ArrivalKind::kDeterministic;
    c.size_dist = DistSpec::deterministic(1.0);
    c.load = g.load;
    c.load_share = g.share;
    c.realloc_tu = g.realloc_tu;
    c.warmup_tu = 0.0;
    c.measure_tu = 300.0;
    ASSERT_TRUE(lockstep_eligible(c));
    check_lanes_match_per_task(c, 0, 2);
  }
}

GridSpec small_grid() {
  GridSpec grid;
  grid.base.warmup_tu = 300.0;
  grid.base.measure_tu = 1500.0;
  grid.loads = {0.4, 0.8};
  grid.deltas = {{1.0, 2.0}};
  // Both lane-stepped backends in the same campaign.
  grid.backends = {BackendKind::kDedicated, BackendKind::kSfq};
  return grid;
}

std::vector<std::string> campaign_records(const CampaignOptions& opt) {
  std::vector<std::string> records;
  const auto result = run_campaign(small_grid(), opt);
  for (const auto& p : result.points) records.push_back(p.record);
  return records;
}

TEST(Lockstep, CampaignRecordsByteIdenticalAcrossModes) {
  CampaignOptions per_task;
  per_task.runs = 5;
  per_task.threads = 2;

  CampaignOptions lockstep = per_task;
  lockstep.replication_mode = ReplicationMode::kLockstep;
  lockstep.lockstep_lanes = 2;  // 5 runs -> groups of 2, 2, 1 (ragged tail)

  const auto a = campaign_records(per_task);
  const auto b = campaign_records(lockstep);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FALSE(a[i].empty());
    EXPECT_EQ(a[i], b[i]) << "point " << i;
  }
}

TEST(Lockstep, CampaignRunsIneligiblePointsOneTaskPerReplication) {
  // Grouping a point the kernel does not run would only serialize its
  // replications inside one task; the campaign gives each its own task.
  GridSpec grid = small_grid();
  grid.loads = {0.6};
  grid.backends = {BackendKind::kLottery};
  CampaignOptions per_task;
  per_task.runs = 5;
  CampaignOptions lockstep = per_task;
  lockstep.replication_mode = ReplicationMode::kLockstep;
  lockstep.lockstep_lanes = 8;

  WorkStealingPool pool(2);
  const auto a = run_campaign(grid, per_task, &pool);
  const auto tasks_before = pool.stats().executed;
  const auto b = run_campaign(grid, lockstep, &pool);
  EXPECT_EQ(pool.stats().executed - tasks_before, per_task.runs);
  ASSERT_EQ(a.points.size(), 1u);
  ASSERT_EQ(b.points.size(), 1u);
  EXPECT_FALSE(b.points[0].record.empty());
  EXPECT_EQ(a.points[0].record, b.points[0].record);
}

}  // namespace
}  // namespace psd
