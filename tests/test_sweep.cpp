// Campaign engine: grid expansion/dedup, content hashing, seed derivation,
// JSONL schema and byte-determinism across thread counts, resume-by-key
// (also after a torn last record), in-order streaming and the final-wave
// task order, cluster-axis execution.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "sweep/campaign.hpp"
#include "sweep/grid.hpp"
#include "sweep/jsonl.hpp"

namespace psd {
namespace {

GridSpec tiny_grid() {
  GridSpec grid;
  grid.base.warmup_tu = 200.0;
  grid.base.measure_tu = 1500.0;
  grid.loads = {0.3, 0.6};
  grid.backends = {BackendKind::kDedicated, BackendKind::kSfq};
  return grid;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Grid, ExpansionCrossesAxesLoadsFastest) {
  const auto points = expand_grid(tiny_grid());
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].cfg.backend, BackendKind::kDedicated);
  EXPECT_DOUBLE_EQ(points[0].cfg.load, 0.3);
  EXPECT_DOUBLE_EQ(points[1].cfg.load, 0.6);
  EXPECT_EQ(points[2].cfg.backend, BackendKind::kSfq);
  EXPECT_DOUBLE_EQ(points[2].cfg.load, 0.3);
}

TEST(Grid, EmptyAxesFallBackToBaseConfig) {
  GridSpec grid;
  grid.base.load = 0.42;
  const auto points = expand_grid(grid);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].cfg.load, 0.42);
  EXPECT_EQ(points[0].cfg.backend, grid.base.backend);
}

TEST(Grid, DuplicateAxisValuesCollapse) {
  auto grid = tiny_grid();
  grid.loads = {0.3, 0.6, 0.3, 0.6, 0.3};
  grid.backends = {BackendKind::kDedicated, BackendKind::kDedicated};
  const auto points = expand_grid(grid);
  EXPECT_EQ(points.size(), 2u);
}

TEST(Grid, InvalidPointFailsExpansion) {
  auto grid = tiny_grid();
  grid.loads = {0.3, 1.5};
  EXPECT_THROW(expand_grid(grid), std::invalid_argument);
}

TEST(Grid, KeyIgnoresSeedButTracksContent) {
  ScenarioConfig a;
  ScenarioConfig b;
  b.seed = a.seed + 1;
  EXPECT_EQ(config_key(a), config_key(b));  // seed is not identity

  b = a;
  b.load = a.load + 0.1;
  EXPECT_NE(config_key(a), config_key(b));
  b = a;
  b.backend = BackendKind::kSfq;
  EXPECT_NE(config_key(a), config_key(b));
  b = a;
  b.cluster_nodes = 4;
  EXPECT_NE(config_key(a), config_key(b));
  b = a;
  b.size_dist = DistSpec::bounded_pareto(1.5, 0.1, 1000.0);
  EXPECT_NE(config_key(a), config_key(b));
}

TEST(Grid, KeyNormalizesFieldsTheMachineryNeverReads) {
  ScenarioConfig a;  // dedicated backend, psd allocator, one node
  ScenarioConfig b = a;
  b.lottery_quantum_tu = 99.0;  // unread off the lottery backend
  EXPECT_EQ(config_key(a), config_key(b));
  b = a;
  b.adaptive.gain = 0.9;  // unread off the adaptive allocator
  EXPECT_EQ(config_key(a), config_key(b));
  b = a;
  b.cluster_policy = AssignmentPolicy::kLeastWorkLeft;  // unread on 1 node
  EXPECT_EQ(config_key(a), config_key(b));
  b = a;
  b.burstiness = 5.0;  // unread off bursty arrivals
  EXPECT_EQ(config_key(a), config_key(b));
  b = a;
  b.backend = BackendKind::kSfq;
  b.rate_change = RateChangePolicy::kFinishAtOldRate;  // dedicated-only
  EXPECT_EQ(config_key(b), [&] {
    auto c = b;
    c.rate_change = RateChangePolicy::kRescaleRemaining;
    return config_key(c);
  }());

  // ...but each field counts when its machinery is selected.
  b = a;
  b.backend = BackendKind::kLottery;
  auto c = b;
  c.lottery_quantum_tu = 99.0;
  EXPECT_NE(config_key(b), config_key(c));
  b = a;
  b.rate_change = RateChangePolicy::kFinishAtOldRate;  // on dedicated
  EXPECT_NE(config_key(a), config_key(b));
}

TEST(Grid, PointSeedDependsOnMasterAndContent) {
  ScenarioConfig a;
  ScenarioConfig b;
  b.load = a.load + 0.1;
  EXPECT_NE(derive_point_seed(42, a), derive_point_seed(42, b));
  EXPECT_NE(derive_point_seed(42, a), derive_point_seed(43, a));
  EXPECT_EQ(derive_point_seed(42, a), derive_point_seed(42, a));
}

TEST(Json, NumbersRoundTripAndNonFiniteBecomesNull) {
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_array({1.0, 0.5, std::nan("")}), "[1,0.5,null]");
}

TEST(Json, StringsEscape) {
  EXPECT_EQ(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, ObjectBuilds) {
  const auto s = JsonObject()
                     .field("a", 1.5)
                     .field("b", std::uint64_t{7})
                     .field("c", "x")
                     .field_bool("d", true)
                     .raw("e", "[1,2]")
                     .str();
  EXPECT_EQ(s, "{\"a\":1.5,\"b\":7,\"c\":\"x\",\"d\":true,\"e\":[1,2]}");
}

TEST(Campaign, ByteIdenticalAcrossThreadCounts) {
  TempFile f1("test_sweep_threads1.jsonl");
  TempFile f4("test_sweep_threads4.jsonl");
  CampaignOptions opt;
  opt.runs = 3;
  opt.master_seed = 7;
  opt.threads = 1;
  opt.jsonl_path = f1.path;
  const auto r1 = run_campaign(tiny_grid(), opt);
  opt.threads = 4;
  opt.jsonl_path = f4.path;
  const auto r4 = run_campaign(tiny_grid(), opt);

  EXPECT_EQ(r1.executed, 4u);
  EXPECT_EQ(r4.executed, 4u);
  const auto bytes1 = read_file(f1.path);
  EXPECT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, read_file(f4.path));

  // And the in-memory aggregates match bitwise.
  for (std::size_t i = 0; i < r1.points.size(); ++i) {
    ASSERT_EQ(r1.points[i].point.key, r4.points[i].point.key);
    const auto& a = r1.points[i].result;
    const auto& b = r4.points[i].result;
    for (std::size_t c = 0; c < a.slowdown.size(); ++c) {
      EXPECT_DOUBLE_EQ(a.slowdown[c].mean, b.slowdown[c].mean);
      EXPECT_DOUBLE_EQ(a.slowdown[c].half_width, b.slowdown[c].half_width);
    }
    EXPECT_EQ(a.completed_total, b.completed_total);
  }
}

TEST(Campaign, RerunSkipsCompletedPoints) {
  TempFile f("test_sweep_resume.jsonl");
  CampaignOptions opt;
  opt.runs = 2;
  opt.jsonl_path = f.path;
  const auto first = run_campaign(tiny_grid(), opt);
  EXPECT_EQ(first.executed, 4u);
  EXPECT_EQ(first.skipped, 0u);
  const auto bytes = read_file(f.path);

  const auto second = run_campaign(tiny_grid(), opt);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.skipped, 4u);
  for (const auto& p : second.points) EXPECT_TRUE(p.skipped);
  EXPECT_EQ(read_file(f.path), bytes);  // nothing appended

  // A grown grid only runs the new points.
  auto grid = tiny_grid();
  grid.loads.push_back(0.8);
  const auto third = run_campaign(grid, opt);
  EXPECT_EQ(third.executed, 2u);  // one new load x two backends
  EXPECT_EQ(third.skipped, 4u);
}

TEST(Campaign, ResumeAfterTornLastRecordMatchesUninterruptedRun) {
  // A run killed mid-write leaves its last record without a newline.  The
  // resume must not count that point, must cut the torn bytes, and must end
  // with the bytes of a run that was never interrupted.
  TempFile f("test_sweep_torn.jsonl");
  CampaignOptions opt;
  opt.runs = 2;
  opt.jsonl_path = f.path;
  (void)run_campaign(tiny_grid(), opt);
  const auto bytes = read_file(f.path);
  const auto first_nl = bytes.find('\n');
  const auto second_nl = bytes.find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  const auto cut = first_nl + 1 + (second_nl - first_nl) / 2;  // mid-record 2
  std::filesystem::resize_file(f.path, cut);

  const auto r = run_campaign(tiny_grid(), opt);
  EXPECT_EQ(r.skipped, 1u);
  EXPECT_EQ(r.executed, 3u);
  EXPECT_EQ(read_file(f.path), bytes);
}

TEST(Campaign, DifferentMasterSeedDoesNotResume) {
  TempFile f("test_sweep_seedmix.jsonl");
  CampaignOptions opt;
  opt.runs = 2;
  opt.jsonl_path = f.path;
  opt.master_seed = 1;
  (void)run_campaign(tiny_grid(), opt);
  opt.master_seed = 2;
  const auto r = run_campaign(tiny_grid(), opt);
  EXPECT_EQ(r.executed, 4u);  // other seed's records are not ours
  EXPECT_EQ(r.skipped, 0u);
}

TEST(Campaign, NoResumeTruncatesAndRerunsEverything) {
  TempFile f("test_sweep_noresume.jsonl");
  CampaignOptions opt;
  opt.runs = 2;
  opt.jsonl_path = f.path;
  (void)run_campaign(tiny_grid(), opt);
  const auto bytes = read_file(f.path);
  opt.resume = false;
  const auto r = run_campaign(tiny_grid(), opt);
  EXPECT_EQ(r.executed, 4u);
  // The artifact was truncated, not appended to: one record per key.
  EXPECT_EQ(read_file(f.path), bytes);
}

TEST(Campaign, RecordCarriesSchemaFields) {
  CampaignOptions opt;
  opt.runs = 2;
  const auto r = run_campaign(tiny_grid(), opt);
  ASSERT_EQ(r.points.size(), 4u);
  const auto& rec = r.points[0].record;
  for (const char* field :
       {"\"type\":\"point\"", "\"schema\":1", "\"key\":\"", "\"master_seed\":",
        "\"point_seed\":", "\"delta\":[1,2]", "\"load\":", "\"backend\":",
        "\"allocator\":", "\"dist\":", "\"runs\":2", "\"slowdown\":[",
        "\"expected\":[", "\"mean_ratio\":", "\"target_ratio\":[1,2]",
        "\"achieved_over_target\":", "\"ratio_windows\":[", "\"completed\":"}) {
    EXPECT_NE(rec.find(field), std::string::npos) << "missing " << field;
  }
  // Timing is opt-in: default records stay byte-deterministic.
  EXPECT_EQ(rec.find("\"wall_ms\""), std::string::npos);
}

TEST(Campaign, TimingFieldIsOptIn) {
  CampaignOptions opt;
  opt.runs = 1;
  opt.timing = true;
  GridSpec grid = tiny_grid();
  grid.backends = {BackendKind::kDedicated};
  grid.loads = {0.3};
  const auto r = run_campaign(grid, opt);
  EXPECT_NE(r.points[0].record.find("\"wall_ms\""), std::string::npos);
}

TEST(Campaign, SharedPoolServesMultipleCampaigns) {
  WorkStealingPool pool(2);
  CampaignOptions opt;
  opt.runs = 2;
  auto grid = tiny_grid();
  grid.backends = {BackendKind::kDedicated};
  const auto a = run_campaign(grid, opt, &pool);
  grid.backends = {BackendKind::kSfq};
  const auto b = run_campaign(grid, opt, &pool);
  EXPECT_EQ(a.executed, 2u);
  EXPECT_EQ(b.executed, 2u);
  EXPECT_EQ(a.threads, 2u);
  // Per-campaign busy time is a delta, not the pool's lifetime total.
  EXPECT_GE(a.pool_busy_seconds, 0.0);
  EXPECT_GE(b.pool_busy_seconds, 0.0);
  EXPECT_EQ(pool.stats().executed, 8u);
}

TEST(Campaign, OnPointFiresInExpansionOrder) {
  CampaignOptions opt;
  opt.runs = 2;
  opt.threads = 4;  // completion order is scrambled; release order is not
  std::vector<std::string> seen;
  const auto r = run_campaign(tiny_grid(), opt, nullptr,
                              [&](const PointOutcome& p) {
                                seen.push_back(p.point.key);
                              });
  ASSERT_EQ(seen.size(), r.points.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], r.points[i].point.key);
  }
}

// Points whose tasks all cost the same: one load, six weight vectors.
GridSpec equal_cost_grid() {
  GridSpec grid;
  grid.base.warmup_tu = 200.0;
  grid.base.measure_tu = 1500.0;
  grid.loads = {0.5};
  grid.deltas = {{1.0, 2.0}, {1.0, 3.0}, {1.0, 4.0},
                 {1.0, 5.0}, {1.0, 6.0}, {1.0, 8.0}};
  return grid;
}

TEST(Campaign, StreamsRecordsBeforeLaterPointsRun) {
  // One worker starts tasks in grid order (equal costs keep the stable
  // final wave in grid order too), so point i's record leaves as soon as
  // its own replications are done, before any later point has run one.
  for (const auto mode : {ReplicationMode::kPerTask,
                          ReplicationMode::kLockstep}) {
    SCOPED_TRACE(mode == ReplicationMode::kPerTask ? "per-task" : "lockstep");
    WorkStealingPool pool(1);
    CampaignOptions opt;
    opt.runs = 4;
    opt.replication_mode = mode;
    opt.lockstep_lanes = 2;  // two equal groups per point
    CampaignGauge gauge;
    std::vector<std::uint64_t> reps_at_release;
    const auto r = run_campaign(
        equal_cost_grid(), opt, &pool,
        [&](const PointOutcome&) {
          reps_at_release.push_back(gauge.replications.get());
        },
        &gauge);
    ASSERT_EQ(r.points.size(), 6u);
    ASSERT_EQ(reps_at_release.size(), 6u);
    for (std::size_t i = 0; i < reps_at_release.size(); ++i) {
      EXPECT_EQ(reps_at_release[i], (i + 1) * opt.runs) << "point " << i;
    }
  }
}

TEST(Campaign, FinalWaveStartsLargestFirst) {
  // Costs 1..5 (x load 0.1) on one worker: the final wave is the longest
  // suffix whose costs sum to at most 2 x 1 x its largest — loads 0.4 and
  // 0.5 (9 <= 10; adding 0.3 makes 12).  It starts largest-first, so 0.5
  // runs before 0.4: when the 0.4 record leaves, all five points are done.
  // The earlier points run in grid order.
  GridSpec grid;
  grid.base.warmup_tu = 200.0;
  grid.base.measure_tu = 1500.0;
  grid.loads = {0.1, 0.2, 0.3, 0.4, 0.5};
  WorkStealingPool pool(1);
  CampaignOptions opt;
  opt.runs = 1;
  CampaignGauge gauge;
  std::vector<std::uint64_t> done_at_release;
  (void)run_campaign(
      grid, opt, &pool,
      [&](const PointOutcome&) {
        done_at_release.push_back(gauge.executed.get());
      },
      &gauge);
  EXPECT_EQ(done_at_release, (std::vector<std::uint64_t>{1, 2, 3, 5, 5}));
}

TEST(Campaign, ClusterAxisRunsMultiNodePoints) {
  GridSpec grid;
  grid.base.warmup_tu = 200.0;
  grid.base.measure_tu = 1500.0;
  grid.loads = {0.5};
  grid.cluster_nodes = {1, 2};
  grid.cluster_policies = {AssignmentPolicy::kRoundRobin};
  CampaignOptions opt;
  opt.runs = 2;
  const auto r = run_campaign(grid, opt);
  ASSERT_EQ(r.points.size(), 2u);
  for (const auto& p : r.points) {
    EXPECT_GT(p.result.completed_total, 0u);
    EXPECT_NE(p.record.find("\"nodes\":"), std::string::npos);
  }
  // Two nodes at the same per-node load complete about twice the work.
  EXPECT_GT(r.points[1].result.completed_total,
            r.points[0].result.completed_total);
}

TEST(Campaign, FailedPointStillPersistsTheOthers) {
  // lottery_quantum_tu == 0 passes validate() but throws when the lottery
  // backend is constructed inside run_scenario — a runtime-only failure.
  // The dedicated points must still aggregate, stream to the JSONL, and be
  // resumable; the campaign reports the failure afterwards.
  TempFile f("test_sweep_partial.jsonl");
  GridSpec grid = tiny_grid();
  grid.base.lottery_quantum_tu = 0.0;
  grid.backends = {BackendKind::kDedicated, BackendKind::kLottery};
  CampaignOptions opt;
  opt.runs = 2;
  opt.jsonl_path = f.path;
  EXPECT_THROW(run_campaign(grid, opt), std::runtime_error);
  EXPECT_EQ(load_completed_keys(f.path, opt.master_seed).size(), 2u);

  // Fixing the config reruns only the failed points (new content = new key).
  grid.base.lottery_quantum_tu = 1.0;
  const auto r = run_campaign(grid, opt);
  EXPECT_EQ(r.executed, 2u);  // the two lottery points
  EXPECT_EQ(r.skipped, 2u);   // the two dedicated points resume
}

TEST(Cluster, WindowSeriesMergesOntoOneTimeGrid) {
  // Multi-node runs merge per-node window series index-wise (shared grid),
  // they do not concatenate them — otherwise class-0/class-j ratio pairing
  // would cross node and time boundaries.
  ScenarioConfig cfg;
  cfg.warmup_tu = 200.0;
  cfg.measure_tu = 1500.0;
  cfg.window_tu = 250.0;
  cfg.cluster_nodes = 3;
  const auto r = run_scenario(cfg, 0);
  // 1500 tu / 250 tu = 6 windows (+1 partial); 3 concatenated nodes would
  // give ~18.
  for (const auto& c : r.cls) {
    EXPECT_LE(c.windows.size(), 8u);
    for (std::size_t w = 1; w < c.windows.size(); ++w) {
      if (c.windows[w].count > 0 && c.windows[w - 1].count > 0) {
        EXPECT_GT(c.windows[w].start, c.windows[w - 1].start);
      }
    }
  }
}

TEST(Cluster, RunScenarioIsDeterministicAcrossPolicies) {
  for (auto policy :
       {AssignmentPolicy::kRandom, AssignmentPolicy::kRoundRobin,
        AssignmentPolicy::kLeastWorkLeft, AssignmentPolicy::kSizeInterval}) {
    ScenarioConfig cfg;
    cfg.warmup_tu = 200.0;
    cfg.measure_tu = 1500.0;
    cfg.cluster_nodes = 3;
    cfg.cluster_policy = policy;
    const auto a = run_scenario(cfg, 1);
    const auto b = run_scenario(cfg, 1);
    EXPECT_EQ(a.submitted, b.submitted);
    ASSERT_EQ(a.cls.size(), b.cls.size());
    for (std::size_t i = 0; i < a.cls.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.cls[i].mean_slowdown, b.cls[i].mean_slowdown);
      EXPECT_EQ(a.cls[i].completed, b.cls[i].completed);
    }
  }
}

TEST(Cluster, SitaPolicyRequiresBoundedPareto) {
  ScenarioConfig cfg;
  cfg.cluster_nodes = 2;
  cfg.cluster_policy = AssignmentPolicy::kSizeInterval;
  cfg.size_dist = DistSpec::deterministic(1.0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Jsonl, LoaderIgnoresForeignAndMalformedLines) {
  TempFile f("test_sweep_loader.jsonl");
  {
    std::ofstream out(f.path);
    out << "{\"key\":\"aaaa\",\"master_seed\":42}\n";
    out << "{\"key\":\"bbbb\",\"master_seed\":421}\n";  // prefix, not 42
    out << "not json at all\n";
    out << "{\"master_seed\":42}\n";  // no key
    out << "{\"key\":\"cccc\",\"master_seed\":7}\n";
    out << "{\"key\":\"dddd\",\"master_seed\":42";  // torn: no newline
  }
  const auto keys = load_completed_keys(f.path, 42);
  EXPECT_EQ(keys.size(), 1u);
  EXPECT_TRUE(keys.count("aaaa"));
  EXPECT_TRUE(load_completed_keys("does_not_exist.jsonl", 42).empty());

  // Trimming cuts exactly the torn line and leaves a whole file alone.
  const auto before = read_file(f.path);
  trim_torn_tail(f.path);
  const auto after = read_file(f.path);
  EXPECT_EQ(after, before.substr(0, before.rfind('\n') + 1));
  trim_torn_tail(f.path);
  EXPECT_EQ(read_file(f.path), after);
  trim_torn_tail("does_not_exist.jsonl");
}

}  // namespace
}  // namespace psd
