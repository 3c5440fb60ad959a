// Campaign-engine performance records (BENCH_sweep.json):
//
//   * campaign_2x3_grid — points/sec and pool efficiency for a small mixed
//     grid on the shared work-stealing pool, against the pre-sweep baseline
//     of serializing scenarios and parallelizing only replications.
//   * lockstep_grid_per_task / lockstep_grid_lockstep8 — the same dedicated-
//     backend grid executed in both replication modes: one replication per
//     task vs lane-groups of K=8 on the lockstep batch kernel, best of three
//     alternating runs each, on one worker (12 lane-group tasks spread
//     unevenly over more workers, which would blur the per-request
//     comparison).  Before emitting, every point record of the runs is
//     compared byte-for-byte (the lockstep determinism contract); a mismatch
//     fails the bench.
//   * lockstep_sfq_grid_per_task / lockstep_sfq_grid_lockstep8 — the same
//     pair and check on the grid with the SFQ backend, also on one worker.
//   * expand_paper_grid — ns per expand_grid() of the paper's 54-point grid
//     (median of 31 calls): a tripwire on the content-key render.  With
//     snprintf behind common/format.hpp it measured 3.2x the std::to_chars
//     baseline on a shared 4-vCPU host, which the CI sweep gate rejects.
//
//   ./micro_sweep [records.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "json_bench.hpp"
#include "sweep/campaign.hpp"

namespace {

using namespace psd;

GridSpec small_grid() {
  GridSpec grid;
  grid.base.warmup_tu = 500.0;
  grid.base.measure_tu = 4000.0;
  grid.loads = {0.3, 0.6, 0.9};
  grid.backends = {BackendKind::kDedicated, BackendKind::kSfq};
  grid.deltas = {{1.0, 2.0}};
  return grid;
}

/// Single-backend grid: every point is lockstep-eligible, so the mode
/// comparison measures the kernel, not the fallback path.
GridSpec lockstep_grid(BackendKind backend) {
  GridSpec grid;
  grid.base.warmup_tu = 500.0;
  grid.base.measure_tu = 10000.0;
  grid.loads = {0.3, 0.5, 0.7, 0.9};
  grid.deltas = {{1.0, 2.0}, {1.0, 4.0}, {1.0, 8.0}};
  grid.backends = {backend};
  return grid;
}

/// The paper's grid (Figs. 2-4): loads 0.1..0.9 x delta in {(1,2), (1,4),
/// (1,8)} x {dedicated, sfq}, eq. 17, BP(1.5, 0.1, 100).
GridSpec paper_grid() {
  GridSpec grid;
  grid.base.allocator = AllocatorKind::kPsd;
  grid.base.size_dist = DistSpec::bounded_pareto(1.5, 0.1, 100.0);
  grid.loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  grid.deltas = {{1.0, 2.0}, {1.0, 4.0}, {1.0, 8.0}};
  grid.backends = {BackendKind::kDedicated, BackendKind::kSfq};
  return grid;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct ModeRun {
  CampaignResult result;
  std::uint64_t requests = 0;  ///< Completed requests across all points.
};

ModeRun run_mode(const GridSpec& grid, std::size_t runs,
                 ReplicationMode mode, std::size_t lanes,
                 std::size_t threads) {
  CampaignOptions opt;
  opt.runs = runs;
  opt.master_seed = 42;
  opt.replication_mode = mode;
  opt.lockstep_lanes = lanes;
  opt.threads = threads;
  ModeRun out;
  out.result = run_campaign(grid, opt);
  for (const auto& p : out.result.points) {
    out.requests += p.result.completed_total;
  }
  return out;
}

void emit_mode_record(const std::string& path, const std::string& bench,
                      const char* impl, const ModeRun& run, double speedup) {
  const double wall_ns = run.result.wall_seconds * 1e9;
  const double ns_per_request =
      run.requests > 0 ? wall_ns / static_cast<double>(run.requests) : 0.0;
  char extra[256];
  std::snprintf(extra, sizeof(extra),
                "\"impl\":\"%s\",\"points\":%zu,\"threads\":%zu,"
                "\"points_per_sec\":%.4f,\"ns_per_request\":%.2f,"
                "\"speedup_vs_per_task\":%.4f",
                impl, run.result.points.size(), run.result.threads,
                run.result.points_per_sec(), ns_per_request, speedup);
  psd::bench::emit_record(
      path, "sweep", bench, extra,
      wall_ns / static_cast<double>(run.result.points.size()),
      run.result.points.size());
}

/// Determinism cross-check: the two modes must render identical records.
bool same_records(const std::string& bench, const ModeRun& a,
                  const ModeRun& b) {
  if (a.result.points.size() != b.result.points.size()) {
    std::fprintf(stderr, "%s: point count mismatch\n", bench.c_str());
    return false;
  }
  for (std::size_t i = 0; i < a.result.points.size(); ++i) {
    if (a.result.points[i].record != b.result.points[i].record) {
      std::fprintf(stderr, "%s: record %zu differs between modes\n",
                   bench.c_str(), i);
      return false;
    }
  }
  return true;
}

/// Run `grid` per task and in lane groups of K=8, alternating the modes
/// three times and keeping each mode's fastest run (one ~30 ms run of
/// either mode swings by tens of percent on a shared host).  Fails on any
/// record that differs between the modes, then emits `<bench>_per_task`
/// and `<bench>_lockstep8`.  Returns false on a mismatch.
bool compare_modes(const std::string& path, const std::string& bench,
                   const GridSpec& grid, std::size_t runs,
                   std::size_t threads) {
  const std::size_t kLanes = 8;
  const int kRepeats = 3;
  ModeRun per_task, lockstep;
  for (int k = 0; k < kRepeats; ++k) {
    ModeRun a =
        run_mode(grid, runs, ReplicationMode::kPerTask, kLanes, threads);
    ModeRun b =
        run_mode(grid, runs, ReplicationMode::kLockstep, kLanes, threads);
    if (!same_records(bench, a, b)) return false;
    if (k == 0 || a.result.wall_seconds < per_task.result.wall_seconds) {
      per_task = std::move(a);
    }
    if (k == 0 || b.result.wall_seconds < lockstep.result.wall_seconds) {
      lockstep = std::move(b);
    }
  }

  const double speedup =
      lockstep.result.wall_seconds > 0.0
          ? per_task.result.wall_seconds / lockstep.result.wall_seconds
          : 0.0;
  std::printf(
      "%s: %zu points x %zu runs — per-task %.2fs (%.2f points/s),"
      " lockstep(K=%zu) %.2fs (%.2f points/s) — %.2fx, records identical\n",
      bench.c_str(), per_task.result.points.size(), runs,
      per_task.result.wall_seconds, per_task.result.points_per_sec(), kLanes,
      lockstep.result.wall_seconds, lockstep.result.points_per_sec(),
      speedup);

  emit_mode_record(path, bench + "_per_task", "per_task", per_task, 1.0);
  emit_mode_record(path, bench + "_lockstep8", "lockstep8", lockstep,
                   speedup);
  return true;
}

/// Median ns of expand_grid(paper_grid()) over 31 calls.
void bench_expand(const std::string& path) {
  const GridSpec grid = paper_grid();
  constexpr int kCalls = 31;
  std::vector<double> ns;
  std::size_t points = 0;
  for (int i = 0; i < kCalls; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    points = expand_grid(grid).size();
    ns.push_back(seconds_since(t0) * 1e9);
  }
  std::sort(ns.begin(), ns.end());
  const double median = ns[kCalls / 2];
  std::printf("expand_paper_grid: %zu points, %.1f us per expansion\n",
              points, median * 1e-3);
  char extra[128];
  std::snprintf(extra, sizeof(extra),
                "\"impl\":\"expand_grid\",\"points\":%zu,\"calls\":%d",
                points, kCalls);
  bench::emit_record(path, "sweep", "expand_paper_grid", extra, median,
                     kCalls);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "BENCH_sweep.json";

  bench_expand(path);

  // --- campaign engine vs scenario-serial baseline (mixed grid) ---
  const GridSpec grid = small_grid();
  const std::size_t kRuns = 8;

  const auto t0 = std::chrono::steady_clock::now();
  const auto points = expand_grid(grid);
  for (const auto& p : points) {
    ScenarioConfig cfg = p.cfg;
    cfg.seed = derive_point_seed(42, p.cfg);
    (void)run_replications(cfg, kRuns, /*parallel=*/true);
  }
  const double serial_sec = seconds_since(t0);

  CampaignOptions opt;
  opt.runs = kRuns;
  opt.master_seed = 42;
  const auto result = run_campaign(grid, opt);

  std::printf(
      "campaign: %zu points x %zu runs, %zu threads — %.2fs (%.2f points/s, "
      "efficiency %.0f%%) vs %.2fs scenario-serial (%.2fx)\n",
      result.points.size(), kRuns, result.threads, result.wall_seconds,
      result.points_per_sec(), 100.0 * result.pool_efficiency(), serial_sec,
      serial_sec / result.wall_seconds);

  char extra[256];
  std::snprintf(extra, sizeof(extra),
                "\"impl\":\"campaign_pool\",\"points\":%zu,\"runs\":%zu,"
                "\"threads\":%zu,\"points_per_sec\":%.4f,"
                "\"pool_efficiency\":%.4f,\"scenario_serial_sec\":%.4f",
                result.points.size(), kRuns, result.threads,
                result.points_per_sec(), result.pool_efficiency(), serial_sec);
  bench::emit_record(path, "sweep", "campaign_2x3_grid", extra,
                     result.wall_seconds * 1e9 /
                         static_cast<double>(result.points.size()),
                     result.points.size());

  // --- per-task vs lockstep(K=8), dedicated and SFQ grids ---
  if (!compare_modes(path, "lockstep_grid",
                     lockstep_grid(BackendKind::kDedicated), kRuns,
                     /*threads=*/1) ||
      !compare_modes(path, "lockstep_sfq_grid",
                     lockstep_grid(BackendKind::kSfq), kRuns,
                     /*threads=*/1)) {
    return 1;
  }
  return 0;
}
