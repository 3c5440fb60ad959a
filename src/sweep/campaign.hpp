// Campaign engine: execute an expanded grid as scenarios x replications on
// one shared FIFO thread pool, stream schema'd JSONL records, and skip
// already-completed points on re-run.
//
// Determinism contract: every point's seed is derive_point_seed(master,
// config content), every replication forks stream `r` from that seed, and
// aggregation consumes replications in index order — so the numbers (and
// the default JSONL bytes) are identical whatever the thread count or
// execution interleaving.  Records are emitted in expansion order even
// though points complete out of order (completed records buffer until their
// turn).  Tasks are submitted in expansion order too, apart from a final
// wave of the heaviest, so records stream out while the campaign runs and a
// killed run leaves a resumable prefix.  Per-point wall time is measured but
// only written when options.timing is set, because timing is the one field
// that cannot be deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "obs/counters.hpp"
#include "sweep/grid.hpp"
#include "sweep/thread_pool.hpp"

namespace psd {

struct CampaignOptions {
  std::size_t runs = 8;             ///< Replications per point.
  std::uint64_t master_seed = 42;
  std::size_t threads = 0;          ///< For an owned pool; 0 = hardware.
  std::string jsonl_path;           ///< Empty = no artifact file.
  /// true: append to jsonl_path, skipping keys already present for this
  /// master seed.  false: truncate jsonl_path and run every point.
  bool resume = true;
  bool timing = false;              ///< Add wall_ms (breaks byte-identity).
  /// Execution mode (experiment/runner.hpp).  kLockstep schedules the
  /// replications of each point the lane-stepped batch kernel runs
  /// (lockstep_eligible) as lane-groups of `lockstep_lanes`, one pool task
  /// per group; other points keep one task per replication.  Pure
  /// execution option: keys, derived seeds, resume identity and JSONL bytes
  /// are identical across modes (lockstep lanes are bitwise-equal to
  /// per-task replications).
  ReplicationMode replication_mode = ReplicationMode::kPerTask;
  std::size_t lockstep_lanes = 8;   ///< Lane-group width K for kLockstep.
};

/// Live campaign progress, readable from another thread while run_campaign
/// executes (a ticker thread, a dashboard).  Counters are relaxed and
/// monotone; a reader sees a slightly stale but internally plausible view.
/// `total` is set once when the grid expands, so `done() < total.get()`
/// doubles as "still running" once the campaign has started.
struct CampaignGauge {
  obs::Counter total;         ///< Grid points (set when the grid expands).
  obs::Counter executed;      ///< Points fully aggregated this run.
  obs::Counter skipped;       ///< Points resumed from a previous artifact.
  obs::Counter replications;  ///< Individual replications finished.

  std::uint64_t done() const { return executed.get() + skipped.get(); }
};

struct PointOutcome {
  CampaignPoint point;
  ReplicatedResult result;  ///< Empty when skipped.
  std::uint64_t point_seed = 0;
  double wall_ms = 0.0;     ///< Summed replication execution time.
  bool skipped = false;     ///< Completed in a previous campaign run.
  std::string record;       ///< The JSONL line (empty when skipped).
};

struct CampaignResult {
  std::vector<PointOutcome> points;  ///< In expansion order.
  std::size_t executed = 0;
  std::size_t skipped = 0;
  std::size_t threads = 0;
  double wall_seconds = 0.0;       ///< Whole-campaign wall time.
  double pool_busy_seconds = 0.0;  ///< Summed task time (this campaign only).

  double points_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(executed) / wall_seconds
                              : 0.0;
  }
  /// Fraction of worker capacity spent executing tasks: busy / (wall x
  /// workers).  1.0 = perfectly saturated.
  double pool_efficiency() const {
    return wall_seconds > 0.0 && threads > 0
               ? pool_busy_seconds /
                     (wall_seconds * static_cast<double>(threads))
               : 0.0;
  }
};

/// Expand, execute, and (optionally) persist a campaign.  `pool` == nullptr
/// creates a pool with options.threads workers for the duration of the call;
/// passing a pool lets several campaigns share one set of workers.
/// `on_point` (may be null) fires in expansion order as records are
/// released, including for skipped points.  `gauge` (may be null) is bumped
/// live as replications and points finish — pass one and read it from a
/// ticker thread for points/s and ETA without touching the emit path.
CampaignResult run_campaign(
    const GridSpec& grid, const CampaignOptions& options,
    WorkStealingPool* pool = nullptr,
    const std::function<void(const PointOutcome&)>& on_point = nullptr,
    CampaignGauge* gauge = nullptr);

/// Render one point's JSONL record (schema v1; see README "Running
/// campaigns" for the field list).
std::string render_point_record(const CampaignPoint& point,
                                const ReplicatedResult& result,
                                std::uint64_t master_seed,
                                std::uint64_t point_seed, std::size_t runs,
                                double wall_ms, bool timing);

}  // namespace psd
