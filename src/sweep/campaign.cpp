#include "sweep/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/error.hpp"
#include "experiment/lockstep.hpp"
#include "sweep/jsonl.hpp"

namespace psd {

namespace {

/// One pool task: replications first_run .. first_run + runs - 1 of a
/// point; more than one is a lane group on the lockstep kernel.
struct CampaignTask {
  std::size_t point = 0;
  std::size_t first_run = 0;
  std::size_t runs = 1;
  double cost = 0.0;  ///< Expected arrivals, the task's relative cost.
};

/// Expected arrivals of `runs` replications of `cfg`, up to the factor
/// capacity / E[size] that a grid's points mostly share: runs x load x
/// nodes x (warmup + measurement).  It only orders tasks; no result depends
/// on it.
double expected_arrivals(const ScenarioConfig& cfg, std::size_t runs) {
  return static_cast<double>(runs) * cfg.load *
         static_cast<double>(cfg.cluster_nodes) *
         (cfg.warmup_tu + cfg.measure_tu);
}

/// Tasks start in grid order so records stream out while the sweep runs.
/// The final wave is the exception: the longest suffix whose costs sum to
/// at most 2 x workers x its largest cost goes largest-first (stable), so a
/// heavy task does not start last and run alone while the other workers
/// idle.
void order_final_wave(std::vector<CampaignTask>& tasks, std::size_t workers) {
  const double budget_per_largest = 2.0 * static_cast<double>(workers);
  double sum = 0.0;
  double largest = 0.0;
  std::size_t wave = tasks.size();
  for (std::size_t j = tasks.size(); j-- > 0;) {
    sum += tasks[j].cost;
    largest = std::max(largest, tasks[j].cost);
    if (sum <= budget_per_largest * largest) wave = j;
  }
  std::stable_sort(tasks.begin() + static_cast<std::ptrdiff_t>(wave),
                   tasks.end(),
                   [](const CampaignTask& a, const CampaignTask& b) {
                     return a.cost > b.cost;
                   });
}

}  // namespace

std::string render_point_record(const CampaignPoint& point,
                                const ReplicatedResult& result,
                                std::uint64_t master_seed,
                                std::uint64_t point_seed, std::size_t runs,
                                double wall_ms, bool timing) {
  const ScenarioConfig& cfg = point.cfg;
  JsonObject o;
  o.field("type", "point")
      .field("schema", std::uint64_t{1})
      .field("key", point.key)
      .field("master_seed", master_seed)
      .field("point_seed", point_seed)
      .field("label", point.label)
      .raw("delta", json_array(cfg.delta))
      .field("load", cfg.load)
      .field("backend", backend_name(cfg.backend))
      .field("allocator", allocator_name(cfg.allocator))
      .field("dist", dist_name(cfg.size_dist))
      .field("rate_change", rate_change_name(cfg.rate_change))
      .field("nodes", cfg.cluster_nodes)
      .field("policy",
             AssignmentSpec(cfg.cluster_policy, cfg.cluster_jsq_d).name())
      .field("runs", runs);

  // Per-class slowdown CIs.
  std::string slow = "[";
  for (std::size_t i = 0; i < result.slowdown.size(); ++i) {
    if (i > 0) slow += ',';
    slow += JsonObject()
                .field("mean", result.slowdown[i].mean)
                .field("half_width", result.slowdown[i].half_width)
                .field("n", result.slowdown[i].n)
                .str();
  }
  slow += ']';
  o.raw("slowdown", slow);

  o.raw("expected", json_array(result.expected))
      .field("system_slowdown", result.system_slowdown)
      .field("expected_system", result.expected_system);

  // Achieved vs target ratios (class j over class 0); target from deltas.
  std::vector<double> target(cfg.delta.size(), kNaN);
  std::vector<double> achieved_over_target(cfg.delta.size(), kNaN);
  for (std::size_t i = 0; i < cfg.delta.size(); ++i) {
    target[i] = cfg.delta[i] / cfg.delta[0];
    if (i < result.mean_ratio.size() && target[i] > 0.0) {
      achieved_over_target[i] = result.mean_ratio[i] / target[i];
    }
  }
  o.raw("mean_ratio", json_array(result.mean_ratio))
      .raw("target_ratio", json_array(target))
      .raw("achieved_over_target", json_array(achieved_over_target));

  // Windowed ratio percentiles (Figs. 5-6, 9-10 material).
  std::string rw = "[";
  for (std::size_t j = 0; j < result.ratio.size(); ++j) {
    if (j > 0) rw += ',';
    rw += JsonObject()
              .field("p5", result.ratio[j].p5)
              .field("p50", result.ratio[j].p50)
              .field("p95", result.ratio[j].p95)
              .field("mean", result.ratio[j].mean)
              .field("windows", result.ratio[j].windows)
              .str();
  }
  rw += ']';
  o.raw("ratio_windows", rw);

  // Nonstationary points carry the transient-response block; appending it
  // conditionally keeps every stationary record's bytes unchanged.
  if (cfg.profile.active()) {
    o.field("profile", cfg.profile.name());
    if (!result.settle_mean_tu.empty()) {
      o.raw("settle_mean_tu", json_array(result.settle_mean_tu))
          .raw("settle_rate", json_array(result.settle_rate))
          .raw("settle_p75_tu", json_array(result.settle_p75_tu));
    }
  }

  // Gated points carry the overload-survival block; same conditional-append
  // discipline as the profile block above.
  if (cfg.admission.active()) {
    o.field("admission", cfg.admission.name())
        .field("shed_total", result.shed_total)
        .raw("shed_rate", json_array(result.shed_rate))
        .field("goodput_tu", result.goodput_tu)
        .field("survivor_ratio_err", result.survivor_ratio_err);
  }

  o.field("completed", result.completed_total);
  if (timing) o.field("wall_ms", wall_ms);
  return o.str();
}

CampaignResult run_campaign(
    const GridSpec& grid, const CampaignOptions& options,
    WorkStealingPool* pool,
    const std::function<void(const PointOutcome&)>& on_point,
    CampaignGauge* gauge) {
  PSD_REQUIRE(options.runs > 0, "need at least one replication per point");
  const auto t0 = std::chrono::steady_clock::now();

  auto points = expand_grid(grid);
  if (gauge != nullptr) gauge->total.add(points.size());

  std::unique_ptr<WorkStealingPool> owned;
  if (pool == nullptr) {
    owned = std::make_unique<WorkStealingPool>(options.threads);
    pool = owned.get();
  }
  const auto stats0 = pool->stats();

  std::unordered_set<std::string> done;
  if (options.resume && !options.jsonl_path.empty()) {
    done = load_completed_keys(options.jsonl_path, options.master_seed);
  }

  CampaignResult out;
  out.threads = pool->worker_count();
  out.points.resize(points.size());

  std::ofstream jsonl;
  if (!options.jsonl_path.empty()) {
    // A killed run can leave its last record without a newline; the resume
    // loader did not count it, and appending onto it would glue the next
    // record to the torn one.
    if (options.resume) trim_torn_tail(options.jsonl_path);
    // resume=false starts the artifact over: appending would leave two
    // records per key for the same master seed and double-count points in
    // any downstream grouping.
    jsonl.open(options.jsonl_path,
               options.resume ? std::ios::app : std::ios::trunc);
    PSD_REQUIRE(static_cast<bool>(jsonl),
                "cannot open campaign JSONL for writing: " +
                    options.jsonl_path);
  }

  // Per-point replication slots; aggregation fires when the last one lands.
  // Errors gate per point: a failed point emits no record, but every other
  // point still aggregates and persists (so a rerun resumes all the work
  // that did succeed).
  struct PointState {
    std::vector<RunResult> reps;
    std::atomic<std::size_t> remaining{0};
    std::atomic<std::uint64_t> rep_ns{0};
    std::string error;  // guarded by emit_m
  };
  std::vector<PointState> state(points.size());

  // In-order release: completed records buffer until every earlier point is
  // out, which keeps the artifact bytes independent of execution order.
  std::mutex emit_m;
  std::map<std::size_t, const PointOutcome*> ready;
  std::size_t next_emit = 0;
  std::string first_error;

  auto release_ready = [&]() {  // call with emit_m held
    while (true) {
      if (next_emit >= out.points.size()) break;
      const auto it = ready.find(next_emit);
      if (it == ready.end()) break;
      const PointOutcome& po = *it->second;
      if (jsonl.is_open() && !po.record.empty()) {
        jsonl << po.record << '\n';
        jsonl.flush();
      }
      if (on_point) on_point(po);
      ready.erase(it);
      ++next_emit;
    }
  };

  // Task granularity: one replication per task, or — in lockstep mode, for
  // a point the lockstep kernel runs — one lane group of up to
  // `lockstep_lanes` replications per task (the last group of a point takes
  // the ragged tail).  Other points gain nothing from grouping, and a group
  // of them would run its replications one after another in one task.
  // Group tasks land their lanes in the same reps slots a per-task campaign
  // would fill, so aggregation — and with it every record byte — is
  // unchanged.
  const std::size_t lanes =
      options.replication_mode == ReplicationMode::kLockstep
          ? options.lockstep_lanes
          : std::size_t{1};
  std::vector<CampaignTask> tasks;
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointOutcome& po = out.points[i];
    po.point = points[i];
    po.point_seed = derive_point_seed(options.master_seed, points[i].cfg);
    if (done.count(points[i].key) > 0) {
      po.skipped = true;
      ++out.skipped;
      if (gauge != nullptr) gauge->skipped.add();
      std::lock_guard<std::mutex> lk(emit_m);
      ready.emplace(i, &po);
      release_ready();
      continue;
    }
    ++out.executed;
    state[i].reps.resize(options.runs);
    state[i].remaining.store(options.runs, std::memory_order_relaxed);

    const std::size_t group =
        lanes > 1 && lockstep_eligible(points[i].cfg) ? lanes : std::size_t{1};
    for (std::size_t r0 = 0; r0 < options.runs; r0 += group) {
      const std::size_t count = std::min(group, options.runs - r0);
      tasks.push_back({i, r0, count, expected_arrivals(points[i].cfg, count)});
    }
  }
  order_final_wave(tasks, pool->worker_count());

  for (const CampaignTask& task : tasks) {
    pool->submit([&, task] {
      PointState& st = state[task.point];
      PointOutcome& outcome = out.points[task.point];
      const auto rep0 = std::chrono::steady_clock::now();
      try {
        ScenarioConfig cfg = outcome.point.cfg;
        cfg.seed = outcome.point_seed;
        if (task.runs > 1) {
          auto reps = run_scenario_lanes(cfg, task.first_run, task.runs);
          for (std::size_t j = 0; j < task.runs; ++j) {
            st.reps[task.first_run + j] = std::move(reps[j]);
          }
        } else {
          st.reps[task.first_run] = run_scenario(cfg, task.first_run);
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(emit_m);
        if (st.error.empty()) {
          st.error = outcome.point.label + ": " + e.what();
        }
      }
      st.rep_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - rep0)
                  .count()),
          std::memory_order_relaxed);
      if (gauge != nullptr) gauge->replications.add(task.runs);
      if (st.remaining.fetch_sub(task.runs, std::memory_order_acq_rel) ==
          task.runs) {
        // Last replication of this point: aggregate + render + release.
        if (gauge != nullptr) gauge->executed.add();
        outcome.wall_ms =
            static_cast<double>(st.rep_ns.load(std::memory_order_relaxed)) *
            1e-6;
        std::lock_guard<std::mutex> lk(emit_m);
        if (st.error.empty()) {
          outcome.result = aggregate_replications(outcome.point.cfg, st.reps);
          outcome.record = render_point_record(
              outcome.point, outcome.result, options.master_seed,
              outcome.point_seed, options.runs, outcome.wall_ms,
              options.timing);
        } else if (first_error.empty()) {
          first_error = st.error;
        }
        st.reps.clear();
        st.reps.shrink_to_fit();
        ready.emplace(task.point, &outcome);
        release_ready();
      }
    });
  }

  pool->wait_idle();
  {
    // Flush any tail (all points should be released by now).
    std::lock_guard<std::mutex> lk(emit_m);
    release_ready();
  }
  if (!first_error.empty()) {
    throw std::runtime_error("campaign point failed: " + first_error);
  }

  const auto stats1 = pool->stats();
  out.pool_busy_seconds = stats1.busy_seconds - stats0.busy_seconds;
  out.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace psd
