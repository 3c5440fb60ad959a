// sweep_paper: run_campaign over the paper's grid — loads 0.1..0.9 x
// delta in {(1,2), (1,4), (1,8)} x backends {dedicated, sfq}, the psd
// (eq. 17) allocator, BP(1.5, 0.1, 100) sizes and the paper's warmup and
// measurement protocol (ScenarioConfig defaults) — on a 3-worker pool with
// lockstep lane groups of 8.  Dedicated points run the lockstep kernel, SFQ
// points fall back to per-task replications.  The simulation stack does all
// the work; no rt, cluster or admission code runs.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "experiment/runner.hpp"
#include "sweep/campaign.hpp"
#include "workloads.hpp"

namespace psdbench {

namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kRuns = 8;
constexpr std::size_t kLanes = 8;
/// Passes whose points make up ratio_attainment: a fixed amount of work, so
/// the quality figure does not depend on how fast the passes ran.
constexpr std::size_t kQualityPasses = 4;
/// Points of the first pass re-run per task and compared byte-for-byte.
constexpr std::size_t kSentinels = 3;

struct Passes {
  std::size_t passes = 0;
  std::uint64_t points = 0;
  std::uint64_t replications = 0;
  double wall_s = 0.0;
  double busy_s = 0.0;
  // Per pass.
  std::vector<double> points_per_s, goodput_rps, cpu_ns_per_req;
  std::vector<double> release_wait_s;  ///< Pass start -> point record out.
  std::vector<double> attainment;      ///< Points of the quality passes.
  psd::CampaignResult first;           ///< Pass 0, master seed fixed by seed.
  std::uint64_t first_master_seed = 0;
  std::size_t non_finite_records = 0;
};

psd::CampaignOptions campaign_options(std::uint64_t master_seed) {
  psd::CampaignOptions o;
  o.runs = kRuns;
  o.master_seed = master_seed;
  o.resume = false;
  o.replication_mode = psd::ReplicationMode::kLockstep;
  o.lockstep_lanes = kLanes;
  return o;
}

/// Whole passes over the grid until `seconds` of campaign time elapsed
/// (at least kQualityPasses); pass k runs under the k-th master seed drawn
/// from the workload seed.  `between` (may be empty) runs after each pass,
/// outside the timed campaigns.
Passes run_passes(const psd::GridSpec& grid, psd::WorkStealingPool& pool,
                  std::uint64_t seed, double seconds,
                  psd::CampaignGauge* gauge,
                  const std::function<void()>& between) {
  Passes p;
  psd::SplitMix64 seeds(seed);
  while (p.passes < kQualityPasses || p.wall_s < seconds) {
    const std::uint64_t master = seeds.next();
    const double start = wall_seconds();
    const auto on_point = [&](const psd::PointOutcome&) {
      p.release_wait_s.push_back(wall_seconds() - start);
    };
    const double cpu0 = process_cpu_seconds();
    psd::CampaignResult res = psd::run_campaign(
        grid, campaign_options(master), &pool, on_point, gauge);
    const double cpu = process_cpu_seconds() - cpu0;
    std::uint64_t completed = 0;
    for (const auto& po : res.points) {
      completed += po.result.completed_total;
      if (po.record.find("null") != std::string::npos) ++p.non_finite_records;
      if (p.passes < kQualityPasses) {
        const auto& d = po.point.cfg.delta;
        p.attainment.push_back(
            attainment(po.result.mean_ratio[1], d[1] / d[0]));
      }
    }
    p.wall_s += res.wall_seconds;
    p.busy_s += res.pool_busy_seconds;
    p.points += res.executed;
    p.replications += res.executed * kRuns;
    p.points_per_s.push_back(static_cast<double>(res.executed) /
                             res.wall_seconds);
    p.goodput_rps.push_back(static_cast<double>(completed) / res.wall_seconds);
    p.cpu_ns_per_req.push_back(cpu * 1e9 / static_cast<double>(completed));
    if (p.passes == 0) {
      p.first = std::move(res);
      p.first_master_seed = master;
    }
    ++p.passes;
    if (between) between();
  }
  return p;
}

/// Re-run a few dedicated (lockstep) points of pass 0 one replication per
/// call and render their records: they must equal the campaign's bytes.
std::size_t sentinel_mismatches(const Passes& p) {
  std::size_t checked = 0;
  std::size_t bad = 0;
  const auto& points = p.first.points;
  const std::size_t stride = std::max<std::size_t>(1, points.size() / 8);
  for (std::size_t i = 0; i < points.size() && checked < kSentinels;
       i += stride) {
    const psd::PointOutcome& po = points[i];
    if (po.point.cfg.backend != psd::BackendKind::kDedicated) continue;
    psd::ScenarioConfig cfg = po.point.cfg;
    cfg.seed = po.point_seed;
    std::vector<psd::RunResult> reps;
    for (std::size_t r = 0; r < kRuns; ++r) {
      reps.push_back(psd::run_scenario(cfg, r));
    }
    const std::string rec = psd::render_point_record(
        po.point, psd::aggregate_replications(po.point.cfg, reps),
        p.first_master_seed, po.point_seed, kRuns, 0.0, false);
    ++checked;
    if (rec != po.record) ++bad;
  }
  return checked == kSentinels ? bad : kSentinels;
}

void check_and_count(Result& r, const Passes& p) {
  r.check(p.non_finite_records == 0,
          std::to_string(p.non_finite_records) +
              " point records carry non-finite values");
  const std::size_t bad = sentinel_mismatches(p);
  r.check(bad == 0, std::to_string(bad) + " of " +
                        std::to_string(kSentinels) +
                        " sentinel points differ between per-task and "
                        "lockstep execution");
  r.attempted += p.replications;
}

}  // namespace

psd::GridSpec paper_grid() {
  psd::GridSpec g;
  g.base.allocator = psd::AllocatorKind::kPsd;
  g.base.size_dist = psd::DistSpec::bounded_pareto(1.5, 0.1, 100.0);
  g.loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  g.deltas = {{1.0, 2.0}, {1.0, 4.0}, {1.0, 8.0}};
  g.backends = {psd::BackendKind::kDedicated, psd::BackendKind::kSfq};
  return g;
}

Result run_sweep_paper(const Options& opt) {
  Result r;
  const psd::GridSpec grid = paper_grid();
  // Set-up (a pool plus the expanded grid) is timed once before the first
  // pass and again after every pass, and setup_s is the median.  A
  // millisecond of single-threaded work lands in the fast or the slow speed
  // state of a shared host, and one state can last a whole run: timed only
  // at the start, the median of ten runs moved 26% between sets.
  std::vector<double> setup_times;
  std::size_t grid_points = 0;
  const auto set_up = [&] {
    const double t0 = wall_seconds();
    auto pool = std::make_unique<psd::WorkStealingPool>(kWorkers);
    grid_points = psd::expand_grid(grid).size();
    setup_times.push_back(wall_seconds() - t0);
    return pool;
  };
  const std::unique_ptr<psd::WorkStealingPool> pool = set_up();
  r.check(grid_points == 54, "paper grid expands to " +
                                 std::to_string(grid_points) +
                                 " points, expected 54");

  const Passes p = run_passes(grid, *pool, opt.seed, opt.seconds, nullptr,
                              [&] { set_up(); });
  check_and_count(r, p);
  const double cpu_ns = median(p.cpu_ns_per_req);
  if (!opt.trace) {
    // Throughput and cost are medians over passes, like the rt workloads'
    // medians over windows.
    r.set("goodput_rps", median(p.goodput_rps));
    r.set("cpu_ns_per_req", cpu_ns);
    r.set("ingress_p50_us", median(p.release_wait_s) * 1e6);
    r.set("ratio_attainment", median(p.attainment));
    r.set("points_per_s", median(p.points_per_s));
    r.set("setup_s", median(setup_times));
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%zu passes, %llu points, %llu replications in %.2f s",
                  p.passes, static_cast<unsigned long long>(p.points),
                  static_cast<unsigned long long>(p.replications), p.wall_s);
    r.note(line);
    return r;
  }

  // Traced: the same passes with the live campaign gauge attached.
  psd::CampaignGauge gauge;
  const Passes tp =
      run_passes(grid, *pool, opt.seed, opt.seconds, &gauge, nullptr);
  check_and_count(r, tp);
  r.check(gauge.replications.get() == tp.replications,
          "campaign gauge counted " +
              std::to_string(gauge.replications.get()) + " replications, " +
              std::to_string(tp.replications) + " ran");
  r.set("obs.trace_overhead", median(tp.cpu_ns_per_req) / cpu_ns - 1.0);
  r.set("sweep.pool_efficiency",
        tp.busy_s / (tp.wall_s * static_cast<double>(kWorkers)));

  psd::ScenarioConfig probe = grid.base;
  probe.load = 0.5;
  ProbeInput in;
  in.delta = probe.delta;
  in.lambda = probe.true_lambdas();
  in.capacity = probe.capacity;
  in.sizes = probe.size_dist;
  in.seed = opt.seed;
  run_layer_probes(r, in);
  return r;
}

}  // namespace psdbench
