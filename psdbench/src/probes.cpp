// Bench-timed calls into the public functions of the layers that do
// per-request or per-point work: each metric is the median over a few
// batches of wall time per call (per drawn value, per simulated request).
#include <algorithm>
#include <numeric>

#include "admission/admission.hpp"
#include "cluster/router.hpp"
#include "core/psd_rate_allocator.hpp"
#include "dist/sampler.hpp"
#include "experiment/lockstep.hpp"
#include "experiment/runner.hpp"
#include "sweep/campaign.hpp"
#include "workload/arrival.hpp"
#include "workloads.hpp"

namespace psdbench {

namespace {

/// Results land here so the optimizer cannot drop the timed calls.
volatile double g_sink = 0.0;

constexpr int kBatches = 7;

template <typename F>
double ns_per_call(std::size_t calls, F&& f) {
  std::vector<double> per;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = wall_seconds();
    for (std::size_t i = 0; i < calls; ++i) f();
    per.push_back((wall_seconds() - t0) * 1e9 / static_cast<double>(calls));
  }
  return median(per);
}

/// Wall ns per simulated post-warmup completion of `run`.
template <typename F>
double ns_per_request(F&& run) {
  const double t0 = wall_seconds();
  const std::vector<psd::RunResult> results = run();
  const double ns = (wall_seconds() - t0) * 1e9;
  std::uint64_t completed = 0;
  for (const auto& rr : results) {
    for (const auto& c : rr.cls) completed += c.completed;
  }
  return ns / static_cast<double>(std::max<std::uint64_t>(1, completed));
}

}  // namespace

void run_layer_probes(Result& r, const ProbeInput& in) {
  const psd::SamplerVariant sizes = psd::make_sampler(in.sizes);
  const std::size_t classes = in.delta.size();
  double sink = 0.0;

  {  // core: the eq.-17 allocation on the workload's arrival rates.
    psd::PsdAllocatorConfig pc;
    pc.delta = in.delta;
    pc.capacity = in.capacity;
    pc.mean_size = sizes.mean();
    psd::PsdRateAllocator alloc(pc);
    r.set("core.allocate_ns", ns_per_call(20000, [&] {
            sink += alloc.allocate(in.lambda)[0];
          }));
  }
  {  // cluster: JSQ(2) over 2 nodes with a moving outstanding count.
    psd::AssignmentRouter router(
        psd::AssignmentSpec(psd::AssignmentPolicy::kJsq, 2), 2,
        psd::Rng(in.seed));
    std::vector<double> load(2, 0.0);
    r.set("cluster.route_ns", ns_per_call(200000, [&] {
            const std::size_t n = router.route(1.0, load);
            load[n] = load[n] >= 32.0 ? 0.0 : load[n] + 1.0;
          }));
    sink += load[0];
  }
  {  // admission: delta-aware:0.8 thinning a 1.5x-capacity offered load.
    auto gate = psd::make_admission(psd::AdmissionSpec::parse("delta-aware:0.8"),
                                    in.delta, sizes, in.capacity);
    const double offered_rps = 1.5 * in.capacity / sizes.mean();
    gate->update(std::vector<double>(classes,
                                     offered_rps / static_cast<double>(classes)));
    double now = 0.0;
    std::size_t k = 0;
    r.set("admission.admit_ns", ns_per_call(200000, [&] {
            now += 1.0 / offered_rps;
            sink += gate->admit_request(static_cast<psd::ClassId>(k++ % classes),
                                        now, 1.0);
          }));
  }
  {  // dist: batched bounded-Pareto draws, ns per value.
    const psd::SamplerVariant bp =
        psd::make_sampler(psd::DistSpec::bounded_pareto(1.5, 0.1, 100.0));
    psd::Rng rng(in.seed);
    std::vector<double> buf(1024);
    r.set("dist.bp_sample_ns", ns_per_call(200, [&] {
                                 bp.sample_n(rng, buf.data(), buf.size());
                                 sink += buf[0];
                               }) /
                                   static_cast<double>(buf.size()));
  }
  {  // workload: Poisson interarrival draws at the workload's total rate.
    psd::PoissonArrivals arrivals(
        std::accumulate(in.lambda.begin(), in.lambda.end(), 0.0));
    psd::Rng rng(in.seed);
    r.set("workload.interarrival_ns", ns_per_call(200000, [&] {
            sink += arrivals.next_interarrival(rng);
          }));
  }

  // experiment and sweep: one load-0.5, delta (1,2) point of the paper grid.
  const psd::GridSpec grid = paper_grid();
  psd::ScenarioConfig ded = grid.base;
  ded.load = 0.5;
  ded.backend = psd::BackendKind::kDedicated;
  ded.seed = in.seed;
  psd::ScenarioConfig sfq = ded;
  sfq.backend = psd::BackendKind::kSfq;
  {
    std::vector<double> per;
    for (std::uint64_t run = 0; run < 5; ++run) {
      per.push_back(ns_per_request([&] {
        return std::vector<psd::RunResult>{psd::run_scenario(sfq, run)};
      }));
    }
    r.set("experiment.per_task_ns_per_req", median(per));
  }
  std::vector<psd::RunResult> lanes;
  {
    std::vector<double> per;
    for (std::uint64_t group = 0; group < 3; ++group) {
      per.push_back(ns_per_request([&] {
        lanes = psd::run_scenario_lanes(ded, group * 8, 8);
        return lanes;
      }));
    }
    r.set("experiment.lockstep_ns_per_req", median(per));
  }
  psd::ReplicatedResult agg;
  r.set("experiment.aggregate_us_per_point", 1e-3 * ns_per_call(20, [&] {
                                               agg = psd::aggregate_replications(
                                                   ded, lanes);
                                             }));
  std::vector<psd::CampaignPoint> points;
  r.set("sweep.expand_ms", 1e-6 * ns_per_call(3, [&] {
                             points = psd::expand_grid(grid);
                           }));
  const auto point = std::find_if(points.begin(), points.end(), [&](const auto& p) {
    return p.cfg.load == ded.load && p.cfg.backend == ded.backend &&
           p.cfg.delta == ded.delta;
  });
  r.check(point != points.end(), "probe point missing from the paper grid");
  if (point != points.end()) {
    std::size_t bytes = 0;
    r.set("sweep.render_us_per_point", 1e-3 * ns_per_call(200, [&] {
                                         bytes += psd::render_point_record(
                                                      *point, agg, in.seed,
                                                      in.seed, lanes.size(),
                                                      0.0, false)
                                                      .size();
                                       }));
    sink += static_cast<double>(bytes);
  }
  g_sink = g_sink + sink;
}

}  // namespace psdbench
