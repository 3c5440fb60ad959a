// Ablation A3: can anything else provide PSD?  Paper §5 argues that neither
// rate-based PDD schemes nor time-dependent-priority PDD schedulers (WTP /
// PAD / HPD) can, because they never look at service times.  This bench runs
// the PSD allocator against those baselines on identical workloads and
// reports achieved *slowdown* ratios and *delay* ratios.
//
// Expected: only psd-eq17 pins the slowdown ratio at the target; equal-share
// yields ~1; WTP/PAD/HPD steer the DELAY ratio toward the target instead
// (their design goal) while their slowdown ratio drifts; strict priority
// over-serves class 1 without any controllable spacing.
#include <memory>

#include "bench_util.hpp"
#include "baselines/pdd_policies.hpp"
#include "core/hetero_psd_allocator.hpp"
#include "dist/sampler.hpp"
#include "experiment/figures.hpp"
#include "sched/dedicated_rate.hpp"
#include "server/server.hpp"
#include "workload/generator.hpp"

namespace {

// Part 2: classes with DIFFERENT service-time distributions — the regime
// where proportional *delay* and proportional *slowdown* truly diverge,
// because E[S_i] = E[W_i] * E[1/X_i] and the E[1/X_i] differ per class.
void heterogeneous_comparison() {
  using namespace psd;
  const DeterministicSampler d0(0.5);             // E[1/X] = 2.0
  const BoundedParetoSampler d1(1.5, 0.1, 100.0);  // E[1/X] = 6.0
  const std::vector<double> delta = {1.0, 2.0};
  // Equal work demand per class: lambda_i * E[X_i] = 0.35.
  const std::vector<double> lam = {0.35 / d0.mean(), 0.35 / d1.mean()};

  struct Row {
    const char* label;
    bool use_psd;    // hetero-PSD allocator on dedicated backend vs WTP
  };
  const Row rows[] = {{"hetero psd-eq17", true}, {"wtp (PDD)", false}};

  Table t({"policy", "S1", "S2", "slowdown ratio", "delay ratio"});
  for (const auto& row : rows) {
    Simulator sim;
    ServerConfig sc;
    sc.num_classes = 2;
    sc.realloc_period = row.use_psd ? 290.0 : 0.0;
    sc.metrics.num_classes = 2;
    sc.metrics.warmup_end = 3000.0;
    sc.metrics.window = 290.0;

    std::unique_ptr<SchedulerBackend> backend;
    std::unique_ptr<RateAllocator> alloc;
    if (row.use_psd) {
      backend = std::make_unique<DedicatedRateBackend>();
      alloc = std::make_unique<HeteroPsdAllocator>(
          delta, std::vector<SamplerVariant>{d0, d1});
    } else {
      backend = make_wtp_backend(delta);
    }
    Server server(sim, sc, std::move(backend), std::move(alloc), Rng(21));
    server.start(0.0);

    std::vector<std::unique_ptr<RequestGenerator>> gens;
    gens.push_back(std::make_unique<RequestGenerator>(
        sim, Rng(31), 0, PoissonArrivals(lam[0]), d0, server));
    gens.push_back(std::make_unique<RequestGenerator>(
        sim, Rng(32), 1, PoissonArrivals(lam[1]), d1, server));
    for (auto& g : gens) g->start(0.0);
    sim.run_until(40000.0);
    server.finalize();

    const double s1 = server.metrics().slowdown(0).mean();
    const double s2 = server.metrics().slowdown(1).mean();
    const double w1 = server.metrics().delay(0).mean();
    const double w2 = server.metrics().delay(1).mean();
    t.add_row({row.label, Table::fmt(s1, 2), Table::fmt(s2, 2),
               Table::fmt(s2 / s1, 2), Table::fmt(w2 / w1, 2)});
  }
  std::cout << "\n--- part 2: heterogeneous class distributions "
               "(class 1 det(0.5), class 2 BP(1.5,0.1,100); target slowdown "
               "ratio 2) ---\n";
  t.print(std::cout);
  std::cout << "E[1/X] differs 2.0 vs 6.0 across classes, so delay "
               "proportionality and\nslowdown proportionality decouple: only "
               "the heterogeneous eq.-17 allocator\ncan target the slowdown "
               "ratio (paper §5's argument made concrete).\n";
}

}  // namespace

int main() {
  using namespace psd;
  const std::size_t runs = default_runs(40);
  bench::header("Ablation A3 — PSD vs delay-oriented baselines",
                "deltas (1,2), 70% load; slowdown ratio target 2", runs);

  struct Row {
    const char* label;
    BackendKind backend;
    AllocatorKind alloc;
  };
  const Row rows[] = {
      {"psd-eq17 (paper)", BackendKind::kDedicated, AllocatorKind::kPsd},
      {"equal-share rates", BackendKind::kDedicated,
       AllocatorKind::kEqualShare},
      {"load-proportional rates", BackendKind::kDedicated,
       AllocatorKind::kLoadProportional},
      {"wtp (PDD)", BackendKind::kWtp, AllocatorKind::kNone},
      {"pad (PDD)", BackendKind::kPad, AllocatorKind::kNone},
      {"hpd (PDD)", BackendKind::kHpd, AllocatorKind::kNone},
      {"strict priority", BackendKind::kStrict, AllocatorKind::kNone},
  };

  Table t({"policy", "slowdown ratio S2/S1", "S1", "S2"});
  for (const auto& row : rows) {
    auto cfg = two_class_scenario(2.0, 70.0);
    cfg.backend = row.backend;
    cfg.allocator = row.alloc;
    const auto r = run_replications(cfg, runs);
    t.add_row({row.label, Table::fmt(r.mean_ratio[1], 2),
               Table::fmt(r.slowdown[0].mean, 2),
               Table::fmt(r.slowdown[1].mean, 2)});
  }
  t.print(std::cout);
  heterogeneous_comparison();
  return 0;
}
