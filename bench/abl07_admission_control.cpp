// Ablation A7: admission control under overload.  eq. 17 requires rho < 1;
// when demand exceeds capacity the bare allocator can only clamp (every
// queue then grows without bound).  The gates shed lower classes to keep
// admitted demand feasible — the paper's §5 companion mechanism
// (Abdelzaher-style utilization control, plus our eq.-18-native
// slowdown-budget gate).
//
// Expected: without a gate, all slowdowns explode as offered load passes 1.
// With either gate the highest class keeps a bounded slowdown; the
// slowdown-budget gate holds E[S1] near its target budget.
#include <iostream>
#include <memory>

#include "admission/admission.hpp"
#include "bench_util.hpp"
#include "core/psd_rate_allocator.hpp"
#include "dist/sampler.hpp"
#include "sched/dedicated_rate.hpp"
#include "server/server.hpp"
#include "workload/generator.hpp"

namespace {

struct Outcome {
  double s1 = 0, s2 = 0;
  std::uint64_t done1 = 0, done2 = 0, rejected = 0;
};

Outcome run_with_gate(double offered_load, int gate_kind) {
  using namespace psd;
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  Simulator sim;

  ServerConfig sc;
  sc.num_classes = 2;
  sc.realloc_period = 290.0;
  sc.metrics.num_classes = 2;
  sc.metrics.warmup_end = 3000.0;
  sc.metrics.window = 290.0;

  PsdAllocatorConfig pc;
  pc.delta = {1.0, 2.0};
  pc.mean_size = bp.mean();

  Server server(sim, sc, std::make_unique<DedicatedRateBackend>(),
                std::make_unique<PsdRateAllocator>(pc), Rng(5));
  if (gate_kind == 1) {
    server.set_admission(
        std::make_unique<UtilizationGate>(2, bp.mean(), 1.0, 0.9));
  } else if (gate_kind == 2) {
    server.set_admission(std::make_unique<SlowdownBudgetGate>(
        std::vector<double>{1.0, 2.0}, bp, 1.0,
        /*max unit slowdown*/ 30.0));
  }
  server.start(0.0);

  const auto lam = rates_for_equal_load(offered_load, 1.0, bp.mean(), 2);
  std::vector<std::unique_ptr<RequestGenerator>> gens;
  for (ClassId c = 0; c < 2; ++c) {
    gens.push_back(std::make_unique<RequestGenerator>(
        sim, Rng(60 + c), c, PoissonArrivals(lam[c]), bp, server));
    gens.back()->start(0.0);
  }
  sim.run_until(25000.0);
  server.finalize();

  Outcome o;
  o.s1 = server.metrics().slowdown(0).mean();
  o.s2 = server.metrics().slowdown(1).mean();
  o.done1 = server.metrics().completed(0);
  o.done2 = server.metrics().completed(1);
  o.rejected = server.rejected_total();
  return o;
}

}  // namespace

int main() {
  using namespace psd;
  bench::header("Ablation A7 — admission control under overload",
                "deltas (1,2); offered load swept past saturation", 1);
  const char* names[] = {"none", "utilization gate (0.9)",
                         "slowdown budget (30/delta-unit)"};
  for (int gate = 0; gate < 3; ++gate) {
    std::cout << "--- gate: " << names[gate] << " ---\n";
    Table t({"offered load", "S1", "S2", "done1", "done2", "rejected"});
    for (double load : {0.7, 0.95, 1.2, 1.6}) {
      const auto o = run_with_gate(load, gate);
      t.add_row({Table::fmt(load, 2), Table::fmt(o.s1, 1),
                 Table::fmt(o.s2, 1), std::to_string(o.done1),
                 std::to_string(o.done2), std::to_string(o.rejected)});
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Without a gate, slowdowns blow up past load 1.0; the "
               "utilization gate\nbounds them by shedding class 2; the "
               "eq.-18 budget gate additionally keeps\nE[S1] near its "
               "configured budget.\n";
  return 0;
}
