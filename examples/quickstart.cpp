// Quickstart: two service classes with target slowdown ratio 1:2 on a
// Bounded Pareto workload, 50% system load — the paper's baseline setup.
//
// Shows the three levels of the API:
//   1. analytic   — eq. 17 rates and eq. 18 expected slowdowns,
//   2. simulation — the full Fig.-1 server with estimator + allocator,
//   3. comparison — achieved vs expected per class.
#include <iostream>

#include "psd.hpp"

int main() {
  using namespace psd;

  // ---------------------------------------------------------------- analytic
  // Paper defaults: BP(1.5, 0.1, 100).
  const SamplerVariant dist = BoundedParetoSampler(1.5, 0.1, 100.0);
  const double load = 0.5;
  const auto lambdas = rates_for_equal_load(load, 1.0, dist.mean(), 2);
  const std::vector<double> delta = {1.0, 2.0};

  PsdInput in;
  in.lambda = lambdas;
  in.delta = delta;
  in.mean_size = dist.mean();
  const auto alloc = allocate_psd_rates(in);
  const auto expected = expected_psd_slowdowns(lambdas, delta, dist);

  std::cout << "Bounded Pareto: E[X]=" << dist.mean()
            << "  E[X^2]=" << dist.second_moment()
            << "  E[1/X]=" << dist.mean_inverse() << "\n\n";
  std::cout << "eq.17 rates:  r1=" << alloc.rate[0] << "  r2=" << alloc.rate[1]
            << "  (sum=" << alloc.rate[0] + alloc.rate[1] << ")\n";
  std::cout << "eq.18 slowdowns:  E[S1]=" << expected[0]
            << "  E[S2]=" << expected[1]
            << "  ratio=" << expected[1] / expected[0] << "\n\n";

  // -------------------------------------------------------------- simulation
  ScenarioConfig cfg;
  cfg.delta = delta;
  cfg.load = load;
  cfg.measure_tu = 20000.0;  // shorter than the paper's 60k for a quick demo
  const auto result = run_replications(cfg, 8);

  // -------------------------------------------------------------- comparison
  Table t({"class", "delta", "S simulated", "S expected", "ratio vs class 1"});
  for (std::size_t i = 0; i < delta.size(); ++i) {
    t.add_row({std::to_string(i + 1), Table::fmt(delta[i], 1),
               Table::fmt(result.slowdown[i].mean),
               Table::fmt(result.expected[i]),
               Table::fmt(result.mean_ratio[i], 3)});
  }
  t.print(std::cout);
  std::cout << "\nsystem slowdown: simulated=" << result.system_slowdown
            << "  expected=" << result.expected_system << "\n";
  std::cout << "completions: " << result.completed_total << " across "
            << result.runs << " runs\n";
  return 0;
}
