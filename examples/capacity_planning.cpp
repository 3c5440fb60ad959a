// Example: analytic capacity planning with the closed forms — no simulation.
//
// Questions a service operator can answer directly from eq. 17 / eq. 18:
//  1. Given traffic and deltas, what rates do my task servers need and what
//     slowdowns will each class see?
//  2. How much total capacity do I need so the premium class stays under a
//     slowdown budget?
//  3. How does the answer move if the workload tail gets heavier?
#include <iostream>

#include "psd.hpp"

int main() {
  using namespace psd;

  const SamplerVariant dist = BoundedParetoSampler(1.5, 0.1, 100.0);
  const std::vector<double> delta = {1.0, 2.0, 4.0};

  // --- question 1: rates and slowdowns at current traffic -----------------
  const auto lambdas = rates_for_load(0.75, 1.0, dist.mean(), {0.2, 0.3, 0.5});
  PsdInput in;
  in.lambda = lambdas;
  in.delta = delta;
  in.mean_size = dist.mean();
  const auto alloc = allocate_psd_rates(in);
  const auto sd = expected_psd_slowdowns(lambdas, delta, dist);

  Table t({"class", "delta", "lambda", "rate (eq.17)", "E[S] (eq.18)"});
  for (std::size_t i = 0; i < delta.size(); ++i) {
    t.add_row(std::vector<double>{static_cast<double>(i + 1), delta[i],
                                  lambdas[i], alloc.rate[i], sd[i]},
              3);
  }
  t.print(std::cout);
  std::cout << "utilization " << Table::fmt(alloc.utilization, 3)
            << ", expected system slowdown "
            << Table::fmt(expected_system_slowdown(lambdas, delta, dist), 2)
            << "\n\n";

  // --- question 2: capacity to meet a premium slowdown budget -------------
  const double budget = 5.0;  // premium class: E[S1] <= 5
  double lo = 0.76, hi = 8.0;  // capacity search bracket (rho<1 needs >0.75)
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const auto s = expected_psd_slowdowns(lambdas, delta, dist, mid);
    (s[0] > budget ? lo : hi) = mid;
  }
  std::cout << "capacity needed so that E[S1] <= " << budget << ": "
            << Table::fmt(hi, 3) << "x the current server\n";
  const auto sd_hi = expected_psd_slowdowns(lambdas, delta, dist, hi);
  std::cout << "  at that capacity: E[S1]=" << Table::fmt(sd_hi[0], 2)
            << " E[S2]=" << Table::fmt(sd_hi[1], 2)
            << " E[S3]=" << Table::fmt(sd_hi[2], 2) << "\n\n";

  // --- question 3: sensitivity to the workload tail -----------------------
  Table t3({"upper bound p", "E[X^2]", "E[1/X]", "E[S1]", "capacity for "
            "budget"});
  for (double p : {100.0, 1000.0, 10000.0}) {
    const SamplerVariant d = BoundedParetoSampler(1.5, 0.1, p);
    const auto lam = rates_for_load(0.75, 1.0, d.mean(), {0.2, 0.3, 0.5});
    const auto s = expected_psd_slowdowns(lam, delta, d);
    double clo = 0.76, chi = 80.0;
    for (int iter = 0; iter < 60; ++iter) {
      const double mid = 0.5 * (clo + chi);
      (expected_psd_slowdowns(lam, delta, d, mid)[0] > budget ? clo : chi) =
          mid;
    }
    t3.add_row(std::vector<double>{p, d.second_moment(), d.mean_inverse(),
                                   s[0], chi},
               3);
  }
  t3.print(std::cout);
  std::cout << "\nHeavier tails inflate E[X^2] and with it every slowdown — "
               "capacity requirements grow accordingly.\n";
  return 0;
}
