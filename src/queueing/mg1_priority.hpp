// Non-preemptive priority M/G/1 with N classes (Cobham 1954) — the analytic
// model behind the strict-priority baseline (paper §5, Almeida et al.).
//
// With classes indexed by priority (0 highest), per-class Poisson rates
// lambda_i and service moments E[X_i], E[X_i^2]:
//
//   R      = sum_j lambda_j E[X_j^2] / 2        (mean residual work)
//   sigma_i = sum_{j <= i} rho_j
//   E[W_i] = R / ((1 - sigma_{i-1}) (1 - sigma_i))
//
// Slowdown follows by Lemma-1 style independence within a class:
// E[S_i] = E[W_i] E[1/X_i] (waiting time of a class-i request is independent
// of its own service time).  This lets tests validate the PriorityBackend
// against closed forms, and quantifies WHY strict priority cannot provide
// controllable spacing: the ratios are fixed by loads, not by operator knobs.
#pragma once

#include <vector>

#include "dist/sampler.hpp"

namespace psd {

class Mg1Priority {
 public:
  /// Classes ordered by priority (index 0 served first); `dist[i]` is class
  /// i's service-time law.  All classes share one processor of rate `rate`.
  Mg1Priority(std::vector<double> lambda,
              const std::vector<SamplerVariant>& dist, double rate = 1.0);

  std::size_t num_classes() const { return lambda_.size(); }
  double utilization() const;  ///< Total rho.
  bool stable() const { return utilization() < 1.0; }

  /// Expected queueing delay of class i (throws std::domain_error if the
  /// cumulative load through class i reaches 1).
  double expected_wait(std::size_t i) const;

  /// Expected slowdown of class i; requires finite E[1/X_i].
  double expected_slowdown(std::size_t i) const;

  /// All waits / slowdowns at once.
  std::vector<double> expected_waits() const;
  std::vector<double> expected_slowdowns() const;

 private:
  std::vector<double> lambda_;
  std::vector<double> mean_, m2_, mean_inv_;
  double rate_;
  double residual_;  ///< R = sum lambda_j E[(X_j/r)^2] / 2.
};

}  // namespace psd
