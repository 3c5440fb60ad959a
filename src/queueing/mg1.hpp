// Analytic M/G/1 FCFS results.
//
// Implements the paper's Lemma 1 and Theorem 1: with Poisson arrivals of rate
// lambda and service times X drawn from `dist` on a server of processing rate
// r (so the effective service time is X/r),
//
//   rho    = lambda E[X] / r
//   E[W]   = lambda E[(X/r)^2] / (2 (1 - rho))          (Pollaczek–Khinchin)
//   E[S]   = E[W] * E[r/X]                              (Lemma 1 + Lemma 2)
//          = lambda E[X^2] E[1/X] / (2 (r - lambda E[X]))
//
// The closed form is exercised for Bounded Pareto (the paper's M/G_B/1) but
// is valid for any distribution with finite E[X^2] and E[1/X].
#pragma once

#include "common/types.hpp"
#include "dist/sampler.hpp"

namespace psd {

struct Mg1Metrics {
  double utilization = 0.0;       ///< rho = lambda E[X] / r.
  double expected_wait = 0.0;     ///< E[W], queueing delay.
  double expected_response = 0.0; ///< E[W] + E[X]/r.
  double expected_slowdown = 0.0; ///< E[S] = E[W] E[1/(X/r)].
};

class Mg1 {
 public:
  /// lambda > 0, rate > 0.  Stability (rho < 1) is NOT required to construct;
  /// metrics throw std::domain_error when the queue is unstable.
  /// Second-moment metrics (wait_second_moment, slowdown variance) need the
  /// distribution's third moment, which the sampler does not carry; pass it
  /// via `third_moment` (NaN disables them).
  Mg1(double lambda, const SamplerVariant& dist, double rate = 1.0,
      double third_moment = kNaN);

  double utilization() const;
  double expected_wait() const;
  double expected_response() const;
  double expected_slowdown() const;

  /// E[W^2] via the Takacs recursion:
  ///   E[W^2] = 2 E[W]^2 + lambda E[(X/r)^3] / (3 (1 - rho)).
  /// Requires a finite third service moment (see constructor).
  double wait_second_moment() const;

  /// Var[S] with W independent of the request's own X under FCFS:
  ///   E[S^2] = E[W^2] E[1/X^2],  Var[S] = E[S^2] - E[S]^2.
  /// Requires a finite E[1/X^2]; supplied by `inverse_second_moment`.
  double slowdown_variance(double inverse_second_moment) const;

  /// Coefficient of variation of the slowdown — the analytic handle on the
  /// windowed-ratio spread of the paper's Fig. 5.
  double slowdown_cv(double inverse_second_moment) const;

  Mg1Metrics metrics() const;

  bool stable() const { return utilization() < 1.0; }

  double lambda() const { return lambda_; }
  double rate() const { return rate_; }

 private:
  void require_stable() const;

  double lambda_;
  double rate_;
  double mean_, m2_, m3_, mean_inv_;
};

}  // namespace psd
