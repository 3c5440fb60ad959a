// The paper's contribution: closed-form processing-rate allocation for
// proportional slowdown differentiation (PSD), §3.
//
// Given per-class Poisson rates lambda_i, differentiation parameters delta_i
// (delta_1 <= ... <= delta_N, class 0 highest) and a service-time
// distribution X shared by all classes, choose task-server rates r_i with
// sum r_i = C such that E[S_i]/E[S_j] = delta_i/delta_j (eq. 16).
//
// From Theorem 1, E[S_i] = lambda_i E[X^2] E[1/X] / (2 (r_i - lambda_i E[X])),
// so equalizing E[S_i]/delta_i across classes and imposing sum r_i = C gives
//
//   r_i = lambda_i E[X] + (lambda_i/delta_i) / (sum_j lambda_j/delta_j)
//         * (C - sum_j lambda_j E[X])                              (eq. 17)
//
// — class i first receives its mean work demand, then a share of the residual
// capacity proportional to its delta-scaled arrival rate.  The resulting
// expected slowdown is
//
//   E[S_i] = delta_i (sum_j lambda_j/delta_j) E[X^2] E[1/X] / (2 C (1 - rho))
//                                                                 (eq. 18)
// with rho = sum_j lambda_j E[X] / C.
#pragma once

#include <vector>

#include "dist/sampler.hpp"

namespace psd {

/// What to do when the offered load is infeasible (rho >= 1).
enum class OverloadPolicy {
  kThrow,  ///< Raise std::domain_error (analysis-time default).
  kClamp,  ///< Scale all lambdas down to rho_max, preserving the mix
           ///< (runtime default: rates stay feasible under estimator spikes).
};

struct PsdInput {
  std::vector<double> lambda;  ///< Per-class arrival rates (>= 0).
  std::vector<double> delta;   ///< Differentiation parameters (> 0).
  double mean_size = 1.0;      ///< E[X] at full capacity.
  double capacity = 1.0;       ///< Total processing rate C.
  OverloadPolicy overload = OverloadPolicy::kThrow;
  double rho_max = 0.98;       ///< Clamp target for kClamp.
  /// Floor on each class's share of the residual capacity, as a fraction of
  /// capacity.  Guards classes whose estimated lambda is (transiently) zero
  /// from being allocated zero rate and stalling until the next window.
  double min_residual_share = 1e-3;
};

struct PsdAllocation {
  std::vector<double> rate;  ///< Absolute per-class rates; sum == capacity.
  double utilization = 0.0;  ///< rho actually used (post-clamp).
  bool clamped = false;      ///< Whether the overload clamp engaged.
};

/// eq. 17.  Requires at least one positive lambda; classes with lambda == 0
/// receive only the min_residual_share floor.
PsdAllocation allocate_psd_rates(const PsdInput& in);

/// eq. 18: expected slowdown per class under the eq.-17 allocation.
std::vector<double> expected_psd_slowdowns(const std::vector<double>& lambda,
                                           const std::vector<double>& delta,
                                           const SamplerVariant& dist,
                                           double capacity = 1.0);

/// Theorem 1: expected slowdown of one class on a task server of rate `rate`.
/// (Exposed so tests can check eq. 18 == Theorem 1 ∘ eq. 17.)
double theorem1_slowdown(double lambda, const SamplerVariant& dist,
                         double rate);

/// Expected *system* slowdown: lambda-weighted mean of eq.-18 values.
double expected_system_slowdown(const std::vector<double>& lambda,
                                const std::vector<double>& delta,
                                const SamplerVariant& dist,
                                double capacity = 1.0);

/// Validity helper: true iff sum lambda_i E[X] < capacity.
bool psd_feasible(const std::vector<double>& lambda, double mean_size,
                  double capacity);

// ---------------------------------------------------------------------------
// Heterogeneous generalization (beyond the paper).
//
// The paper assumes every class draws sizes from the SAME Bounded Pareto.
// Real multi-class servers (e.g. the session workload of §2.2) give each
// class its own distribution X_i.  Theorem 1 still applies per class with
//   E[S_i] = A_i lambda_i / (r_i - lambda_i E[X_i]),
//   A_i    = E[X_i^2] E[1/X_i] / 2,
// and equalizing E[S_i]/delta_i under sum r_i = C stays closed-form:
//   s   = sum_j (A_j lambda_j / delta_j) / (C - sum_j lambda_j E[X_j])
//   r_i = lambda_i E[X_i] + A_i lambda_i / (delta_i s),   E[S_i] = delta_i s.
// With identical distributions this reduces exactly to eq. 17.
// ---------------------------------------------------------------------------

struct HeteroPsdInput {
  std::vector<double> lambda;
  std::vector<double> delta;
  /// Per-class service-time distributions (size == lambda.size()).
  std::vector<SamplerVariant> dist;
  double capacity = 1.0;
  OverloadPolicy overload = OverloadPolicy::kThrow;
  double rho_max = 0.98;
  double min_residual_share = 1e-3;
};

PsdAllocation allocate_psd_rates_hetero(const HeteroPsdInput& in);

/// Expected per-class slowdowns under the heterogeneous allocation
/// (each equals delta_i * s).
std::vector<double> expected_psd_slowdowns_hetero(
    const std::vector<double>& lambda, const std::vector<double>& delta,
    const std::vector<SamplerVariant>& dist, double capacity = 1.0);

}  // namespace psd
