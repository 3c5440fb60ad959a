#include "core/psd_allocation.hpp"

#include <numeric>
#include <stdexcept>

#include "common/error.hpp"
#include "queueing/mg1.hpp"

namespace psd {

namespace {

void validate(const PsdInput& in) {
  PSD_REQUIRE(!in.lambda.empty(), "need at least one class");
  PSD_REQUIRE(in.lambda.size() == in.delta.size(),
              "lambda/delta size mismatch");
  PSD_REQUIRE(in.mean_size > 0.0, "mean size must be positive");
  PSD_REQUIRE(in.capacity > 0.0, "capacity must be positive");
  PSD_REQUIRE(in.rho_max > 0.0 && in.rho_max < 1.0, "rho_max in (0,1)");
  PSD_REQUIRE(in.min_residual_share >= 0.0 && in.min_residual_share < 0.5,
              "min_residual_share in [0, 0.5)");
  for (double l : in.lambda) PSD_REQUIRE(l >= 0.0, "lambda must be >= 0");
  for (double d : in.delta) PSD_REQUIRE(d > 0.0, "delta must be > 0");
}

}  // namespace

bool psd_feasible(const std::vector<double>& lambda, double mean_size,
                  double capacity) {
  const double demand =
      std::accumulate(lambda.begin(), lambda.end(), 0.0) * mean_size;
  return demand < capacity;
}

PsdAllocation allocate_psd_rates(const PsdInput& in) {
  validate(in);
  const std::size_t n = in.lambda.size();

  std::vector<double> lambda = in.lambda;
  double demand = std::accumulate(lambda.begin(), lambda.end(), 0.0) *
                  in.mean_size;
  PsdAllocation out;
  if (demand >= in.capacity) {
    if (in.overload == OverloadPolicy::kThrow) {
      throw std::domain_error(
          "PSD allocation infeasible: offered load >= capacity");
    }
    // Scale the whole mix down so utilization equals rho_max; relative class
    // loads — and therefore the eq.-17 shape — are preserved.
    const double scale = in.rho_max * in.capacity / demand;
    for (auto& l : lambda) l *= scale;
    demand = in.rho_max * in.capacity;
    out.clamped = true;
  }
  out.utilization = demand / in.capacity;

  // Residual capacity split proportionally to lambda_i / delta_i (eq. 17),
  // with an optional floor so zero-lambda classes keep a trickle of rate.
  double denom = 0.0;
  for (std::size_t i = 0; i < n; ++i) denom += lambda[i] / in.delta[i];
  const double residual = in.capacity - demand;

  out.rate.assign(n, 0.0);
  if (denom <= 0.0) {
    // No class has observable load (cold start): split capacity evenly.
    for (auto& r : out.rate) r = in.capacity / static_cast<double>(n);
    return out;
  }

  std::vector<double> share(n, 0.0);
  double floor_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    share[i] = (lambda[i] / in.delta[i]) / denom;
    if (share[i] < in.min_residual_share) {
      share[i] = in.min_residual_share;
    }
    floor_total += share[i];
  }
  // Renormalize shares (floors may have pushed the sum above 1).
  for (auto& s : share) s /= floor_total;

  for (std::size_t i = 0; i < n; ++i) {
    out.rate[i] = lambda[i] * in.mean_size + share[i] * residual;
  }
  return out;
}

double theorem1_slowdown(double lambda, const SamplerVariant& dist,
                         double rate) {
  return Mg1(lambda, dist, rate).expected_slowdown();
}

std::vector<double> expected_psd_slowdowns(const std::vector<double>& lambda,
                                           const std::vector<double>& delta,
                                           const SamplerVariant& dist,
                                           double capacity) {
  PSD_REQUIRE(lambda.size() == delta.size(), "lambda/delta size mismatch");
  PSD_REQUIRE(!lambda.empty(), "need at least one class");
  PSD_REQUIRE(capacity > 0.0, "capacity must be positive");
  const double ex = dist.mean();
  const double ex2 = dist.second_moment();
  const double einv = dist.mean_inverse();

  double demand = 0.0;
  double denom = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    PSD_REQUIRE(lambda[i] >= 0.0, "lambda must be >= 0");
    PSD_REQUIRE(delta[i] > 0.0, "delta must be > 0");
    demand += lambda[i] * ex;
    denom += lambda[i] / delta[i];
  }
  if (demand >= capacity) {
    throw std::domain_error("expected slowdown undefined: rho >= 1");
  }
  // eq. 18 (generalized to capacity C): the residual capacity is C - demand.
  const double common = denom * ex2 * einv / (2.0 * (capacity - demand));
  std::vector<double> out(lambda.size());
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    out[i] = delta[i] * common;
  }
  return out;
}

namespace {

void validate_hetero(const HeteroPsdInput& in) {
  PSD_REQUIRE(!in.lambda.empty(), "need at least one class");
  PSD_REQUIRE(in.lambda.size() == in.delta.size(),
              "lambda/delta size mismatch");
  PSD_REQUIRE(in.lambda.size() == in.dist.size(),
              "lambda/dist size mismatch");
  PSD_REQUIRE(in.capacity > 0.0, "capacity must be positive");
  PSD_REQUIRE(in.rho_max > 0.0 && in.rho_max < 1.0, "rho_max in (0,1)");
  for (std::size_t i = 0; i < in.lambda.size(); ++i) {
    PSD_REQUIRE(in.lambda[i] >= 0.0, "lambda must be >= 0");
    PSD_REQUIRE(in.delta[i] > 0.0, "delta must be > 0");
  }
}

}  // namespace

PsdAllocation allocate_psd_rates_hetero(const HeteroPsdInput& in) {
  validate_hetero(in);
  const std::size_t n = in.lambda.size();

  std::vector<double> lambda = in.lambda;
  std::vector<double> mean(n), a(n);
  for (std::size_t i = 0; i < n; ++i) {
    mean[i] = in.dist[i].mean();
    a[i] = in.dist[i].second_moment() * in.dist[i].mean_inverse() / 2.0;
  }

  double demand = 0.0;
  for (std::size_t i = 0; i < n; ++i) demand += lambda[i] * mean[i];
  PsdAllocation out;
  if (demand >= in.capacity) {
    if (in.overload == OverloadPolicy::kThrow) {
      throw std::domain_error(
          "hetero PSD allocation infeasible: offered load >= capacity");
    }
    const double scale = in.rho_max * in.capacity / demand;
    for (auto& l : lambda) l *= scale;
    demand = in.rho_max * in.capacity;
    out.clamped = true;
  }
  out.utilization = demand / in.capacity;

  // Residual split proportional to A_i lambda_i / delta_i, with the same
  // floor semantics as the homogeneous path.
  double denom = 0.0;
  std::vector<double> weight(n);
  for (std::size_t i = 0; i < n; ++i) {
    weight[i] = a[i] * lambda[i] / in.delta[i];
    denom += weight[i];
  }
  out.rate.assign(n, 0.0);
  if (denom <= 0.0) {
    for (auto& r : out.rate) r = in.capacity / static_cast<double>(n);
    return out;
  }
  const double residual = in.capacity - demand;
  double floor_total = 0.0;
  std::vector<double> share(n);
  for (std::size_t i = 0; i < n; ++i) {
    share[i] = std::max(weight[i] / denom, in.min_residual_share);
    floor_total += share[i];
  }
  for (auto& s : share) s /= floor_total;
  for (std::size_t i = 0; i < n; ++i) {
    out.rate[i] = lambda[i] * mean[i] + share[i] * residual;
  }
  return out;
}

std::vector<double> expected_psd_slowdowns_hetero(
    const std::vector<double>& lambda, const std::vector<double>& delta,
    const std::vector<SamplerVariant>& dist, double capacity) {
  HeteroPsdInput in;
  in.lambda = lambda;
  in.delta = delta;
  in.dist = dist;
  in.capacity = capacity;
  validate_hetero(in);
  double demand = 0.0, num = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    demand += lambda[i] * dist[i].mean();
    num += dist[i].second_moment() * dist[i].mean_inverse() / 2.0 *
           lambda[i] / delta[i];
  }
  if (demand >= capacity) {
    throw std::domain_error("expected slowdown undefined: rho >= 1");
  }
  const double s = num / (capacity - demand);
  std::vector<double> out(lambda.size());
  for (std::size_t i = 0; i < lambda.size(); ++i) out[i] = delta[i] * s;
  return out;
}

double expected_system_slowdown(const std::vector<double>& lambda,
                                const std::vector<double>& delta,
                                const SamplerVariant& dist,
                                double capacity) {
  const auto sd = expected_psd_slowdowns(lambda, delta, dist, capacity);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < sd.size(); ++i) {
    num += lambda[i] * sd[i];
    den += lambda[i];
  }
  PSD_REQUIRE(den > 0.0, "at least one class must have load");
  return num / den;
}

}  // namespace psd
