#include "queueing/mg1.hpp"

#include <cmath>
#include <stdexcept>

#include "common/error.hpp"
#include "common/types.hpp"

namespace psd {

Mg1::Mg1(double lambda, const SamplerVariant& dist, double rate,
         double third_moment)
    : lambda_(lambda), rate_(rate), m3_(third_moment) {
  PSD_REQUIRE(lambda > 0.0, "arrival rate must be positive");
  PSD_REQUIRE(rate > 0.0, "processing rate must be positive");
  mean_ = dist.mean();
  m2_ = dist.second_moment();
  // E[1/X] may diverge (e.g. unbounded exponential).  Delay/response metrics
  // remain valid in that case; only expected_slowdown() is unavailable.
  try {
    mean_inv_ = dist.mean_inverse();
  } catch (const std::domain_error&) {
    mean_inv_ = kNaN;
  }
}

double Mg1::utilization() const { return lambda_ * mean_ / rate_; }

void Mg1::require_stable() const {
  if (utilization() >= 1.0) {
    throw std::domain_error("M/G/1 queue is unstable (rho >= 1)");
  }
}

double Mg1::expected_wait() const {
  require_stable();
  // P-K with service times X/r: E[(X/r)^2] = E[X^2]/r^2.
  const double rho = utilization();
  return lambda_ * m2_ / (rate_ * rate_) / (2.0 * (1.0 - rho));
}

double Mg1::expected_response() const {
  return expected_wait() + mean_ / rate_;
}

double Mg1::expected_slowdown() const {
  require_stable();
  if (std::isnan(mean_inv_)) {
    throw std::domain_error(
        "expected slowdown undefined: E[1/X] diverges for this service-time "
        "distribution (paper §5)");
  }
  // Lemma 1 with Lemma-2 scaling: E[1/(X/r)] = r E[1/X]; algebra collapses to
  // lambda E[X^2] E[1/X] / (2 (r - lambda E[X])).
  return lambda_ * m2_ * mean_inv_ / (2.0 * (rate_ - lambda_ * mean_));
}

double Mg1::wait_second_moment() const {
  require_stable();
  if (std::isnan(m3_)) {
    throw std::domain_error(
        "wait_second_moment needs the service third moment (pass it to the "
        "Mg1 constructor)");
  }
  const double w = expected_wait();
  const double m3_scaled = m3_ / (rate_ * rate_ * rate_);
  return 2.0 * w * w + lambda_ * m3_scaled / (3.0 * (1.0 - utilization()));
}

double Mg1::slowdown_variance(double inverse_second_moment) const {
  PSD_REQUIRE(inverse_second_moment > 0.0, "E[1/X^2] must be positive");
  // E[1/(X/r)^2] = r^2 E[1/X^2].
  const double s = expected_slowdown();
  const double s2 =
      wait_second_moment() * inverse_second_moment * rate_ * rate_;
  return s2 - s * s;
}

double Mg1::slowdown_cv(double inverse_second_moment) const {
  return std::sqrt(slowdown_variance(inverse_second_moment)) /
         expected_slowdown();
}

Mg1Metrics Mg1::metrics() const {
  Mg1Metrics m;
  m.utilization = utilization();
  m.expected_wait = expected_wait();
  m.expected_response = expected_response();
  m.expected_slowdown = expected_slowdown();
  return m;
}

}  // namespace psd
