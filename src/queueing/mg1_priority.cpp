#include "queueing/mg1_priority.hpp"

#include <cmath>
#include <stdexcept>

#include "common/error.hpp"
#include "common/types.hpp"

namespace psd {

Mg1Priority::Mg1Priority(std::vector<double> lambda,
                         const std::vector<SamplerVariant>& dist,
                         double rate)
    : lambda_(std::move(lambda)), rate_(rate) {
  PSD_REQUIRE(!lambda_.empty(), "need at least one class");
  PSD_REQUIRE(lambda_.size() == dist.size(), "lambda/dist size mismatch");
  PSD_REQUIRE(rate > 0.0, "rate must be positive");
  const std::size_t n = lambda_.size();
  mean_.resize(n);
  m2_.resize(n);
  mean_inv_.resize(n);
  residual_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    PSD_REQUIRE(lambda_[i] > 0.0, "lambda must be positive");
    mean_[i] = dist[i].mean() / rate_;
    m2_[i] = dist[i].second_moment() / (rate_ * rate_);
    try {
      mean_inv_[i] = dist[i].mean_inverse() * rate_;
    } catch (const std::domain_error&) {
      mean_inv_[i] = kNaN;
    }
    residual_ += lambda_[i] * m2_[i] / 2.0;
  }
}

double Mg1Priority::utilization() const {
  double rho = 0.0;
  for (std::size_t i = 0; i < lambda_.size(); ++i) rho += lambda_[i] * mean_[i];
  return rho;
}

double Mg1Priority::expected_wait(std::size_t i) const {
  PSD_REQUIRE(i < lambda_.size(), "class index out of range");
  double sigma_prev = 0.0;
  for (std::size_t j = 0; j < i; ++j) sigma_prev += lambda_[j] * mean_[j];
  const double sigma_i = sigma_prev + lambda_[i] * mean_[i];
  if (sigma_i >= 1.0) {
    throw std::domain_error(
        "priority M/G/1: cumulative load through this class reaches 1");
  }
  return residual_ / ((1.0 - sigma_prev) * (1.0 - sigma_i));
}

double Mg1Priority::expected_slowdown(std::size_t i) const {
  PSD_REQUIRE(i < lambda_.size(), "class index out of range");
  if (std::isnan(mean_inv_[i])) {
    throw std::domain_error("E[1/X] diverges for this class's distribution");
  }
  return expected_wait(i) * mean_inv_[i];
}

std::vector<double> Mg1Priority::expected_waits() const {
  std::vector<double> out(lambda_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = expected_wait(i);
  return out;
}

std::vector<double> Mg1Priority::expected_slowdowns() const {
  std::vector<double> out(lambda_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = expected_slowdown(i);
  return out;
}

}  // namespace psd
