#include "core/hetero_psd_allocator.hpp"

#include "common/error.hpp"

namespace psd {

HeteroPsdAllocator::HeteroPsdAllocator(std::vector<double> delta,
                                       std::vector<SamplerVariant> dists,
                                       double capacity, double rho_max,
                                       double min_residual_share) {
  PSD_REQUIRE(!delta.empty(), "need at least one class");
  PSD_REQUIRE(delta.size() == dists.size(), "delta/dists size mismatch");
  PSD_REQUIRE(capacity > 0.0, "capacity must be positive");
  in_.delta = std::move(delta);
  in_.dist = std::move(dists);
  in_.capacity = capacity;
  in_.overload = OverloadPolicy::kClamp;
  in_.rho_max = rho_max;
  in_.min_residual_share = min_residual_share;
}

std::vector<double> HeteroPsdAllocator::allocate(
    const std::vector<double>& lambda_hat) {
  PSD_REQUIRE(lambda_hat.size() == in_.delta.size(), "estimate size mismatch");
  in_.lambda = lambda_hat;
  return std::move(allocate_psd_rates_hetero(in_).rate);
}

}  // namespace psd
