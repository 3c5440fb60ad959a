// Runtime adapter for the heterogeneous PSD allocation: per-class
// service-time distributions (e.g. session workloads whose classes mix
// different request types).
//
// Samplers are held by value — construction copies a SamplerVariant per
// class (cheap: parametric samplers are a few doubles; mixtures share their
// component tables).
#pragma once

#include <vector>

#include "core/psd_allocation.hpp"
#include "server/allocator.hpp"

namespace psd {

class HeteroPsdAllocator final : public RateAllocator {
 public:
  /// `dists[i]` is class i's service-time sampler.
  HeteroPsdAllocator(std::vector<double> delta,
                     std::vector<SamplerVariant> dists, double capacity = 1.0,
                     double rho_max = 0.98, double min_residual_share = 1e-3);

  std::vector<double> allocate(const std::vector<double>& lambda_hat) override;
  std::string name() const override { return "psd-hetero"; }

 private:
  /// Every field but `lambda` is fixed at construction; allocate() refreshes
  /// `lambda` with each estimate.
  HeteroPsdInput in_;
};

}  // namespace psd
