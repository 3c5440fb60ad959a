#include "cluster/router.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace psd {

std::vector<double> sita_equal_load_cutoffs(const BoundedParetoSampler& dist,
                                            std::size_t nodes) {
  PSD_REQUIRE(nodes >= 1, "need at least one node");
  // Partial expected work up to x: W(x) = g (x^{1-a} - k^{1-a}) / (1-a)
  // (log form at a == 1); each node takes an equal share of W(p).
  const double a = dist.alpha();
  const double g = dist.normalizer();
  const double k = dist.min_value();
  auto partial = [&](double x) {
    if (std::abs(a - 1.0) < 1e-12) return g * std::log(x / k);
    return g * (std::pow(x, 1.0 - a) - std::pow(k, 1.0 - a)) / (1.0 - a);
  };
  const double total = partial(dist.max_value());
  std::vector<double> cutoffs;
  cutoffs.reserve(nodes - 1);
  for (std::size_t n = 1; n < nodes; ++n) {
    const double target = total * static_cast<double>(n) /
                          static_cast<double>(nodes);
    double lo = dist.min_value(), hi = dist.max_value();
    for (int iter = 0; iter < 200; ++iter) {
      const double mid = 0.5 * (lo + hi);
      (partial(mid) < target ? lo : hi) = mid;
    }
    cutoffs.push_back(0.5 * (lo + hi));
  }
  return cutoffs;
}

AssignmentRouter::AssignmentRouter(AssignmentSpec spec, std::size_t nodes,
                                   Rng rng,
                                   std::optional<BoundedParetoSampler> sizes)
    : spec_(spec),
      rng_(rng),
      sizes_(std::move(sizes)),
      alive_(nodes, 1),
      alive_n_(nodes) {
  PSD_REQUIRE(nodes >= 1, "need at least one node");
  spec_.validate();
  if (spec_.policy == AssignmentPolicy::kSizeInterval) {
    PSD_REQUIRE(sizes_.has_value(),
                "size-interval policy needs the bounded-pareto size law");
    cutoffs_ = sita_equal_load_cutoffs(*sizes_, alive_n_);
  }
}

void AssignmentRouter::set_alive(std::size_t node, bool alive) {
  PSD_REQUIRE(node < alive_.size(), "node index out of range");
  if ((alive_[node] != 0) == alive) return;
  PSD_REQUIRE(alive || alive_n_ > 1, "cannot kill the last alive node");
  alive_[node] = alive ? 1 : 0;
  alive_n_ += alive ? 1 : static_cast<std::size_t>(-1);
  if (spec_.policy == AssignmentPolicy::kSizeInterval) {
    cutoffs_ = sita_equal_load_cutoffs(*sizes_, alive_n_);
  }
}

std::size_t AssignmentRouter::nth_alive(std::size_t k) const {
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (alive_[i] != 0 && k-- == 0) return i;
  }
  PSD_UNREACHABLE("alive-node rank out of range");
}

std::size_t AssignmentRouter::next_alive_from(std::size_t node) const {
  for (std::size_t step = 0; step < alive_.size(); ++step) {
    const std::size_t i = (node + step) % alive_.size();
    if (alive_[i] != 0) return i;
  }
  PSD_UNREACHABLE("no alive node");
}

std::size_t AssignmentRouter::route(double size,
                                    const std::vector<double>& load) {
  switch (spec_.policy) {
    case AssignmentPolicy::kRandom:
      return nth_alive(static_cast<std::size_t>(rng_.below(alive_n_)));
    case AssignmentPolicy::kRoundRobin: {
      const std::size_t n = next_alive_from(rr_next_);
      rr_next_ = (n + 1) % alive_.size();
      return n;
    }
    case AssignmentPolicy::kLeastWorkLeft: {
      std::size_t best = next_alive_from(0);
      for (std::size_t i = best + 1; i < alive_.size(); ++i) {
        if (alive_[i] != 0 && load[i] < load[best]) best = i;
      }
      return best;
    }
    case AssignmentPolicy::kSizeInterval: {
      // One band per alive node: band k is the k-th alive node's.
      const auto it =
          std::upper_bound(cutoffs_.begin(), cutoffs_.end(), size);
      return nth_alive(static_cast<std::size_t>(it - cutoffs_.begin()));
    }
    case AssignmentPolicy::kJsq: {
      // Power of d choices (Mitzenmacher): least-loaded of d uniformly
      // sampled alive nodes (with replacement — the standard analysis);
      // ties break to the lowest index.  d >= alive degenerates to a full
      // least-loaded scan, which makes JSQ(n) testable against lwl.
      if (spec_.d >= alive_n_) {
        std::size_t best = next_alive_from(0);
        for (std::size_t i = best + 1; i < alive_.size(); ++i) {
          if (alive_[i] != 0 && load[i] < load[best]) best = i;
        }
        return best;
      }
      std::size_t best =
          nth_alive(static_cast<std::size_t>(rng_.below(alive_n_)));
      for (std::size_t draw = 1; draw < spec_.d; ++draw) {
        const std::size_t pick =
            nth_alive(static_cast<std::size_t>(rng_.below(alive_n_)));
        if (load[pick] < load[best] ||
            (load[pick] == load[best] && pick < best)) {
          best = pick;
        }
      }
      return best;
    }
  }
  PSD_UNREACHABLE("unknown assignment policy");
}

}  // namespace psd
