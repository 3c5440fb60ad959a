// Walker/Vose alias method: O(n) setup, O(1) weighted index sampling with a
// single uniform draw.  Backs MixtureSampler component selection (in place of
// an O(log n) cumulative-weight binary search).
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace psd {

class AliasTable {
 public:
  /// Weights must be non-empty with positive sum; zero entries are allowed
  /// (they are simply never drawn).
  explicit AliasTable(const std::vector<double>& weights) {
    const std::size_t n = weights.size();
    PSD_REQUIRE(n > 0, "alias table needs at least one weight");
    double total = 0.0;
    for (double w : weights) {
      PSD_REQUIRE(w >= 0.0, "alias weights must be non-negative");
      total += w;
    }
    PSD_REQUIRE(total > 0.0, "alias weights must have positive sum");

    prob_.resize(n);
    alias_.resize(n);
    // Vose's stable two-worklist construction on scaled weights n*w/total.
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(
          static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      const std::uint32_t l = large.back();
      small.pop_back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    // Leftovers are exactly 1 up to rounding; saturate them.
    for (std::uint32_t i : large) {
      prob_[i] = 1.0;
      alias_[i] = i;
    }
    for (std::uint32_t i : small) {
      prob_[i] = 1.0;
      alias_[i] = i;
    }
  }

  /// Draw an index with probability proportional to its weight.  One uniform:
  /// the integer part picks the column, the fractional part the coin flip.
  std::size_t pick(Rng& rng) const {
    const double un = rng.uniform01() * static_cast<double>(prob_.size());
    std::size_t i = static_cast<std::size_t>(un);
    if (i >= prob_.size()) i = prob_.size() - 1;  // u == 1-ulp guard
    return (un - static_cast<double>(i)) < prob_[i] ? i : alias_[i];
  }

  std::size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace psd
