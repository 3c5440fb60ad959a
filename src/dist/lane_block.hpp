// K-lane draw-block storage: the lockstep kernel's slice of the batched
// sampling machinery (ziggurat / alias tables reached through sample_n and
// fill_interarrivals).
//
// The per-task RequestGenerator refills blocks of kBatch interarrival gaps
// followed by kBatch sizes from one per-(run, class) Rng.  The lockstep
// kernel keeps that exact refill protocol — same block length, same
// gaps-then-sizes order, same per-stream Rng — but owns the storage for all
// K lanes x C classes in two flat arrays, so a task's entire draw state is
// contiguous and a refill is two batched table walks writing one cache-
// resident slice.  Because the refill order is preserved verbatim, every
// (lane, class) stream consumes its Rng identically to the per-task path:
// this is half of the bitwise-determinism contract (the other half is the
// kernel's event ordering, src/sim/lane_stepper.hpp).
//
// kBatch must match RequestGenerator::kBatch — a divergence would change
// refill boundaries and thus draw order; lockstep.cpp static_asserts the
// equality.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/sampler.hpp"
#include "workload/arrival.hpp"

namespace psd {

class LaneDrawBlocks {
 public:
  static constexpr std::size_t kBatch = 64;

  LaneDrawBlocks(std::size_t lanes, std::size_t streams)
      : streams_(streams),
        gaps_(lanes * streams * kBatch),
        sizes_(lanes * streams * kBatch),
        cursor_(lanes * streams, kBatch) {}  // kBatch = refill on first use

  double* gap_slice(std::size_t lane, std::size_t stream) {
    return gaps_.data() + (lane * streams_ + stream) * kBatch;
  }
  double* size_slice(std::size_t lane, std::size_t stream) {
    return sizes_.data() + (lane * streams_ + stream) * kBatch;
  }
  std::uint32_t& cursor(std::size_t lane, std::size_t stream) {
    return cursor_[lane * streams_ + stream];
  }

  /// Refill one (lane, stream) slice: kBatch gaps then kBatch sizes from
  /// `rng`, in the generator's draw order, and rewind the cursor.
  void refill(std::size_t lane, std::size_t stream, ArrivalVariant& arrivals,
              const SamplerVariant& sizes, Rng& rng) {
    arrivals.fill_interarrivals(rng, gap_slice(lane, stream), kBatch);
    sizes.sample_n(rng, size_slice(lane, stream), kBatch);
    cursor(lane, stream) = 0;
  }

 private:
  std::size_t streams_;
  std::vector<double> gaps_;         ///< lanes x streams x kBatch.
  std::vector<double> sizes_;        ///< lanes x streams x kBatch.
  std::vector<std::uint32_t> cursor_;  ///< Per (lane, stream) read position.
};

}  // namespace psd
