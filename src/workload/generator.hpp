// Open-loop per-class request generator (paper Fig. 1, "request generators").
//
// Each generator owns an arrival variant and a size sampler *by value* —
// no virtual dispatch, no unique_ptr clone at setup — creates requests for
// exactly one class, and submits them to a RequestSink.
//
// Hot-path shape: interarrival gaps and sizes are pre-generated kBatch at a
// time into flat buffers (one variant dispatch per refill instead of two
// per event), and the arrival timeline is a simulator *stream* — the run
// loop pulls the next arrival from the buffered block directly, so an
// arrival costs one callback instead of a schedule+sift+pop cycle through
// the central event heap.  Draw order within the owning Rng stream is
// blocks of kBatch gaps followed by kBatch sizes; fixed seeds remain
// exactly reproducible.
#pragma once

#include <array>

#include "dist/sampler.hpp"
#include "sim/simulator.hpp"
#include "workload/arrival.hpp"
#include "workload/sink.hpp"

namespace psd {

class RequestGenerator {
 public:
  /// The generator does not own the sink; all other collaborators are owned.
  RequestGenerator(Simulator& sim, Rng rng, ClassId cls,
                   ArrivalVariant arrivals, SamplerVariant sizes,
                   RequestSink& sink);

  RequestGenerator(const RequestGenerator&) = delete;
  RequestGenerator& operator=(const RequestGenerator&) = delete;

  /// Begin arrivals (the first one interarrival after `origin`).
  void start(Time origin);

  /// Stop generating; the arrival stream goes idle immediately.
  void stop();

  std::uint64_t generated() const { return count_; }
  ClassId cls() const { return cls_; }

  /// One variant dispatch refills kBatch gaps, one refills kBatch sizes.
  static constexpr std::size_t kBatch = 64;

 private:
  Time arrive(Time now);
  double next_gap();

  Simulator& sim_;
  Rng rng_;
  ClassId cls_;
  ArrivalVariant arrivals_;
  SamplerVariant sizes_;
  RequestSink& sink_;
  std::array<double, kBatch> gap_buf_;
  std::array<double, kBatch> size_buf_;
  std::size_t cursor_ = kBatch;  ///< == kBatch forces a refill.
  Simulator::StreamId stream_ = Simulator::kNoStream;
  std::uint64_t count_ = 0;
};

}  // namespace psd
