// The one task-assignment implementation both dispatchers share.
//
// The sim Cluster (cluster/dispatcher.cpp) and the rt ClusterRuntime
// (cluster/cluster_runtime.cpp) used to need their own routing switches;
// AssignmentRouter hoists the policy state — SITA-E cutoffs (computed when
// the alive set changes, not per request), the round-robin cursor, the RNG
// stream, and the alive mask — behind a single route() call, so a policy
// behaves identically in simulation and serving and a fix lands in both at
// once.
//
// Node failure is an alive-mask flip: dead nodes are skipped by every
// policy.  SITA-E re-splits the size law into one equal-work band per alive
// node, so a kill spreads the dead node's work over every survivor instead
// of doubling one survivor's load on its equal capacity share.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/assignment.hpp"
#include "common/rng.hpp"
#include "dist/sampler.hpp"

namespace psd {

/// SITA-E cutoffs: partition [k, p] into `nodes` intervals of equal expected
/// work (equal contribution to E[X]).  Returns nodes-1 interior cutoffs.
std::vector<double> sita_equal_load_cutoffs(const BoundedParetoSampler& dist,
                                            std::size_t nodes);

class AssignmentRouter {
 public:
  /// `sizes` is required for kSizeInterval: the size law whose support the
  /// SITA-E bands split, one equal-work band per alive node (band k routes
  /// to the k-th alive node).  Ignored by the other policies.
  AssignmentRouter(AssignmentSpec spec, std::size_t nodes, Rng rng,
                   std::optional<BoundedParetoSampler> sizes = std::nullopt);

  /// Pick the target node for a request of `size`, given the policy's
  /// per-node load signal (outstanding work in the sim, outstanding
  /// requests in rt; only kLeastWorkLeft and kJsq read it).  Always returns
  /// an alive node.
  std::size_t route(double size, const std::vector<double>& load);

  /// Flip a node's liveness.  At least one node must stay alive.  Under
  /// SITA-E the bands are recomputed over the nodes now alive.
  void set_alive(std::size_t node, bool alive);
  bool alive(std::size_t node) const { return alive_[node] != 0; }
  std::size_t alive_count() const { return alive_n_; }

  std::size_t nodes() const { return alive_.size(); }
  const AssignmentSpec& spec() const { return spec_; }
  /// SITA-E: the alive_count()-1 cutoffs of the current bands.
  const std::vector<double>& cutoffs() const { return cutoffs_; }

 private:
  std::size_t nth_alive(std::size_t k) const;
  std::size_t next_alive_from(std::size_t node) const;  ///< Wrapping.

  AssignmentSpec spec_;
  Rng rng_;
  std::optional<BoundedParetoSampler> sizes_;
  std::vector<double> cutoffs_;
  std::vector<std::uint8_t> alive_;
  std::size_t alive_n_;
  std::size_t rr_next_ = 0;
};

}  // namespace psd
