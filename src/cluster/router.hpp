// The one task-assignment implementation both dispatchers share.
//
// The sim Cluster (cluster/dispatcher.cpp) and the rt ClusterRuntime
// (cluster/cluster_runtime.cpp) used to need their own routing switches;
// AssignmentRouter hoists the policy state — SITA-E cutoffs (computed once,
// not per request), the round-robin cursor, the RNG stream, and the alive
// mask — behind a single route() call, so a policy behaves identically in
// simulation and serving and a fix lands in both at once.
//
// Node failure is an alive-mask flip: dead nodes are skipped by every
// policy, and a SITA-E band whose home node died reroutes to the next alive
// node (wrapping), keeping the dispatcher total-function under failures.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/assignment.hpp"
#include "common/rng.hpp"

namespace psd {

class AssignmentRouter {
 public:
  /// `cutoffs` is required (size nodes-1, increasing) for kSizeInterval —
  /// precompute with sita_equal_load_cutoffs(); ignored otherwise.
  AssignmentRouter(AssignmentSpec spec, std::size_t nodes, Rng rng,
                   std::vector<double> cutoffs = {});

  /// Pick the target node for a request of `size`, given the policy's
  /// per-node load signal (outstanding work in the sim, outstanding
  /// requests in rt; only kLeastWorkLeft and kJsq read it).  Always returns
  /// an alive node.
  std::size_t route(double size, const std::vector<double>& load);

  /// Flip a node's liveness.  At least one node must stay alive.
  void set_alive(std::size_t node, bool alive);
  bool alive(std::size_t node) const { return alive_[node] != 0; }
  std::size_t alive_count() const { return alive_n_; }

  std::size_t nodes() const { return alive_.size(); }
  const AssignmentSpec& spec() const { return spec_; }
  const std::vector<double>& cutoffs() const { return cutoffs_; }

 private:
  std::size_t nth_alive(std::size_t k) const;
  std::size_t next_alive_from(std::size_t node) const;  ///< Wrapping.

  AssignmentSpec spec_;
  Rng rng_;
  std::vector<double> cutoffs_;
  std::vector<std::uint8_t> alive_;
  std::size_t alive_n_;
  std::size_t rr_next_ = 0;
};

}  // namespace psd
