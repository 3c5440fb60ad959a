// Cluster of PSD servers behind a task-assignment dispatcher.
//
// The paper's related work (Harchol-Balter's task assignment [13], Zhu/Tang/
// Yang's cluster DiffServ [25], ADAPTLOAD [21]) studies slowdown on server
// *clusters*; this module composes our single-node PSD server into that
// setting.  Each node runs its own Fig.-1 pipeline (queues, estimator,
// allocator, task servers); the dispatcher routes every arriving request to
// one node:
//   * kRandom        — uniform random node,
//   * kRoundRobin    — cyclic,
//   * kLeastWorkLeft — node with the least outstanding work (size-aware),
//   * kSizeInterval  — SITA-E: node n serves sizes in [cutoff_{n-1},
//                      cutoff_n), cutoffs chosen to equalize expected load;
//                      the assignment Harchol-Balter showed to excel under
//                      heavy tails because it keeps small jobs away from
//                      monsters,
//   * kJsq           — JSQ(d): least-loaded of d randomly sampled nodes.
//
// Routing itself lives in cluster/router.hpp (AssignmentRouter), shared with
// the rt ClusterRuntime so a policy behaves identically in sim and serving.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/router.hpp"
#include "dist/sampler.hpp"
#include "server/server.hpp"

namespace psd {

class Cluster final : public RequestSink {
 public:
  using BackendFactory = std::function<std::unique_ptr<SchedulerBackend>()>;
  using AllocatorFactory = std::function<std::unique_ptr<RateAllocator>()>;

  /// Builds `nodes` identical servers from the config and factories.
  /// `sizes` (the size law SITA-E splits into bands) is required for
  /// kSizeInterval.  (AssignmentSpec is implicitly constructible from
  /// AssignmentPolicy, so policy-enum call sites keep working; pass a spec
  /// to set JSQ's d.)
  Cluster(Simulator& sim, std::size_t nodes, const ServerConfig& node_cfg,
          const BackendFactory& backend_factory,
          const AllocatorFactory& allocator_factory, AssignmentSpec policy,
          Rng rng, std::optional<BoundedParetoSampler> sizes = std::nullopt);

  void start(Time origin);
  void submit(const Request& req) override;
  void finalize();

  std::size_t nodes() const { return nodes_.size(); }
  Server& node(std::size_t i) { return *nodes_[i]; }
  const Server& node(std::size_t i) const { return *nodes_[i]; }

  /// Outstanding (submitted - completed) work currently on a node.
  double outstanding_work(std::size_t i) const { return outstanding_[i]; }

  /// Cluster-wide per-class mean slowdown (completion-weighted over nodes).
  std::vector<double> mean_slowdowns() const;
  std::uint64_t completed_total() const;
  std::uint64_t dispatched(std::size_t node) const { return dispatched_[node]; }

  const AssignmentRouter& router() const { return router_; }

 private:
  Simulator& sim_;
  Rng rng_;  ///< Forks per-node streams; the router gets its own copy.
  AssignmentRouter router_;
  std::vector<std::unique_ptr<Server>> nodes_;
  std::vector<double> outstanding_;
  std::vector<std::uint64_t> dispatched_;
  std::size_t num_classes_ = 0;
};

}  // namespace psd
