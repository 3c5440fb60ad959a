#include "cluster/dispatcher.hpp"

#include "common/error.hpp"
#include "common/types.hpp"

namespace psd {

Cluster::Cluster(Simulator& sim, std::size_t nodes,
                 const ServerConfig& node_cfg,
                 const BackendFactory& backend_factory,
                 const AllocatorFactory& allocator_factory,
                 AssignmentSpec policy, Rng rng,
                 std::optional<BoundedParetoSampler> sizes)
    // The router takes its own copy of `rng`: forks (per-node streams below)
    // don't advance the source, so the random policy draws the same sequence
    // it drew when the dispatcher owned the stream directly.
    : sim_(sim), rng_(rng), router_(policy, nodes, rng, std::move(sizes)) {
  PSD_REQUIRE(backend_factory != nullptr, "backend factory required");
  num_classes_ = node_cfg.num_classes;
  nodes_.reserve(nodes);
  outstanding_.assign(nodes, 0.0);
  dispatched_.assign(nodes, 0);
  for (std::size_t i = 0; i < nodes; ++i) {
    auto allocator = allocator_factory ? allocator_factory() : nullptr;
    nodes_.push_back(std::make_unique<Server>(sim, node_cfg,
                                              backend_factory(),
                                              std::move(allocator),
                                              rng_.fork(9000 + i)));
    Server* node = nodes_.back().get();
    double* out = &outstanding_[i];
    node->set_completion_observer(
        [out](const Request& req) { *out -= req.size; });
  }
}

void Cluster::start(Time origin) {
  for (auto& n : nodes_) n->start(origin);
}

void Cluster::submit(const Request& req) {
  const std::size_t n = router_.route(req.size, outstanding_);
  outstanding_[n] += req.size;
  ++dispatched_[n];
  nodes_[n]->submit(req);
}

void Cluster::finalize() {
  for (auto& n : nodes_) n->finalize();
}

std::vector<double> Cluster::mean_slowdowns() const {
  std::vector<double> out(num_classes_, kNaN);
  for (ClassId c = 0; c < num_classes_; ++c) {
    double sum = 0.0;
    std::uint64_t count = 0;
    for (const auto& n : nodes_) {
      const auto& m = n->metrics().slowdown(c);
      if (m.count() > 0) {
        sum += m.mean() * static_cast<double>(m.count());
        count += m.count();
      }
    }
    if (count > 0) out[c] = sum / static_cast<double>(count);
  }
  return out;
}

std::uint64_t Cluster::completed_total() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) n += node->metrics().completed_total();
  return n;
}

}  // namespace psd
