// RuntimeHandle: the narrow interface an external driver feeds a Runtime
// through.
//
// A Runtime built with EmbeddedTag has shards, a controller and reports but
// no load sources of its own.  Whoever drives it — the cluster dispatcher
// treating it as one node of many, the benchmark's own open-loop generator,
// deterministic tests injecting hand-built arrivals — needs only:
//
//   submit()            — inject one request (per-class round-robin over the
//                         shards, the same spray discipline the internal
//                         load sources use, so per-shard class mixes stay
//                         aligned with the global mix),
//   shard_snapshots()   — read the seqlock-published per-shard state,
//   outstanding()       — accepted requests not yet completed.
//
// The lifecycle (step_to / run / finish / report) stays on the Runtime
// itself, reachable through runtime().
//
// The handle is a non-owning view: it borrows the Runtime and adds only the
// round-robin cursors.  submit() runs on one dispatcher thread at a time
// (the cursors are plain integers); snapshot readers are free.
#pragma once

#include <vector>

#include "rt/runtime.hpp"

namespace psd::rt {

class RuntimeHandle {
 public:
  explicit RuntimeHandle(Runtime& rt)
      : rt_(&rt), rr_(rt.config().num_classes(), 0) {}

  /// Inject one request; false (a counted drop) when the target shard's
  /// ingress ring is full.  One dispatcher thread at a time.
  bool submit(const Request& req) {
    std::size_t& cursor = rr_[req.cls];
    const std::size_t shard = cursor;
    cursor = (cursor + 1) % rt_->num_shards();
    return rt_->shard(shard).submit(req);
  }

  /// Seqlock-consistent state of every shard (any thread).
  std::vector<ShardSnapshot> shard_snapshots() const {
    std::vector<ShardSnapshot> out;
    out.reserve(rt_->num_shards());
    for (std::size_t i = 0; i < rt_->num_shards(); ++i) {
      out.push_back(rt_->shard(i).snapshot());
    }
    return out;
  }

  std::uint64_t outstanding() const { return rt_->total_outstanding(); }
  std::size_t num_shards() const { return rt_->num_shards(); }
  Runtime& runtime() { return *rt_; }
  const Runtime& runtime() const { return *rt_; }

 private:
  Runtime* rt_;
  std::vector<std::size_t> rr_;  ///< Per-class shard cursor (submit spray).
};

}  // namespace psd::rt
