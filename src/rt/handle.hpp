// RuntimeHandle: the narrow interface an external driver feeds a Runtime
// through.
//
// A Runtime built with EmbeddedTag has shards, a controller and reports but
// no load sources of its own.  Whoever drives it — the cluster dispatcher
// treating it as one node of many, the benchmark's own open-loop generator,
// deterministic tests injecting hand-built arrivals — needs only:
//
//   submit()            — inject one request (per-class round-robin over the
//                         shards, so per-shard class mixes stay aligned
//                         with the global mix; a Runtime's own load
//                         sources deliver through a handle each),
//   shard_snapshots()   — read the seqlock-published per-shard state,
//   outstanding()       — accepted requests not yet completed.
//
// The lifecycle (step_to / run / finish / report) stays on the Runtime
// itself, reachable through runtime().
//
// Owed wakes: a push that lands in a parked shard without ending the park
// (its due stamp falls inside the park's wake window, rt/shard.hpp) leaves
// the handle owing that park its wake.  The handle's next submit whose due
// stamp reaches the park's wake time ends the park, whichever shard that
// submit goes to; the record names the park, so a later park of the same
// shard is never cut short.  A coalesced push therefore waits until the
// first of: a later push to its shard, by any producer, due past the wake
// time; a later push by this handle, to any shard, due past it; the
// controller's pass just before its next tick.
//
// The handle is a non-owning view: it borrows the Runtime and adds only the
// round-robin cursors and the owed wakes.  submit() runs on one thread at
// a time per handle (the cursors are plain integers); snapshot readers are
// free.
#pragma once

#include <algorithm>
#include <vector>

#include "rt/runtime.hpp"

namespace psd::rt {

class RuntimeHandle {
 public:
  explicit RuntimeHandle(Runtime& rt)
      : rt_(&rt),
        rr_(rt.config().num_classes(), 0),
        owed_(rt.num_shards()) {}

  /// Inject one request; false (a counted drop) when the target shard's
  /// ingress ring is full.  One dispatcher thread at a time.
  bool submit(const Request& req) {
    if (req.arrival >= owed_at_) settle(req.arrival);
    std::size_t& cursor = rr_[req.cls];
    const std::size_t shard = cursor;
    cursor = (cursor + 1) % rt_->num_shards();
    Shard::CoalescedPark& owed = owed_[shard];
    const bool ok = rt_->shard(shard).submit(req, &owed);
    owed_at_ = std::min(owed_at_, owed.wake_at);
    return ok;
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
  /// End every owed park whose wake time `due` reaches; keep the rest.
  void settle(Time due) {
    owed_at_ = kInf;
    for (std::size_t i = 0; i < owed_.size(); ++i) {
      Shard::CoalescedPark& owed = owed_[i];
      if (owed.wake_at <= due) {
        rt_->shard(i).end_park(owed.park);
        owed = {};
      } else {
        owed_at_ = std::min(owed_at_, owed.wake_at);
      }
    }
  }

  Runtime* rt_;
  std::vector<std::size_t> rr_;  ///< Per-class shard cursor (submit spray).
  /// Per shard: the park this handle owes a wake (park 0 = none).  A
  /// record a newer report replaced named a park that has already ended.
  std::vector<Shard::CoalescedPark> owed_;
  Time owed_at_ = kInf;  ///< No later than the earliest owed wake time.
};

}  // namespace psd::rt
