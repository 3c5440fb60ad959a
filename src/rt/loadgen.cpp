#include "rt/loadgen.hpp"

#include <algorithm>

namespace psd::rt {

SyntheticLoadGen::SyntheticLoadGen(std::uint32_t gen_id, Rng rng,
                                   std::vector<ClassLoad> classes,
                                   std::vector<Shard*> shards, Sink sink,
                                   Time start)
    : rng_(std::move(rng)),
      shards_(std::move(shards)),
      id_base_(static_cast<std::uint64_t>(gen_id) << 48) {
  PSD_REQUIRE(sink != nullptr || !shards_.empty(),
              "load generator needs a shard or a sink");
  PSD_REQUIRE(!classes.empty(), "load generator needs at least one class");
  set_sink(std::move(sink));
  streams_.reserve(classes.size());
  for (auto& cl : classes) {
    Stream s{cl.cls, std::move(cl.arrivals), std::move(cl.sizes), 0.0, 0};
    s.next = start + s.arrivals.next_interarrival(rng_);
    streams_.push_back(std::move(s));
  }
}

Time SyntheticLoadGen::next_time() const {
  Time best = kInf;
  for (const auto& s : streams_) best = std::min(best, s.next);
  return best;
}

void SyntheticLoadGen::step_until(Time t) {
  for (;;) {
    // Earliest pending stream; draws interleave across classes in global
    // arrival order, so a fixed seed yields one well-defined trace.
    Stream* earliest = nullptr;
    for (auto& s : streams_) {
      if (s.next <= t && (earliest == nullptr || s.next < earliest->next)) {
        earliest = &s;
      }
    }
    if (earliest == nullptr) return;
    Request req;
    req.id = id_base_ | ++count_;
    req.cls = earliest->cls;
    req.arrival = earliest->next;
    req.size = earliest->sizes.sample(rng_);
    route(shards_, earliest->rr, req);
    earliest->next += earliest->arrivals.next_interarrival(rng_);
  }
}

TraceLoadGen::TraceLoadGen(Trace trace, double time_scale,
                           std::size_t num_classes, std::vector<Shard*> shards)
    : trace_(std::move(trace)),
      scale_(time_scale),
      shards_(std::move(shards)),
      rr_(num_classes, 0) {
  PSD_REQUIRE(!shards_.empty(), "trace replay needs at least one shard");
  PSD_REQUIRE(time_scale > 0.0, "trace time scale must be positive");
  Time prev = -kInf;
  for (const auto& e : trace_) {
    PSD_REQUIRE(e.time >= prev, "trace must be time-ordered");
    PSD_REQUIRE(e.cls < num_classes, "trace class out of range");
    PSD_REQUIRE(e.size > 0.0, "trace sizes must be positive");
    prev = e.time;
  }
  // Replay relative to the trace start (a simulator trace recorded after a
  // warmup period should not stall the runtime for the warmup's length).
  base_ = trace_.empty() ? 0.0 : trace_.front().time;
}

Time TraceLoadGen::next_time() const {
  return idx_ < trace_.size() ? (trace_[idx_].time - base_) * scale_ : kInf;
}

void TraceLoadGen::step_until(Time t) {
  while (idx_ < trace_.size() && (trace_[idx_].time - base_) * scale_ <= t) {
    const TraceEntry& e = trace_[idx_];
    Request req;
    req.id = static_cast<RequestId>(idx_);
    req.cls = e.cls;
    req.arrival = (e.time - base_) * scale_;
    req.size = e.size;
    route(shards_, rr_[e.cls], req);
    ++idx_;
  }
}

}  // namespace psd::rt
