#include "rt/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace psd::rt {

LoadSource::LoadSource(Sink sink) : sink_(std::move(sink)) {
  PSD_REQUIRE(sink_ != nullptr, "load source needs a sink");
}

double mean_lateness(
    const std::vector<std::unique_ptr<LoadSource>>& sources) {
  double late = 0.0;
  std::uint64_t produced = 0;
  for (const auto& s : sources) {
    late += s->late_seconds();
    produced += s->produced();
  }
  return produced > 0 ? late / static_cast<double>(produced) : kNaN;
}

void run_source(LoadSource& source, const ClockVariant& clock,
                const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    source.step_until(clock.now());
    const double dt = source.next_time() - clock.now();
    if (dt > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::min(dt, 1e-3)));
    }
  }
}

SyntheticLoadGen::SyntheticLoadGen(std::uint32_t gen_id, Rng rng,
                                   std::vector<ClassLoad> classes, Sink sink,
                                   Time start)
    : LoadSource(std::move(sink)),
      rng_(std::move(rng)),
      id_base_(static_cast<std::uint64_t>(gen_id) << 48) {
  PSD_REQUIRE(!classes.empty(), "load generator needs at least one class");
  streams_.reserve(classes.size());
  for (auto& cl : classes) {
    Stream s{cl.cls, std::move(cl.arrivals), std::move(cl.sizes), 0.0};
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
    route(req, t);
    earliest->next += earliest->arrivals.next_interarrival(rng_);
  }
}

TraceLoadGen::TraceLoadGen(Trace trace, double time_scale,
                           std::size_t num_classes, Sink sink)
    : LoadSource(std::move(sink)),
      trace_(std::move(trace)),
      scale_(time_scale) {
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
    route(req, t);
    ++idx_;
  }
}

}  // namespace psd::rt
