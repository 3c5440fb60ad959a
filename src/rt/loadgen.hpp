// Open-loop load sources for the serving runtime.
//
// A LoadSource produces every arrival with timestamp <= t when asked to
// step_until(t) — the threaded driver calls it with the advancing wall
// clock (sleeping toward next_time() between calls), the deterministic
// driver calls it with a ManualClock time.  Arrivals are pushed straight
// into shard MPSC rings; a full ring counts a drop and the source moves on
// (open loop: overload never throttles the arrival process).
//
//   * SyntheticLoadGen — per-class ArrivalVariant + SamplerVariant streams,
//     the same sealed value types the simulator's RequestGenerator uses.
//     When several generator threads carry one class, each runs the class's
//     Poisson process at rate/num_gens (superposition of independent
//     Poisson streams is Poisson at the summed rate).
//   * TraceLoadGen — replays a recorded arrival trace (workload/trace) at a
//     configurable time scale, so a trace captured from the simulator can
//     drive the rt stack bit-for-bit (same classes, same sizes, same
//     relative spacing).
//
// Requests are sprayed round-robin per class across the shard set, which
// keeps per-shard class mixes aligned with the global mix (the controller's
// equal-slice assumption).  Alternatively a source can be built with a Sink:
// arrivals then go to the sink callback instead of a shard set, which is how
// the cluster dispatcher interposes its assignment policy between the
// generators and the nodes without the sources knowing about clusters.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "rt/shard.hpp"
#include "workload/arrival.hpp"
#include "workload/trace.hpp"

namespace psd::rt {

class LoadSource {
 public:
  /// Arrival consumer for sink-mode sources (cluster dispatch).  Called on
  /// the generator's thread for every produced request.
  using Sink = std::function<void(const Request&)>;

  virtual ~LoadSource() = default;

  /// Produce (and route) every arrival with timestamp <= t.
  virtual void step_until(Time t) = 0;

  /// Timestamp of the next pending arrival; kInf when exhausted.
  virtual Time next_time() const = 0;

  std::uint64_t produced() const {
    return produced_.load(std::memory_order_relaxed);
  }

  /// Summed lateness: for every produced request, the step_until(t) time
  /// that emitted it minus its due time (its arrival stamp).  A threaded
  /// driver wakes late toward the next due time, and the stamp hides that
  /// from the shard's ingress wait, so this is the generator's share of it.
  /// Written by the source's thread; read it once that thread has stopped.
  double late_seconds() const { return late_seconds_; }

 protected:
  /// Drops are counted where they happen (Shard::submit), not here.  With a
  /// sink installed the shard spray is bypassed entirely (`shards` may be
  /// empty) and the sink owns routing.  `now` is the step_until time.
  void route(std::vector<Shard*>& shards, std::size_t& rr, const Request& req,
             Time now) {
    produced_.fetch_add(1, std::memory_order_relaxed);
    late_seconds_ += now - req.arrival;
    if (sink_) {
      sink_(req);
      return;
    }
    shards[rr]->submit(req);
    rr = (rr + 1) % shards.size();
  }

  void set_sink(Sink sink) { sink_ = std::move(sink); }

 private:
  std::atomic<std::uint64_t> produced_{0};
  double late_seconds_ = 0.0;
  Sink sink_;
};

/// Mean lateness per produced request over `sources` (sum of late_seconds
/// over sum of produced); NaN when none produced anything.
double mean_lateness(const std::vector<std::unique_ptr<LoadSource>>& sources);

class SyntheticLoadGen final : public LoadSource {
 public:
  struct ClassLoad {
    ClassId cls = 0;
    ArrivalVariant arrivals;
    SamplerVariant sizes;
  };

  /// `gen_id` namespaces request ids across generator threads.  Arrivals
  /// spray over `shards`; in sink mode (`sink` set — the cluster
  /// dispatcher) every arrival goes to the sink instead and `shards` may be
  /// empty.  Draw sequences are identical in both modes at the same seed —
  /// only delivery differs.
  SyntheticLoadGen(std::uint32_t gen_id, Rng rng,
                   std::vector<ClassLoad> classes, std::vector<Shard*> shards,
                   Sink sink, Time start);

  void step_until(Time t) override;
  Time next_time() const override;

 private:
  struct Stream {
    ClassId cls;
    ArrivalVariant arrivals;
    SamplerVariant sizes;
    Time next;
    std::size_t rr = 0;
  };

  Rng rng_;
  std::vector<Stream> streams_;
  std::vector<Shard*> shards_;
  std::uint64_t count_ = 0;
  std::uint64_t id_base_;
};

class TraceLoadGen final : public LoadSource {
 public:
  /// Entry times are multiplied by `time_scale` (a simulator trace recorded
  /// in raw model time replays at mean_service_seconds / E[X]); entries must
  /// be time-ordered with classes < num_classes.
  TraceLoadGen(Trace trace, double time_scale, std::size_t num_classes,
               std::vector<Shard*> shards);

  void step_until(Time t) override;
  Time next_time() const override;

  std::size_t size() const { return trace_.size(); }

 private:
  Trace trace_;
  double scale_;
  std::vector<Shard*> shards_;
  std::vector<std::size_t> rr_;  ///< Per-class round-robin cursor.
  std::size_t idx_ = 0;
  Time base_ = 0.0;  ///< First entry's recorded time (replay is relative).
};

}  // namespace psd::rt
