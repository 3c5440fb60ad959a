// Open-loop load sources for the serving runtime.
//
// A LoadSource produces every arrival with timestamp <= t when asked to
// step_until(t) — the threaded driver (run_source) calls it with the
// advancing wall clock, sleeping toward next_time() between calls; the
// deterministic driver calls it with a ManualClock time.  Every arrival
// goes to the source's Sink.  The Sink decides where it lands; a full
// shard ring counts a drop there and the source moves on (open loop:
// overload never throttles the arrival process).
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
// A Runtime gives each of its sources its own RuntimeHandle as the sink
// (rt/handle.hpp: a per-class round-robin over the node's shards, which
// keeps per-shard class mixes aligned with the global mix); the cluster
// gives its sources the dispatcher, which interposes its assignment policy
// between the generators and the nodes without the sources knowing about
// clusters.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dist/sampler.hpp"
#include "rt/clock.hpp"
#include "workload/arrival.hpp"
#include "workload/trace.hpp"

namespace psd::rt {

class LoadSource {
 public:
  /// Arrival consumer, called on the generator's thread for every produced
  /// request.
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
  explicit LoadSource(Sink sink);

  /// Hand `req` to the sink.  Drops are counted where they happen
  /// (Shard::submit), not here.  `now` is the step_until time.
  void route(const Request& req, Time now) {
    produced_.fetch_add(1, std::memory_order_relaxed);
    late_seconds_ += now - req.arrival;
    sink_(req);
  }

 private:
  std::atomic<std::uint64_t> produced_{0};
  double late_seconds_ = 0.0;
  Sink sink_;
};

/// Mean lateness per produced request over `sources` (sum of late_seconds
/// over sum of produced); NaN when none produced anything.
double mean_lateness(const std::vector<std::unique_ptr<LoadSource>>& sources);

/// A generator thread's whole life: emit everything due by the clock, then
/// sleep toward the next due time (at most 1 ms, so a stop is seen within
/// a millisecond), until `stop`.
void run_source(LoadSource& source, const ClockVariant& clock,
                const std::atomic<bool>& stop);

class SyntheticLoadGen final : public LoadSource {
 public:
  struct ClassLoad {
    ClassId cls = 0;
    ArrivalVariant arrivals;
    SamplerVariant sizes;
  };

  /// `gen_id` namespaces request ids across generator threads.  The draw
  /// sequence depends on the seed alone, never on the sink.
  SyntheticLoadGen(std::uint32_t gen_id, Rng rng,
                   std::vector<ClassLoad> classes, Sink sink, Time start);

  void step_until(Time t) override;
  Time next_time() const override;

 private:
  struct Stream {
    ClassId cls;
    ArrivalVariant arrivals;
    SamplerVariant sizes;
    Time next;
  };

  Rng rng_;
  std::vector<Stream> streams_;
  std::uint64_t count_ = 0;
  std::uint64_t id_base_;
};

class TraceLoadGen final : public LoadSource {
 public:
  /// Entry times are multiplied by `time_scale` (a simulator trace recorded
  /// in raw model time replays at mean_service_seconds / E[X]); entries must
  /// be time-ordered with classes < num_classes.
  TraceLoadGen(Trace trace, double time_scale, std::size_t num_classes,
               Sink sink);

  void step_until(Time t) override;
  Time next_time() const override;

  std::size_t size() const { return trace_.size(); }

 private:
  Trace trace_;
  double scale_;
  std::size_t idx_ = 0;
  Time base_ = 0.0;  ///< First entry's recorded time (replay is relative).
};

}  // namespace psd::rt
