// Measurement window over a running rt runtime (single node or cluster).
//
// An observer thread reads the runtime's own counters at the end of warmup,
// once a second after it, and just before load stops: process CPU,
// completions, drains and pops from the seqlock snapshots, the obs/prof.hpp
// slot totals of every shard and node controller, and the telemetry
// histograms.  Everything the benchmark reports about an rt workload is a
// difference between two readings, so warmup and the shutdown drain stay
// out of the figures.
#pragma once

#include <optional>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/prof.hpp"
#include "rt/controller.hpp"
#include "rt/runtime.hpp"
#include "rt/shard.hpp"

namespace psdbench {

struct RtReading {
  double t = 0.0;             ///< Runtime clock, seconds.
  double cpu_process = 0.0;   ///< Whole process, seconds.
  double cpu_excluded = 0.0;  ///< Benchmark-owned threads, seconds.
  std::uint64_t completed = 0;  ///< Completions incl. warmup, all shards.
  std::uint64_t popped = 0;     ///< Ring pops (admitted + shed).
  std::uint64_t dropped = 0;    ///< Ring-full rejections.
  std::uint64_t drains = 0;
  psd::obs::ProfSnap prof;      ///< Shards + controllers, summed.
  std::vector<psd::rt::ShardTelemetry> telemetry;  ///< Per shard.
};

/// The runtime components a reading covers (borrowed).
struct RtTap {
  std::vector<psd::rt::Shard*> shards;
  std::vector<psd::rt::Controller*> controllers;

  RtReading read(double now, double cpu_excluded) const;
};

/// Sleep (never spin) until `clock` reads at least `t`.
void sleep_until(psd::rt::ClockVariant& clock, double t);

/// Reads `tap` from its own sleeping thread at clock time t_a, every
/// `step` seconds after it, and at t_b.  The observer's CPU, and that of
/// `also_exclude` (the benchmark's generator), is subtracted from the
/// process CPU.
class RtObserver {
 public:
  RtObserver(const RtTap& tap, psd::rt::ClockVariant& clock, double t_a,
             double t_b, double step, std::optional<pthread_t> also_exclude);
  RtObserver(const RtObserver&) = delete;
  RtObserver& operator=(const RtObserver&) = delete;
  ~RtObserver();

  /// Wait for the last reading; returns all of them in time order.  An
  /// excluded thread must stay alive until then: a finished thread's CPU
  /// clock cannot be read.
  std::vector<RtReading> join();

 private:
  std::vector<RtReading> readings_;
  std::thread thread_;
};

/// The ingress-wait histograms of every shard and class, merged, as the
/// difference from reading `a` to the later reading `b`.
psd::obs::Log2Hist ingress_wait_delta(const RtReading& a, const RtReading& b);

/// Throughput and cost between two readings.
struct RtWindowFigures {
  double seconds = 0.0;
  std::uint64_t completed = 0;
  double goodput_rps = 0.0;
  double cpu_ns_per_req = 0.0;
};
RtWindowFigures window_figures(const RtReading& a, const RtReading& b);

/// End-to-end figures of a run: the median over its consecutive reading
/// windows, so a short disturbance (a descheduled shard, a noisy
/// neighbour) moves one window instead of the run's figure.
struct RtRunFigures {
  double goodput_rps = 0.0;
  double cpu_ns_per_req = 0.0;
  double ingress_p50_us = 0.0;
};
RtRunFigures run_figures(const std::vector<RtReading>& readings);

/// The per-request ns ledger of a traced window: prof-slot stage costs plus
/// the unattributed remainder, which together add up to cpu_ns_per_req.
/// `dispatch_ns_total` is time spent routing outside the shards (cluster
/// dispatcher), 0 for a single node.  Sets the rt.* cost metrics and notes
/// the ledger table.
void set_rt_ledger(Result& r, const RtReading& a, const RtReading& b,
                   double dispatch_ns_total);

}  // namespace psdbench
