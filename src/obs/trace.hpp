// Request-lifecycle span tracing (schema "psd.rt.trace.v1").
//
// A Span is the causal record of one sampled request: producer ingress,
// ring-pop admission verdict, submission to the embedded server, service
// start, and completion — each on the shared time axis — plus the
// controller tick whose allocation governed it.  Spans are recorded by the
// shard thread into a per-shard lock-free SPSC ring (SpanRing) and drained
// by the exporter thread into a Chrome trace-event JSON file (TraceWriter)
// that loads directly in chrome://tracing or Perfetto, with controller
// reallocations as instant events on a dedicated track.
//
// Sampling reuses the telemetry idiom (obs/config.hpp): 1-in-N per class by
// the ordinal counters the hot path already increments, N a power of two,
// so tracing-off costs one AND+branch per hook and the traced subset is a
// deterministic function of the event sequence — a ManualClock run writes
// byte-identical trace files across repeats.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace psd::obs {

/// Verdict byte carried by every span.  Shed codes mirror how the admission
/// policy sheds (admission/admission.hpp AdmitVerdict — value-aligned,
/// static_asserted at the shard hook): a latched class mask, within-class
/// thinning, or an empty token bucket.
enum SpanVerdict : std::uint8_t {
  kSpanAdmitted = 0,
  kSpanShedMask = 1,
  kSpanShedThinned = 2,
  kSpanShedBucket = 3,
};

const char* span_verdict_name(std::uint8_t v);

/// One sampled request lifecycle.  Trivially copyable: it crosses threads
/// by value through the SPSC ring.  Sheds carry only the ingress/verdict
/// timestamps; the service-side fields stay at their -1/NaN defaults.
struct Span {
  std::uint64_t trace_id = 0;  ///< shard/class/ordinal-derived, run-unique.
  std::uint64_t tick_seq = 0;  ///< Controller tick whose rates governed it.
  double t_ingress = 0.0;      ///< Producer arrival stamp.
  double t_admit = 0.0;        ///< Ring pop + admission verdict.
  /// Submission to the server: the ring pop itself, so == t_admit on
  /// admitted spans (kept for readers of the span schema).
  double t_pop = -1.0;
  double t_start = -1.0;       ///< First service.
  double t_complete = -1.0;    ///< Completion.
  double size = 0.0;           ///< Work units.
  double slowdown = kNaN;      ///< delay / service time; NaN for sheds.
  std::uint32_t cls = 0;
  std::uint32_t shard = 0;
  std::uint8_t verdict = kSpanAdmitted;
};

/// Single-producer single-consumer span ring: the shard thread pushes, the
/// exporter thread drains.  Bounded; a full ring drops the newest span and
/// counts it (tracing must never block or grow the hot path).
class SpanRing {
 public:
  /// Capacity is rounded up to a power of two.
  explicit SpanRing(std::size_t capacity);

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  /// Producer only.  False (and a drop count) when full.
  bool push(const Span& s);

  /// Consumer only: append everything available to `out`; returns count.
  std::size_t drain(std::vector<Span>& out);

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<Span> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< Consumer cursor.
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< Producer cursor.
  alignas(64) std::atomic<std::uint64_t> dropped_{0};
};

/// Streaming Chrome trace-event writer.  Emits the JSON object form
/// ({"traceEvents":[...]}) so the file carries its schema tag and loads in
/// chrome://tracing and Perfetto.  Track layout: pid 0 = the controller
/// (reallocations as instant events), pid s+1 = shard s, tid c+1 = class c;
/// process/thread metadata names are emitted lazily on first use, which
/// keeps the output deterministic for a deterministic event sequence.
/// Timestamps are microseconds (seconds * 1e6), rendered with the same
/// "%.17g" rule as every other deterministic artifact.
class TraceWriter {
 public:
  /// Opens `path` (truncating) and writes the header; throws with the path
  /// in the message when the file cannot be created — tracing must fail at
  /// startup, not produce a silent empty artifact.
  explicit TraceWriter(const std::string& path);

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  ~TraceWriter();

  /// One request span ("X" complete event; sheds render as name "shed").
  void write_span(const Span& s);

  /// One controller reallocation ("i" instant event on the pid-0 track).
  void write_realloc(double t, std::uint64_t tick, bool fresh_window,
                     const double* rate, std::size_t num_classes);

  /// Write the footer and close; idempotent (the destructor calls it too).
  void close();

  std::uint64_t events() const { return events_; }

 private:
  void emit(const std::string& rendered);
  void ensure_track(std::uint32_t pid, std::uint32_t tid);

  std::ofstream out_;
  std::string path_;
  bool closed_ = false;
  bool first_ = true;
  std::uint64_t events_ = 0;
  std::vector<std::uint64_t> tracks_;  ///< (pid<<32)|tid already named.
};

}  // namespace psd::obs
