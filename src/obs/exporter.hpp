// Streaming stats exporter: the read side of the obs layer.
//
// A StatsExporter borrows the runtime's shards, controller, and load
// sources and, on each sample(now), scrapes their seqlock snapshots +
// telemetry + the controller decision trace into one self-describing JSONL
// line (schema "psd.rt.stats.v1" — field reference in src/obs/README.md).
// Scraping never blocks the scraped components: every read is a seqlock
// copy or a relaxed counter load, except the decision trace (a mutex the
// controller holds for microseconds per tick).
//
// Determinism contract: under a ManualClock the runtime drives sample() on
// a fixed interval grid from step_to(), every timestamp comes from the
// manual clock, and the (wall-clock) self-profiling block is omitted — so a
// fixed seed + step sequence yields bit-identical JSONL across repeats
// (doubles render via json_number's "%.17g").  Threaded runs drive
// sample() from a dedicated exporter thread instead, and may additionally
// serve Prometheus text exposition (format 0.0.4) from a minimal blocking
// HTTP listener: GET /metrics renders a fresh scrape on demand.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/config.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "rt/controller.hpp"
#include "rt/loadgen.hpp"
#include "rt/shard.hpp"

namespace psd::obs {

/// The controller decision-trace entries as one JSON array — the rendering
/// the stats stream ("controller.trace") and the flight bundle
/// ("controller_trace") share.
std::string decision_trace_json(
    const std::vector<rt::ControllerTraceEntry>& entries);

class StatsExporter {
 public:
  /// All pointers are borrowed and must outlive the exporter.
  /// `deterministic` marks a ManualClock drive: the self-profiling block
  /// (wall-clock timings) is then excluded from the stream.
  StatsExporter(ObsConfig cfg, std::vector<rt::Shard*> shards,
                rt::Controller* controller,
                std::vector<rt::LoadSource*> gens, bool deterministic);

  StatsExporter(const StatsExporter&) = delete;
  StatsExporter& operator=(const StatsExporter&) = delete;

  ~StatsExporter();

  /// True when a JSONL destination is configured (sample() writes a line).
  bool streaming() const { return out_.is_open(); }

  /// True when sample() does anything at all — streaming JSONL, draining
  /// span rings into the trace sink, or feeding the SLO watchdog.  The
  /// deterministic driver gates its interval grid on this.
  bool sampling_active() const {
    return streaming() || trace_writer_ != nullptr || watchdog_ != nullptr;
  }

  /// Attach the SLO watchdog (setup time, before sampling starts); the
  /// exporter feeds it drained spans and evaluates it once per sample.
  void attach_watchdog(Watchdog* watchdog) { watchdog_ = watchdog; }
  Watchdog* watchdog() const { return watchdog_; }

  /// Scrape everything and append one JSONL line stamped `now`.  One caller
  /// at a time (the deterministic driver or the exporter thread).
  void sample(double now);

  /// Final drain at shutdown (after shard finalize): pulls the span rings
  /// dry, evaluates the watchdog once more, and closes the trace file so
  /// its footer is written even when the run ends mid-interval.
  void final_flush(double now);

  /// Trace events written so far (0 without a trace sink).
  std::uint64_t trace_events() const {
    return trace_writer_ != nullptr ? trace_writer_->events() : 0;
  }

  /// Render a full Prometheus text exposition scrape (any thread).
  std::string prometheus_text() const;

  /// Start/stop the blocking HTTP listener on cfg.metrics_port (threaded
  /// runs only; throws on bind failure).  stop_http() is idempotent and
  /// also runs from the destructor.
  void start_http();
  void stop_http();

  std::uint64_t samples() const { return samples_; }
  const ObsConfig& config() const { return cfg_; }

 private:
  std::string render_line(double now);
  void pump_trace(double now);
  void http_loop();

  ObsConfig cfg_;
  std::vector<rt::Shard*> shards_;
  rt::Controller* controller_;
  std::vector<rt::LoadSource*> gens_;
  bool deterministic_;

  std::ofstream out_;
  std::uint64_t samples_ = 0;
  std::uint64_t trace_cursor_ = 0;
  ProfTable prof_;  ///< Self-timing of sample() itself (kProfExportSample).

  // Request-trace sink: spans drained from every shard ring each sample,
  // written as Chrome trace events; controller reallocations ride along as
  // instant events via their own trace cursor.
  std::unique_ptr<TraceWriter> trace_writer_;
  std::uint64_t realloc_cursor_ = 0;
  std::vector<Span> span_buf_;
  Watchdog* watchdog_ = nullptr;  ///< Borrowed; evaluated once per sample.

  int listen_fd_ = -1;
  std::thread http_thread_;
  std::atomic<bool> http_stop_{false};
};

}  // namespace psd::obs
