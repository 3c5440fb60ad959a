#include "obs/exporter.hpp"

#include <cerrno>
#include <cstring>
#include <functional>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/format.hpp"
#include "sweep/jsonl.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PSD_OBS_HAVE_SOCKETS 1
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace psd::obs {

namespace {

/// Compact per-class summary of one Log2Hist; full buckets go to the
/// Prometheus endpoint, the JSONL stream carries the queryable digest.
std::string hist_json(const Log2Hist& h) {
  JsonObject o;
  o.field("count", h.count)
      .field("underflow", h.underflow)
      .field("overflow", h.overflow)
      .field("sum", h.sum)
      .field("mean", h.mean())
      .field("p50", h.quantile(0.50))
      .field("p95", h.quantile(0.95))
      .field("p99", h.quantile(0.99));
  return o.str();
}

std::string hist_array(const Log2Hist* h, std::size_t n) {
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    out += hist_json(h[i]);
  }
  out += ']';
  return out;
}

}  // namespace

std::string decision_trace_json(
    const std::vector<rt::ControllerTraceEntry>& entries) {
  std::string out = "[";
  for (const rt::ControllerTraceEntry& e : entries) {
    const std::size_t n = e.num_classes;
    JsonObject te;
    te.field("t", e.time)
        .field("tick", e.tick)
        .field_bool("realloc", e.reallocated)
        .field_bool("fresh_window", e.fresh_window)
        .raw("lambda", json_array(e.lambda, n))
        .raw("window_slowdown", json_array(e.window_slowdown, n))
        .raw("rate_in", json_array(e.rate_in, n))
        .raw("rate_out", json_array(e.rate_out, n));
    if (out.size() > 1) out += ',';
    out += te.str();
  }
  out += ']';
  return out;
}

StatsExporter::StatsExporter(ObsConfig cfg, std::vector<rt::Shard*> shards,
                             rt::Controller* controller,
                             std::vector<rt::LoadSource*> gens,
                             bool deterministic)
    : cfg_(std::move(cfg)),
      shards_(std::move(shards)),
      controller_(controller),
      gens_(std::move(gens)),
      deterministic_(deterministic) {
  PSD_REQUIRE(!shards_.empty() && controller_ != nullptr,
              "exporter needs shards and a controller");
  PSD_REQUIRE(cfg_.stats_interval > 0.0, "stats interval must be positive");
  if (!cfg_.stats_path.empty()) {
    out_.open(cfg_.stats_path, std::ios::trunc);
    PSD_REQUIRE(out_.is_open(), "cannot open stats output file '" +
                                    cfg_.stats_path + "'");
  }
  if (!cfg_.trace_path.empty()) {
    trace_writer_ = std::make_unique<TraceWriter>(cfg_.trace_path);
  }
  prof_.set_enabled(cfg_.profile);
}

StatsExporter::~StatsExporter() { stop_http(); }

std::string StatsExporter::render_line(double now) {
  const std::size_t n = shards_[0]->config().num_classes;

  std::uint64_t produced = 0;
  for (const auto* g : gens_) produced += g->produced();

  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  std::string shards_json = "[";
  ProfSnap prof_all;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const rt::ShardSnapshot s = shards_[i]->snapshot();
    const rt::ShardTelemetry t = shards_[i]->telemetry();
    dropped += s.drops;
    for (std::size_t c = 0; c < n; ++c) shed += s.sheds_cls[c];
    prof_all.merge(t.prof);

    JsonObject sh;
    sh.field("shard", static_cast<std::uint64_t>(i))
        .field("t", s.time)
        .field("drains", s.drains)
        .field("windows", s.windows_closed)
        .raw("drops", json_array(s.drops_cls, n))
        // Additive split of the rejection taxonomy: "drops" above stays the
        // ring-full count it always was; "drops_shed" is the admission
        // gate's per-class policy sheds (all-zero without a gate).
        .raw("drops_shed", json_array(s.sheds_cls, n))
        .raw("accepted", json_array(s.accepted, n))
        .raw("completed", json_array(s.completed, n))
        .raw("outstanding", json_array(s.outstanding, n))
        .raw("lambda_hat", json_array(s.lambda_hat, n))
        .raw("rate", json_array(s.rate, n))
        .raw("mean_slowdown", json_array(s.mean_slowdown, n))
        .raw("window_slowdown", json_array(s.window_slowdown, n))
        .raw("mean_ingress_wait", json_array(s.mean_ingress_wait, n));

    // Telemetry block: counters copied INTO the telemetry snapshot, so
    // hist counts and these counts are coherent with each other (the
    // consistency the CI schema check asserts), even though the block may
    // lag the per-drain snapshot above by up to one estimator window.
    // Histograms hold a deterministic 1-in-sample_period subsample per
    // class; the counters are exact.
    JsonObject tel;
    tel.field("t", t.time)
        .field("sample_period", static_cast<std::uint64_t>(t.sample_period))
        .raw("accepted", json_array(t.accepted, n))
        .raw("completions", json_array(t.completions, n))
        .raw("ingress_wait", hist_array(t.ingress_wait, n))
        .raw("queue_delay", hist_array(t.queue_delay, n))
        .raw("slowdown", hist_array(t.slowdown, n));
    sh.raw("telem", tel.str());

    if (i > 0) shards_json += ',';
    shards_json += sh.str();
  }
  shards_json += ']';

  const rt::ControllerSnapshot cs = controller_->snapshot();
  JsonObject ctl;
  ctl.field("t", cs.time)
      .field("ticks", cs.ticks)
      .field("allocations", cs.allocations)
      .raw("lambda", json_array(cs.lambda, n))
      .raw("rate", json_array(cs.rate, n))
      .raw("window_slowdown", json_array(cs.window_slowdown, n))
      .raw("trace",
           decision_trace_json(controller_->trace_since(&trace_cursor_)));

  JsonObject line;
  line.field("schema", "psd.rt.stats.v1")
      .field("sample", samples_)
      .field("t", now)
      .field("classes", static_cast<std::uint64_t>(n))
      .field("produced", produced)
      .field("dropped", dropped)
      .field("shed", shed)
      .raw("shards", shards_json)
      .raw("controller", ctl.str());

  // Self-profiling timings are wall-clock and hence nondeterministic;
  // a ManualClock stream must stay bit-identical across repeats, so the
  // block only appears on threaded runs.
  if (cfg_.profile && !deterministic_) {
    prof_all.merge(controller_->prof().snap());
    prof_all.merge(prof_.snap());
    std::string prof_json = "{";
    bool first = true;
    for (unsigned s = 0; s < kProfSlotCount; ++s) {
      const auto slot = static_cast<ProfSlot>(s);
      JsonObject p;
      p.field("count", prof_all.count[s])
          .field("seconds", prof_all.seconds(slot));
      if (!first) prof_json += ',';
      first = false;
      prof_json += json_string(prof_slot_name(slot)) + ":" + p.str();
    }
    prof_json += '}';
    line.raw("prof", prof_json);
  }
  return line.str();
}

void StatsExporter::pump_trace(double now) {
  if (trace_writer_ == nullptr && watchdog_ == nullptr) return;
  // One drain serves both sinks: spans flow to the Chrome trace file AND
  // into the watchdog's flight-recorder retention, in shard order so the
  // output is a deterministic function of the per-shard event sequences.
  span_buf_.clear();
  for (rt::Shard* shard : shards_) shard->drain_spans(span_buf_);
  if (trace_writer_ != nullptr) {
    for (const Span& s : span_buf_) trace_writer_->write_span(s);
    // Controller reallocations as instant events, via a cursor separate
    // from the JSONL stream's (either sink may run without the other).
    for (const auto& e : controller_->trace_since(&realloc_cursor_)) {
      if (!e.reallocated) continue;
      trace_writer_->write_realloc(e.time, e.tick, e.fresh_window, e.rate_out,
                                   e.num_classes);
    }
  }
  if (watchdog_ != nullptr) {
    watchdog_->observe_spans(span_buf_);
    watchdog_->evaluate(now);
  }
}

void StatsExporter::sample(double now) {
  ScopedProfTimer prof_sample(&prof_, kProfExportSample);
  ++samples_;
  pump_trace(now);
  if (!out_.is_open()) return;
  out_ << render_line(now) << '\n';
  out_.flush();
}

void StatsExporter::final_flush(double now) {
  pump_trace(now);
  if (trace_writer_ != nullptr) trace_writer_->close();
}

std::string StatsExporter::prometheus_text() const {
  // Doubles render as "%.17g" like the JSONL side (format_g17), but
  // non-finite values stay literal: the text format parses NaN/Inf, while
  // JSON cannot carry them.
  const std::size_t n = shards_[0]->config().num_classes;
  std::ostringstream os;

  std::uint64_t produced = 0;
  for (const auto* g : gens_) produced += g->produced();
  os << "# TYPE psd_rt_produced_total counter\n"
     << "psd_rt_produced_total " << produced << "\n";

  auto labels = [](std::size_t shard, std::size_t cls) {
    return "{shard=\"" + std::to_string(shard) + "\",cls=\"" +
           std::to_string(cls) + "\"}";
  };
  auto emit_hist = [&](const char* name, std::size_t shard, std::size_t cls,
                       const Log2Hist& h) {
    // The underflow mass (x <= lowest bound) belongs in every cumulative
    // bucket; the overflow mass only in +Inf.
    std::uint64_t cum = h.underflow;
    for (int b = 0; b < Log2Hist::kBuckets; ++b) {
      cum += h.bucket[b];
      os << name << "_bucket{shard=\"" << shard << "\",cls=\"" << cls
         << "\",le=\"" << format_g17(Log2Hist::bucket_upper(b)) << "\"} "
         << cum << "\n";
    }
    os << name << "_bucket{shard=\"" << shard << "\",cls=\"" << cls
       << "\",le=\"+Inf\"} " << h.count << "\n"
       << name << "_sum" << labels(shard, cls) << " " << format_g17(h.sum)
       << "\n"
       << name << "_count" << labels(shard, cls) << " " << h.count << "\n";
  };

  // Snapshot every shard once so all families render one coherent view,
  // then emit family by family: the exposition format requires all lines
  // of a metric to form a single group under its TYPE header.
  std::vector<rt::ShardSnapshot> snaps;
  std::vector<rt::ShardTelemetry> telem;
  snaps.reserve(shards_.size());
  telem.reserve(shards_.size());
  for (const auto* s : shards_) {
    snaps.push_back(s->snapshot());
    telem.push_back(s->telemetry());
  }

  os << "# TYPE psd_rt_shard_drains_total counter\n";
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    os << "psd_rt_shard_drains_total{shard=\"" << i << "\"} "
       << snaps[i].drains << "\n";
  }

  auto family = [&](const char* name, const char* type,
                    const std::function<std::string(
                        const rt::ShardSnapshot&, std::size_t)>& field) {
    os << "# TYPE " << name << " " << type << "\n";
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      for (std::size_t c = 0; c < n; ++c) {
        os << name << labels(i, c) << " " << field(snaps[i], c) << "\n";
      }
    }
  };
  auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  family("psd_rt_dropped_total", "counter",
         [&](const rt::ShardSnapshot& s, std::size_t c) {
           return u64(s.drops_cls[c]);
         });
  family("psd_rt_shed_total", "counter",
         [&](const rt::ShardSnapshot& s, std::size_t c) {
           return u64(s.sheds_cls[c]);
         });
  family("psd_rt_accepted_total", "counter",
         [&](const rt::ShardSnapshot& s, std::size_t c) {
           return u64(s.accepted[c]);
         });
  family("psd_rt_completed_total", "counter",
         [&](const rt::ShardSnapshot& s, std::size_t c) {
           return u64(s.completed[c]);
         });
  family("psd_rt_outstanding", "gauge",
         [&](const rt::ShardSnapshot& s, std::size_t c) {
           return u64(s.outstanding[c]);
         });
  family("psd_rt_lambda_hat", "gauge",
         [](const rt::ShardSnapshot& s, std::size_t c) {
           return format_g17(s.lambda_hat[c]);
         });
  family("psd_rt_rate", "gauge",
         [](const rt::ShardSnapshot& s, std::size_t c) {
           return format_g17(s.rate[c]);
         });

  auto hist_family = [&](const char* name,
                         const std::function<const Log2Hist&(
                             const rt::ShardTelemetry&, std::size_t)>& pick) {
    os << "# TYPE " << name << " histogram\n";
    for (std::size_t i = 0; i < telem.size(); ++i) {
      for (std::size_t c = 0; c < n; ++c) {
        emit_hist(name, i, c, pick(telem[i], c));
      }
    }
  };
  hist_family("psd_rt_ingress_wait_seconds",
              [](const rt::ShardTelemetry& t, std::size_t c) -> const
              Log2Hist& { return t.ingress_wait[c]; });
  hist_family("psd_rt_queue_delay_seconds",
              [](const rt::ShardTelemetry& t, std::size_t c) -> const
              Log2Hist& { return t.queue_delay[c]; });
  hist_family("psd_rt_slowdown",
              [](const rt::ShardTelemetry& t, std::size_t c) -> const
              Log2Hist& { return t.slowdown[c]; });

  const rt::ControllerSnapshot cs = controller_->snapshot();
  os << "# TYPE psd_rt_controller_ticks_total counter\n"
     << "psd_rt_controller_ticks_total " << cs.ticks << "\n"
     << "# TYPE psd_rt_controller_allocations_total counter\n"
     << "psd_rt_controller_allocations_total " << cs.allocations << "\n";
  os << "# TYPE psd_rt_controller_rate gauge\n";
  for (std::size_t c = 0; c < n; ++c) {
    os << "psd_rt_controller_rate{cls=\"" << c << "\"} "
       << format_g17(cs.rate[c]) << "\n";
  }
  os << "# TYPE psd_rt_controller_lambda gauge\n";
  for (std::size_t c = 0; c < n; ++c) {
    os << "psd_rt_controller_lambda{cls=\"" << c << "\"} "
       << format_g17(cs.lambda[c]) << "\n";
  }
  return os.str();
}

#ifdef PSD_OBS_HAVE_SOCKETS

void StatsExporter::start_http() {
  if (cfg_.metrics_port <= 0 || listen_fd_ >= 0) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PSD_REQUIRE(fd >= 0, "metrics endpoint: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.metrics_port));
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::listen(fd, 8) == 0;
  if (!ok) {
    const int err = errno;
    ::close(fd);
    PSD_REQUIRE(false, "metrics endpoint: cannot bind/listen on port " +
                           std::to_string(cfg_.metrics_port) + " (" +
                           std::strerror(err) + ")");
  }
  listen_fd_ = fd;
  http_stop_.store(false, std::memory_order_release);
  http_thread_ = std::thread([this] { http_loop(); });
}

void StatsExporter::http_loop() {
  while (!http_stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 100);
    if (r <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    char req[1024];
    const auto got = ::read(conn, req, sizeof req - 1);
    std::string head(req, got > 0 ? static_cast<std::size_t>(got) : 0);
    std::string response;
    if (head.rfind("GET ", 0) == 0 &&
        head.find("/metrics") != std::string::npos) {
      const std::string body = prometheus_text();
      response =
          "HTTP/1.1 200 OK\r\n"
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
          "Content-Length: " + std::to_string(body.size()) + "\r\n"
          "Connection: close\r\n\r\n" + body;
    } else if (head.rfind("GET ", 0) == 0 &&
               head.find("/healthz") != std::string::npos) {
      // Liveness probe: reaching this loop at all means the exporter
      // thread is serving; keep the body trivially parseable.
      response =
          "HTTP/1.1 200 OK\r\n"
          "Content-Type: text/plain; charset=utf-8\r\n"
          "Content-Length: 3\r\nConnection: close\r\n\r\nok\n";
    } else {
      response =
          "HTTP/1.1 404 Not Found\r\n"
          "Content-Length: 0\r\nConnection: close\r\n\r\n";
    }
    std::size_t off = 0;
    while (off < response.size()) {
      const auto w = ::write(conn, response.data() + off,
                             response.size() - off);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    ::close(conn);
  }
}

void StatsExporter::stop_http() {
  if (listen_fd_ < 0) return;
  http_stop_.store(true, std::memory_order_release);
  if (http_thread_.joinable()) http_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

#else  // !PSD_OBS_HAVE_SOCKETS

void StatsExporter::start_http() {
  PSD_REQUIRE(cfg_.metrics_port <= 0,
              "metrics endpoint requires POSIX sockets");
}
void StatsExporter::http_loop() {}
void StatsExporter::stop_http() {}

#endif

}  // namespace psd::obs
