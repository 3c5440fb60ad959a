#include "obs/trace.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sweep/jsonl.hpp"

namespace psd::obs {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

const char* span_verdict_name(std::uint8_t v) {
  switch (v) {
    case kSpanAdmitted:
      return "admitted";
    case kSpanShedMask:
      return "shed-mask";
    case kSpanShedThinned:
      return "shed-thinned";
    case kSpanShedBucket:
      return "shed-bucket";
    default:
      return "unknown";
  }
}

// ---------------------------------------------------------------- SpanRing

SpanRing::SpanRing(std::size_t capacity)
    : slots_(round_up_pow2(std::max<std::size_t>(capacity, 2))),
      mask_(slots_.size() - 1) {}

bool SpanRing::push(const Span& s) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  // The consumer's head store is release-paired with this acquire, so the
  // slot it vacated is safely reusable here.
  if (tail - head_.load(std::memory_order_acquire) >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[tail & mask_] = s;
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

std::size_t SpanRing::drain(std::vector<Span>& out) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  for (std::uint64_t i = head; i != tail; ++i) {
    out.push_back(slots_[i & mask_]);
  }
  head_.store(tail, std::memory_order_release);
  return static_cast<std::size_t>(tail - head);
}

// -------------------------------------------------------------- TraceWriter

TraceWriter::TraceWriter(const std::string& path) : path_(path) {
  out_.open(path, std::ios::trunc);
  PSD_REQUIRE(out_.is_open(),
              "cannot open trace output file '" + path + "'");
  // Header: the schema tag rides in otherData, where Chrome's loader
  // ignores it and tooling can still find it.
  out_ << "{\"otherData\":{\"schema\":\"psd.rt.trace.v1\"},"
          "\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::emit(const std::string& rendered) {
  if (!first_) out_ << ",\n";
  first_ = false;
  out_ << rendered;
  ++events_;
}

void TraceWriter::ensure_track(std::uint32_t pid, std::uint32_t tid) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(pid) << 32) | tid;
  if (std::find(tracks_.begin(), tracks_.end(), key) != tracks_.end()) {
    return;
  }
  const bool new_pid =
      std::none_of(tracks_.begin(), tracks_.end(), [&](std::uint64_t k) {
        return (k >> 32) == pid;
      });
  tracks_.push_back(key);
  if (new_pid) {
    JsonObject m;
    m.field("name", "process_name")
        .field("ph", "M")
        .field("pid", static_cast<std::uint64_t>(pid))
        .raw("args",
             "{\"name\":" +
                 json_string(pid == 0 ? std::string("controller")
                                      : "shard " + std::to_string(pid - 1)) +
                 "}");
    emit(m.str());
  }
  JsonObject m;
  m.field("name", "thread_name")
      .field("ph", "M")
      .field("pid", static_cast<std::uint64_t>(pid))
      .field("tid", static_cast<std::uint64_t>(tid))
      .raw("args",
           "{\"name\":" +
               json_string(pid == 0 ? std::string("reallocations")
                                    : "class " + std::to_string(tid - 1)) +
               "}");
  emit(m.str());
}

void TraceWriter::write_span(const Span& s) {
  PSD_CHECK(!closed_, "trace writer already closed");
  const std::uint32_t pid = s.shard + 1;
  const std::uint32_t tid = s.cls + 1;
  ensure_track(pid, tid);
  const bool shed = s.verdict != kSpanAdmitted;
  // Sheds span ingress -> verdict; admitted spans ingress -> completion.
  const double end = shed ? s.t_admit : s.t_complete;
  JsonObject args;
  args.field("trace_id", s.trace_id)
      .field("verdict", span_verdict_name(s.verdict))
      .field("size", s.size)
      .field("tick", s.tick_seq)
      .field("t_ingress", s.t_ingress)
      .field("t_admit", s.t_admit);
  if (!shed) {
    args.field("t_pop", s.t_pop)
        .field("t_start", s.t_start)
        .field("t_complete", s.t_complete)
        .field("slowdown", s.slowdown);
  }
  JsonObject e;
  e.field("name", shed ? "shed" : "req")
      .field("cat", "request")
      .field("ph", "X")
      .field("pid", static_cast<std::uint64_t>(pid))
      .field("tid", static_cast<std::uint64_t>(tid))
      .raw("ts", json_number(s.t_ingress * 1e6))
      .raw("dur", json_number(std::max(0.0, (end - s.t_ingress) * 1e6)))
      .raw("args", args.str());
  emit(e.str());
}

void TraceWriter::write_realloc(double t, std::uint64_t tick,
                                bool fresh_window, const double* rate,
                                std::size_t num_classes) {
  PSD_CHECK(!closed_, "trace writer already closed");
  ensure_track(0, 0);
  JsonObject args;
  args.field("tick", tick).field_bool("fresh_window", fresh_window);
  args.raw("rate", json_array(rate, num_classes));
  JsonObject e;
  e.field("name", "realloc")
      .field("cat", "controller")
      .field("ph", "i")
      .field("s", "p")
      .field("pid", std::uint64_t{0})
      .field("tid", std::uint64_t{0})
      .raw("ts", json_number(t * 1e6))
      .raw("args", args.str());
  emit(e.str());
}

void TraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  out_ << "\n]}\n";
  out_.flush();
}

}  // namespace psd::obs
