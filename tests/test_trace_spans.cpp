// Request-lifecycle tracing + SLO watchdog (src/obs/trace, src/obs/watchdog).
//
// The contracts under test:
//   1. Exactness — the 1-in-N sampler emits exactly floor(counter / period)
//      spans per class per event kind; no off-by-one at either end.
//   2. Determinism — a ManualClock run writes a byte-identical trace file
//      across repeats (the ISSUE's replay-debugging requirement).
//   3. The watchdog fires on a genuine SLO breach (2x overload behind an
//      admit-all gate collapses differentiation), stays quiet when the
//      delta-aware gate holds the ratios, and its flight bundle is a
//      loadable JSON document.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "admission/admission.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "rt/clock.hpp"
#include "rt/runtime.hpp"
#include "rt/shard.hpp"

namespace psd {
namespace {

using rt::ManualClock;
using rt::RtConfig;
using rt::RtReport;
using rt::Runtime;
using rt::Shard;
using rt::ShardConfig;

// ------------------------------------------------- minimal JSON loader
//
// Just enough of a recursive-descent parser to load the trace and flight
// bundles the obs layer writes: objects, arrays, strings (no unicode
// escapes), numbers, true/false/null.  Throws std::runtime_error on any
// syntax violation, which is exactly what the round-trip tests want.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  const JsonValue& at(const std::string& key) const {
    const auto it = fields.find(key);
    if (it == fields.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return fields.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON content");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      JsonValue key = string_value();
      expect(':');
      v.fields[key.str] = value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::kString;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) break;
      }
      v.str += s_[pos_++];
    }
    expect('"');
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  JsonValue null() {
    if (s_.compare(pos_, 4, "null") != 0) {
      throw std::runtime_error("bad literal");
    }
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    JsonValue v;
    v.kind = JsonValue::kNumber;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// -------------------------------------------------- span-ring primitives

TEST(SpanRing, PushDrainRoundTripsAndCountsDrops) {
  obs::SpanRing ring(4);
  obs::Span s;
  for (int i = 0; i < 6; ++i) {
    s.trace_id = static_cast<std::uint64_t>(i);
    ring.push(s);
  }
  // All 4 slots fill; the 2 overflow pushes drop-newest.
  EXPECT_EQ(ring.dropped(), 2u);
  std::vector<obs::Span> out;
  EXPECT_EQ(ring.drain(out), 4u);
  EXPECT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].trace_id, i);  // FIFO order preserved
  }
  EXPECT_EQ(ring.drain(out), 0u);  // drained dry
}

TEST(SloRules, ParseAcceptsTheGrammarAndRejectsTypos) {
  const auto rules =
      obs::parse_slo_rules("ratio_err>0.3, goodput<100; shed_rate>0.5");
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].metric, obs::SloMetric::kRatioErr);
  EXPECT_TRUE(rules[0].greater);
  EXPECT_DOUBLE_EQ(rules[0].threshold, 0.3);
  EXPECT_EQ(rules[1].metric, obs::SloMetric::kGoodput);
  EXPECT_FALSE(rules[1].greater);
  EXPECT_EQ(rules[2].metric, obs::SloMetric::kShedRate);

  EXPECT_THROW(obs::parse_slo_rules(""), std::exception);
  EXPECT_THROW(obs::parse_slo_rules("bogus>1"), std::exception);
  EXPECT_THROW(obs::parse_slo_rules("ratio_err=0.3"), std::exception);
  EXPECT_THROW(obs::parse_slo_rules("ratio_err>abc"), std::exception);
}

// ----------------------------------------------- shard-level exactness

Request make_request(ClassId cls, Time arrival, double size) {
  Request r;
  r.cls = cls;
  r.arrival = arrival;
  r.size = size;
  return r;
}

TEST(ShardTracing, SampledSpanCountIsExactlyCounterOverPeriod) {
  ShardConfig cfg;
  cfg.num_classes = 2;
  cfg.capacity = 1.0;
  cfg.window = 1.0;
  cfg.tracing = true;
  cfg.trace_sample_period = 4;
  Shard shard(cfg, Rng(5));
  ASSERT_TRUE(shard.tracing());
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(shard.submit(make_request(i % 2, i * 0.01, 0.01)));
  }
  shard.drain(1.0);  // pop + schedule
  shard.drain(5.0);  // fire every completion
  shard.finalize(5.0);

  std::vector<obs::Span> spans;
  shard.drain_spans(spans);
  // 12 completions per class at period 4: per-class completion ordinals
  // 4, 8, 12 — exactly 3 spans each, all fully timestamped.
  EXPECT_EQ(spans.size(), 6u);
  EXPECT_EQ(shard.spans_dropped(), 0u);
  std::size_t per_class[2] = {0, 0};
  for (const obs::Span& s : spans) {
    ASSERT_LT(s.cls, 2u);
    ++per_class[s.cls];
    EXPECT_EQ(s.verdict, obs::kSpanAdmitted);
    EXPECT_LE(s.t_ingress, s.t_admit);
    EXPECT_EQ(s.t_pop, s.t_admit);  // submitted to the server at the pop
    EXPECT_LE(s.t_pop, s.t_start);
    EXPECT_LE(s.t_start, s.t_complete);
    EXPECT_TRUE(std::isfinite(s.slowdown));
    // trace_id packs (shard, class, shed, ordinal); shard 0, shed 0.
    EXPECT_EQ(s.trace_id >> 56, 0u);
    EXPECT_EQ((s.trace_id >> 48) & 0xff, s.cls);
    EXPECT_EQ((s.trace_id >> 47) & 1u, 0u);
    EXPECT_EQ(s.trace_id & ((1ull << 47) - 1), (per_class[s.cls]) * 4u);
  }
  EXPECT_EQ(per_class[0], 3u);
  EXPECT_EQ(per_class[1], 3u);
}

TEST(ShardTracing, OffShardExposesNoRing) {
  ShardConfig cfg;
  cfg.num_classes = 2;
  Shard shard(cfg, Rng(5));
  EXPECT_FALSE(shard.tracing());
  std::vector<obs::Span> spans;
  EXPECT_EQ(shard.drain_spans(spans), 0u);
  EXPECT_EQ(shard.spans_dropped(), 0u);
}

// --------------------------------------------------- runtime trace file

RtConfig trace_runtime_config() {
  RtConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = 0.5;
  cfg.size_dist = DistSpec::uniform(0.5, 1.5);
  cfg.mean_service_seconds = 1e-3;
  cfg.shards = 2;
  cfg.loadgens = 2;
  cfg.controller_period = 0.1;
  cfg.warmup = 0.5;
  cfg.duration = 3.0;
  cfg.seed = 71;
  return cfg;
}

void drive_with_trace(const RtConfig& base, const std::string& path) {
  RtConfig cfg = base;
  cfg.obs.enabled = true;
  cfg.obs.trace_path = path;
  cfg.obs.trace_sample_period = 4;
  cfg.obs.stats_interval = 0.25;
  Runtime runtime(cfg, ManualClock{});
  for (Time t = 0.02; t <= cfg.duration + 1e-9; t += 0.02) {
    runtime.step_to(t);
  }
  runtime.quiesce(20.0, 0.05);
  runtime.finish();
  ASSERT_NE(runtime.exporter(), nullptr);
  EXPECT_GT(runtime.exporter()->trace_events(), 0u);
}

TEST(RuntimeTrace, ManualClockTraceFileIsByteIdentical) {
  const std::string pa = ::testing::TempDir() + "psd_trace_a.json";
  const std::string pb = ::testing::TempDir() + "psd_trace_b.json";
  const RtConfig cfg = trace_runtime_config();
  drive_with_trace(cfg, pa);
  drive_with_trace(cfg, pb);
  const std::string a = slurp(pa);
  const std::string b = slurp(pb);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // replay debugging depends on this
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(RuntimeTrace, TraceFileIsLoadableOrderedAndSchemad) {
  const std::string path = ::testing::TempDir() + "psd_trace_load.json";
  drive_with_trace(trace_runtime_config(), path);

  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(slurp(path)).parse());
  EXPECT_EQ(doc.at("otherData").at("schema").str, "psd.rt.trace.v1");
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::kArray);

  std::size_t spans = 0;
  std::size_t reallocs = 0;
  for (const JsonValue& e : events.items) {
    const std::string& ph = e.at("ph").str;
    if (ph == "X") {
      ++spans;
      const JsonValue& args = e.at("args");
      EXPECT_EQ(args.at("verdict").str, "admitted");  // no gate in this run
      EXPECT_LE(args.at("t_ingress").number, args.at("t_admit").number);
      EXPECT_EQ(args.at("t_pop").number, args.at("t_admit").number);
      EXPECT_LE(args.at("t_pop").number, args.at("t_start").number);
      EXPECT_LE(args.at("t_start").number, args.at("t_complete").number);
      EXPECT_GE(e.at("dur").number, 0.0);
    } else if (ph == "i") {
      ++reallocs;
      EXPECT_EQ(e.at("pid").number, 0.0);  // controller track
      EXPECT_TRUE(e.at("args").has("rate"));
    }
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(reallocs, 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- watchdog

// 2x-capacity rt run behind an admission gate, with the watchdog armed on
// the persistence rule.  Under admit-all, every queue diverges together,
// the achieved ratio collapses toward 1.0 (error ~0.5 against target 2.0,
// band 0.25), and the settle clock climbs monotonically — it never
// re-enters the band.  Under delta-aware thinning the admitted survivors
// hold the ratio on average; single 0.1s windows are noisy, but the clock
// resets every time a window lands back in band, so it stays well under 3s
// (empirically <= 2.0 over a 10s run at this seed).  Same physics as
// test_overload.cpp, read through the watchdog.  The goodput rule is a
// deliberate non-breach (both gates complete ~800-1000/s): it exercises
// multi-rule evaluation with only one rule firing.
RtConfig overload_watchdog_config(const std::string& admission,
                                  const std::string& flight_prefix) {
  RtConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = 2.0;
  cfg.size_dist = DistSpec::deterministic(1.0);
  cfg.mean_service_seconds = 1e-3;
  cfg.shards = 1;
  cfg.loadgens = 1;
  cfg.controller_period = 0.1;
  cfg.warmup = 1.0;
  cfg.duration = 8.0;
  cfg.seed = 71;
  cfg.admission = AdmissionSpec::parse(admission);
  cfg.obs.enabled = true;
  cfg.obs.slo_rules = "settle>3, goodput<100";
  cfg.obs.flight_prefix = flight_prefix;
  return cfg;
}

RtReport drive_watchdog(const RtConfig& cfg, std::uint64_t* breaches,
                        std::uint64_t* dumps, std::string* flight_path) {
  Runtime runtime(cfg, ManualClock{});
  for (Time t = 0.02; t <= cfg.duration + 1e-9; t += 0.02) {
    runtime.step_to(t);
  }
  runtime.quiesce(30.0, 0.05);
  runtime.finish();
  EXPECT_NE(runtime.watchdog(), nullptr);
  *breaches = runtime.watchdog()->total_breaches();
  *dumps = runtime.watchdog()->dumps();
  *flight_path = runtime.watchdog()->last_flight_path();
  return runtime.report();
}

TEST(Watchdog, FiresOnAdmitAllOverloadAndStaysQuietWhenGated) {
  const std::string prefix = ::testing::TempDir() + "psd_flight";
  std::uint64_t breaches = 0;
  std::uint64_t dumps = 0;
  std::string flight;

  drive_watchdog(overload_watchdog_config("admit-all", prefix), &breaches,
                 &dumps, &flight);
  EXPECT_GT(breaches, 0u)
      << "2x admit-all overload sits out of band for the whole run — the "
         "settle clock must cross 3s";
  ASSERT_GE(dumps, 1u);
  ASSERT_FALSE(flight.empty());

  // The bundle is a loadable, self-describing postmortem document.
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(slurp(flight)).parse());
  EXPECT_EQ(doc.at("schema").str, "psd.rt.flight.v1");
  const JsonValue& breached = doc.at("breach");
  ASSERT_EQ(breached.kind, JsonValue::kArray);
  ASSERT_EQ(breached.items.size(), 1u);  // goodput<100 must NOT fire
  EXPECT_EQ(breached.items[0].at("rule").str, "settle>3");
  EXPECT_GT(breached.items[0].at("value").number, 3.0);
  EXPECT_DOUBLE_EQ(breached.items[0].at("threshold").number, 3.0);
  const JsonValue& window = doc.at("window");
  EXPECT_GT(window.at("ratio_err").number, 0.25);  // out of the settle band
  const JsonValue& shards = doc.at("shards");
  ASSERT_EQ(shards.kind, JsonValue::kArray);
  ASSERT_EQ(shards.items.size(), 1u);
  EXPECT_GT(shards.items[0].at("sheds").items[0].number +
                shards.items[0].at("sheds").items[1].number +
                shards.items[0].at("accepted").items[0].number,
            0.0);
  // SLO rules imply tracing: the bundle retains sampled spans and the
  // controller's decision trace for the postmortem.
  EXPECT_FALSE(doc.at("spans").items.empty());
  EXPECT_FALSE(doc.at("controller_trace").items.empty());
  std::remove(flight.c_str());

  // Same physics behind the delta-aware gate: ratios hold, no breach, no
  // flight bundle.
  drive_watchdog(overload_watchdog_config("delta-aware:0.8", prefix),
                 &breaches, &dumps, &flight);
  EXPECT_EQ(breaches, 0u) << "delta-aware:0.8 keeps re-entering the band — "
                             "the settle clock must never reach 3s";
  EXPECT_EQ(dumps, 0u);
  EXPECT_TRUE(flight.empty());
}

TEST(Watchdog, FlightDumpIsDeterministicUnderManualClock) {
  const std::string pa = ::testing::TempDir() + "psd_flight_rep_a";
  const std::string pb = ::testing::TempDir() + "psd_flight_rep_b";
  std::uint64_t breaches = 0;
  std::uint64_t dumps = 0;
  std::string fa;
  std::string fb;
  drive_watchdog(overload_watchdog_config("admit-all", pa), &breaches, &dumps,
                 &fa);
  ASSERT_GE(dumps, 1u);
  drive_watchdog(overload_watchdog_config("admit-all", pb), &breaches, &dumps,
                 &fb);
  ASSERT_GE(dumps, 1u);
  // Identical runs breach at the identical model time...
  EXPECT_EQ(fa.substr(pa.size()), fb.substr(pb.size()));
  // ...and dump byte-identical bundles (modulo nothing: same seeds, same
  // clock, same spans).
  EXPECT_EQ(slurp(fa), slurp(fb));
  std::remove(fa.c_str());
  std::remove(fb.c_str());
}

}  // namespace
}  // namespace psd
