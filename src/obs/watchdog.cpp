#include "obs/watchdog.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "obs/exporter.hpp"
#include "sweep/jsonl.hpp"

namespace psd::obs {

namespace {

const char* metric_name(SloMetric m) {
  switch (m) {
    case SloMetric::kRatioErr:
      return "ratio_err";
    case SloMetric::kGoodput:
      return "goodput";
    case SloMetric::kShedRate:
      return "shed_rate";
    case SloMetric::kSettle:
      return "settle";
  }
  PSD_UNREACHABLE("unknown SLO metric");
}

std::string span_json(const Span& s) {
  JsonObject o;
  o.field("trace_id", s.trace_id)
      .field("cls", static_cast<std::uint64_t>(s.cls))
      .field("shard", static_cast<std::uint64_t>(s.shard))
      .field("verdict", span_verdict_name(s.verdict))
      .field("tick", s.tick_seq)
      .field("t_ingress", s.t_ingress)
      .field("t_admit", s.t_admit)
      .field("t_pop", s.t_pop)
      .field("t_start", s.t_start)
      .field("t_complete", s.t_complete)
      .field("size", s.size)
      .field("slowdown", s.slowdown);
  return o.str();
}

}  // namespace

std::vector<SloRule> parse_slo_rules(const std::string& spec) {
  std::vector<SloRule> rules;
  std::string term;
  auto flush_term = [&] {
    if (term.empty()) return;
    const std::size_t gt = term.find('>');
    const std::size_t lt = term.find('<');
    PSD_REQUIRE((gt == std::string::npos) != (lt == std::string::npos),
                "SLO rule '" + term + "' needs exactly one of '>' or '<'");
    const std::size_t op = gt != std::string::npos ? gt : lt;
    SloRule r;
    r.greater = gt != std::string::npos;
    r.text = term;
    const std::string name = term.substr(0, op);
    if (name == "ratio_err") r.metric = SloMetric::kRatioErr;
    else if (name == "goodput") r.metric = SloMetric::kGoodput;
    else if (name == "shed_rate") r.metric = SloMetric::kShedRate;
    else if (name == "settle") r.metric = SloMetric::kSettle;
    else {
      PSD_REQUIRE(false, "unknown SLO metric '" + name +
                             "' (ratio_err|goodput|shed_rate|settle)");
    }
    const std::string value = term.substr(op + 1);
    char* end = nullptr;
    r.threshold = std::strtod(value.c_str(), &end);
    PSD_REQUIRE(end != nullptr && *end == '\0' && !value.empty(),
                "SLO rule '" + term + "' needs a numeric threshold");
    rules.push_back(std::move(r));
    term.clear();
  };
  for (char ch : spec) {
    if (ch == ',' || ch == ';') flush_term();
    else if (ch != ' ') term += ch;
  }
  flush_term();
  PSD_REQUIRE(!rules.empty(), "empty SLO rule string");
  return rules;
}

Watchdog::Watchdog(WatchdogConfig cfg, std::vector<rt::Shard*> shards,
                   const rt::Controller* controller)
    : cfg_(std::move(cfg)),
      shards_(std::move(shards)),
      controller_(controller),
      rules_(parse_slo_rules(cfg_.rules)) {
  PSD_REQUIRE(!shards_.empty() && controller_ != nullptr,
              "watchdog needs shards and a controller");
  PSD_REQUIRE(!cfg_.delta.empty(), "watchdog needs the class deltas");
  PSD_REQUIRE(cfg_.settle_band > 0.0, "settle band must be positive");
  PSD_REQUIRE(cfg_.cooldown >= 0.0, "cooldown must be non-negative");
}

void Watchdog::observe_spans(const std::vector<Span>& spans) {
  for (const Span& s : spans) {
    recent_spans_.push_back(s);
    if (recent_spans_.size() > cfg_.flight_span_capacity) {
      recent_spans_.pop_front();
    }
  }
}

SloWindowStats Watchdog::scrape(double now) {
  const std::size_t n = cfg_.delta.size();
  SloWindowStats w;
  w.t = now;

  std::uint64_t completed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::vector<double> sd_sum(n, 0.0);
  std::vector<std::uint32_t> sd_cnt(n, 0);
  for (const rt::Shard* shard : shards_) {
    const rt::ShardSnapshot s = shard->snapshot();
    for (std::size_t c = 0; c < n; ++c) {
      completed += s.completed[c];
      accepted += s.accepted[c];
      shed += s.sheds_cls[c];
      // Last CLOSED metrics window per shard — sticky between rolls, unlike
      // the controller snapshot's per-tick means, so a slow stats cadence
      // still sees every shard's latest window.
      if (std::isfinite(s.window_slowdown[c])) {
        sd_sum[c] += s.window_slowdown[c];
        ++sd_cnt[c];
      }
    }
  }

  // Windowed ratio error: cross-shard mean last-window slowdowns, each
  // class's ratio vs class 0 against its delta target.
  if (sd_cnt[0] > 0 && n >= 2) {
    const double s0 = sd_sum[0] / sd_cnt[0];
    if (s0 > 0.0) {
      double worst = kNaN;
      for (std::size_t c = 1; c < n; ++c) {
        if (sd_cnt[c] == 0) continue;
        const double ratio = (sd_sum[c] / sd_cnt[c]) / s0;
        const double target = cfg_.delta[c] / cfg_.delta[0];
        const double err = std::abs(ratio / target - 1.0);
        worst = std::isfinite(worst) ? std::max(worst, err) : err;
      }
      w.ratio_err = worst;
    }
  }

  // Rate metrics need a previous window; the first scrape only baselines.
  if (prev_t_ >= 0.0 && now > prev_t_) {
    const double dt = now - prev_t_;
    // Goodput counts POST-WARMUP completions, so a window straddling the
    // warmup boundary undercounts by construction and would trip any floor
    // the moment the rules arm.  Only windows fully inside the armed region
    // yield a number; shed/accepted counters are not warmup-gated, so
    // shed_rate has no such artifact.
    if (prev_t_ >= cfg_.arm_time) {
      w.goodput = static_cast<double>(completed - prev_completed_) / dt;
    }
    const std::uint64_t d_offered =
        (accepted - prev_accepted_) + (shed - prev_shed_);
    if (d_offered > 0) {
      w.shed_rate = static_cast<double>(shed - prev_shed_) /
                    static_cast<double>(d_offered);
    }
  }
  prev_t_ = now;
  prev_completed_ = completed;
  prev_accepted_ = accepted;
  prev_shed_ = shed;

  // Settle clock: seconds the windowed ratio error has continuously sat
  // outside the band.  A non-finite error (no closed windows yet) keeps the
  // clock untouched rather than resetting it — silence is not convergence.
  if (std::isfinite(w.ratio_err)) {
    if (w.ratio_err > cfg_.settle_band) {
      if (!std::isfinite(out_of_band_since_)) out_of_band_since_ = now;
    } else {
      out_of_band_since_ = kNaN;
    }
  }
  w.settle =
      std::isfinite(out_of_band_since_) ? now - out_of_band_since_ : 0.0;
  return w;
}

double Watchdog::metric_value(SloMetric m) const {
  switch (m) {
    case SloMetric::kRatioErr:
      return stats_.ratio_err;
    case SloMetric::kGoodput:
      return stats_.goodput;
    case SloMetric::kShedRate:
      return stats_.shed_rate;
    case SloMetric::kSettle:
      return stats_.settle;
  }
  PSD_UNREACHABLE("unknown SLO metric");
}

std::size_t Watchdog::evaluate(double now) {
  if (disarmed_.load(std::memory_order_acquire)) return 0;
  stats_ = scrape(now);
  if (now < cfg_.arm_time) return 0;
  std::vector<const SloRule*> breached;
  for (const SloRule& r : rules_) {
    const double v = metric_value(r.metric);
    if (!std::isfinite(v)) continue;
    if (r.greater ? v > r.threshold : v < r.threshold) {
      breached.push_back(&r);
    }
  }
  total_breaches_ += breached.size();
  if (!breached.empty() && now - last_dump_t_ >= cfg_.cooldown) {
    last_dump_t_ = now;
    dump_flight(now, breached);
  }
  return breached.size();
}

void Watchdog::dump_flight(double now,
                           const std::vector<const SloRule*>& breached) {
  const std::size_t n = cfg_.delta.size();

  std::string breach_json = "[";
  for (std::size_t i = 0; i < breached.size(); ++i) {
    const SloRule& r = *breached[i];
    JsonObject b;
    b.field("rule", r.text)
        .field("metric", metric_name(r.metric))
        .field("value", metric_value(r.metric))
        .field("threshold", r.threshold);
    if (i > 0) breach_json += ',';
    breach_json += b.str();
  }
  breach_json += ']';

  JsonObject window;
  window.field("t", stats_.t)
      .field("ratio_err", stats_.ratio_err)
      .field("goodput", stats_.goodput)
      .field("shed_rate", stats_.shed_rate)
      .field("settle", stats_.settle);

  std::string shards_json = "[";
  std::uint64_t spans_dropped = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const rt::ShardSnapshot s = shards_[i]->snapshot();
    spans_dropped += shards_[i]->spans_dropped();
    JsonObject sh;
    sh.field("shard", static_cast<std::uint64_t>(i))
        .field("t", s.time)
        .field("drains", s.drains)
        .raw("accepted", json_array(s.accepted, n))
        .raw("completed", json_array(s.completed, n))
        .raw("sheds", json_array(s.sheds_cls, n))
        .raw("drops", json_array(s.drops_cls, n))
        .raw("outstanding", json_array(s.outstanding, n))
        .raw("lambda_hat", json_array(s.lambda_hat, n))
        .raw("rate", json_array(s.rate, n))
        .raw("window_slowdown", json_array(s.window_slowdown, n));
    if (i > 0) shards_json += ',';
    shards_json += sh.str();
  }
  shards_json += ']';

  const rt::ControllerSnapshot cs = controller_->snapshot();
  JsonObject ctl;
  ctl.field("ticks", cs.ticks)
      .field("allocations", cs.allocations)
      .raw("lambda", json_array(cs.lambda, n))
      .raw("rate", json_array(cs.rate, n));

  // The full retained decision-trace backlog: a fresh zero cursor returns
  // everything still in the controller's bounded ring.
  std::uint64_t cursor = 0;
  const std::string trace_json =
      decision_trace_json(controller_->trace_since(&cursor));

  std::string spans_json = "[";
  {
    bool first = true;
    for (const Span& s : recent_spans_) {
      if (!first) spans_json += ',';
      first = false;
      spans_json += span_json(s);
    }
    spans_json += ']';
  }

  JsonObject bundle;
  bundle.field("schema", "psd.rt.flight.v1")
      .field("t", now)
      .raw("breach", breach_json)
      .raw("window", window.str())
      .raw("delta", json_array(cfg_.delta))
      .raw("shards", shards_json)
      .raw("controller", ctl.str())
      .raw("controller_trace", trace_json)
      .raw("spans", spans_json)
      .field("spans_dropped", spans_dropped);

  char stamp[32];
  std::snprintf(stamp, sizeof stamp, "%.3f", now);
  const std::string path = cfg_.flight_prefix + "-t" + stamp + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return;  // postmortem dump must never kill the run
  out << bundle.str() << "\n";
  out.flush();
  ++dumps_;
  last_flight_path_ = path;
}

}  // namespace psd::obs
