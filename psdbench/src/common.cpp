#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace psdbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"goodput_rps", "req/s"},     {"cpu_ns_per_req", "ns"},
      {"ingress_p50_us", "us"},     {"ratio_attainment", "1"},
      {"points_per_s", "1/s"},      {"setup_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // rt: drain cadence and the per-request cost ledger.
      {"rt.pop_batch", "req"},
      {"rt.drains_per_s", "1/s"},
      {"rt.window_ratio_p50", "1"},
      {"rt.cpu_ns_per_req", "ns"},
      {"rt.unattributed_ns_per_req", "ns"},
      {"rt.submit_ns", "ns"},
      {"rt.drain_ns_per_req", "ns"},
      {"rt.ring_pop_ns_per_req", "ns"},
      {"rt.bucket_release_ns_per_req", "ns"},
      {"rt.sim_ns_per_req", "ns"},
      {"rt.publish_ns_per_req", "ns"},
      {"rt.publish_ns_per_drain", "ns"},
      {"rt.controller_ns_per_req", "ns"},
      // rt: request-lifecycle stages from sampled spans.
      {"rt.stage.ingress_us.p50", "us"},
      {"rt.stage.ingress_us.p99", "us"},
      {"rt.stage.staging_us.p50", "us"},
      {"rt.stage.staging_us.p99", "us"},
      {"rt.stage.queue_us.p50", "us"},
      {"rt.stage.queue_us.p99", "us"},
      {"rt.stage.service_us.p50", "us"},
      {"rt.stage.service_us.p99", "us"},
      {"rt.stage.spans", "count"},
      {"rt.ingress_p99_us", "us"},
      {"rt.slowdown_mean.c1", "1"},
      {"rt.slowdown_mean.c2", "1"},
      // rt: control loop and ring losses.
      {"rt.tick_us", "us"},
      {"rt.reallocations", "count"},
      {"rt.drop_share", "1"},
      // cluster
      {"cluster.dispatch_ns", "ns"},
      {"cluster.dispatch_ns_per_req", "ns"},
      {"cluster.route_ns", "ns"},
      {"cluster.dispatch_skew", "1"},
      {"cluster.ratio_attainment", "1"},
      {"cluster.node_ratio_err_max", "1"},
      {"cluster.rebalances", "count"},
      // admission
      {"admission.shed_share.c1", "1"},
      {"admission.shed_share.c2", "1"},
      {"admission.admit_ns", "ns"},
      // core
      {"core.allocate_ns", "ns"},
      // experiment (drives sim, sched, server)
      {"experiment.per_task_ns_per_req", "ns"},
      {"experiment.lockstep_ns_per_req", "ns"},
      {"experiment.aggregate_us_per_point", "us"},
      // sweep
      {"sweep.pool_efficiency", "1"},
      {"sweep.render_us_per_point", "us"},
      {"sweep.expand_ms", "ms"},
      // dist, workload
      {"dist.bp_sample_ns", "ns"},
      {"workload.interarrival_ns", "ns"},
      // obs
      {"obs.trace_overhead", "1"},
      {"obs.spans_dropped", "count"},
      // the benchmark's own open-loop generator (serve_nominal)
      {"gen.late_p50_us", "us"},
      {"gen.late_p99_us", "us"},
      {"gen.offered_rps", "req/s"},
  };
  return defs;
}

namespace {

const MetricDef* find_def(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *list) {
      if (name == d.name) return &d;
    }
  }
  return nullptr;
}

}  // namespace

void Result::set(const std::string& name, double value) {
  if (find_def(name) == nullptr) {
    throw std::logic_error("metric not in the catalogue: " + name);
  }
  for (Entry& e : values_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  values_.push_back({name, value});
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) problems_.push_back(what);
}

void Result::note(const std::string& line) { notes_.push_back(line); }

bool Result::has(const std::string& name) const {
  for (const Entry& e : values_) {
    if (e.name == name) return true;
  }
  return false;
}

double Result::get(const std::string& name) const {
  for (const Entry& e : values_) {
    if (e.name == name) return e.value;
  }
  return std::nan("");
}

void Result::finalize(bool trace) {
  const auto& defs = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricDef& d : defs) {
    if (!has(d.name)) {
      if (trace) {
        set(d.name, 0.0);
      } else {
        problems_.push_back(std::string("metric not measured: ") + d.name);
      }
    } else if (!std::isfinite(get(d.name))) {
      problems_.push_back(std::string("metric not finite: ") + d.name);
    }
  }
}

void Result::print(bool trace) const {
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  for (const std::string& p : problems_) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto& defs = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricDef& d : defs) {
    const double v = get(d.name);
    char num[48];
    // Non-finite values were already reported as failed checks; JSON has
    // no spelling for them.
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(v) ? v : 0.0);
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += d.name;
    json += "\": {\"value\": ";
    json += num;
    json += ", \"unit\": \"";
    json += d.unit;
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double this_thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_seconds(pthread_t thread) {
  clockid_t id{};
  if (pthread_getcpuclockid(thread, &id) != 0) return std::nan("");
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return std::nan("");
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double attainment(double ratio, double target) {
  if (!(ratio > 0.0) || !std::isfinite(ratio) || !(target > 0.0)) {
    return std::nan("");
  }
  return std::min(ratio / target, target / ratio);
}

}  // namespace psdbench
