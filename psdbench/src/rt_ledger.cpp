#include "rt_ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace psdbench {

using psd::obs::Log2Hist;
using psd::obs::ProfSnap;

RtReading RtTap::read(double now, double cpu_excluded) const {
  RtReading r;
  r.t = now;
  r.cpu_excluded = cpu_excluded;
  r.cpu_process = process_cpu_seconds();
  for (psd::rt::Shard* s : shards) {
    const psd::rt::ShardSnapshot snap = s->snapshot();
    r.drains += snap.drains;
    for (std::uint32_t c = 0; c < snap.num_classes; ++c) {
      r.popped += snap.accepted[c] + snap.sheds_cls[c];
    }
    r.completed += s->completed_all();
    r.dropped += s->dropped();
    r.prof.merge(s->prof().snap());
    r.telemetry.push_back(s->telemetry());
  }
  for (psd::rt::Controller* c : controllers) r.prof.merge(c->prof().snap());
  return r;
}

void sleep_until(psd::rt::ClockVariant& clock, double t) {
  for (double now = clock.now(); now < t; now = clock.now()) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(t - now, 0.005)));
  }
}

RtObserver::RtObserver(const RtTap& tap, psd::rt::ClockVariant& clock,
                       double t_a, double t_b, double step,
                       std::optional<pthread_t> also_exclude)
    : thread_([this, &tap, &clock, t_a, t_b, step, also_exclude] {
        auto excluded = [&] {
          double cpu = this_thread_cpu_seconds();
          if (also_exclude) cpu += thread_cpu_seconds(*also_exclude);
          return cpu;
        };
        for (double t = t_a;; t = std::min(t + step, t_b)) {
          sleep_until(clock, t);
          readings_.push_back(tap.read(clock.now(), excluded()));
          if (t >= t_b) break;
        }
      }) {}

RtObserver::~RtObserver() {
  if (thread_.joinable()) thread_.join();
}

std::vector<RtReading> RtObserver::join() {
  thread_.join();
  return std::move(readings_);
}

namespace {

Log2Hist merged_ingress(const std::vector<psd::rt::ShardTelemetry>& t) {
  Log2Hist h;
  for (const auto& s : t) {
    for (std::uint32_t c = 0; c < s.num_classes; ++c) h.merge(s.ingress_wait[c]);
  }
  return h;
}

}  // namespace

Log2Hist ingress_wait_delta(const RtReading& a, const RtReading& b) {
  const Log2Hist early = merged_ingress(a.telemetry);
  Log2Hist h = merged_ingress(b.telemetry);
  h.count -= early.count;
  h.underflow -= early.underflow;
  h.overflow -= early.overflow;
  h.sum -= early.sum;
  for (int i = 0; i < Log2Hist::kBuckets; ++i) h.bucket[i] -= early.bucket[i];
  return h;
}

RtWindowFigures window_figures(const RtReading& a, const RtReading& b) {
  RtWindowFigures f;
  f.seconds = b.t - a.t;
  f.completed = b.completed - a.completed;
  const double cpu =
      (b.cpu_process - a.cpu_process) - (b.cpu_excluded - a.cpu_excluded);
  if (f.completed > 0 && f.seconds > 0.0) {
    f.goodput_rps = static_cast<double>(f.completed) / f.seconds;
    f.cpu_ns_per_req = cpu * 1e9 / static_cast<double>(f.completed);
  }
  return f;
}

RtRunFigures run_figures(const std::vector<RtReading>& readings) {
  std::vector<double> goodput, cpu, ingress;
  for (std::size_t i = 1; i < readings.size(); ++i) {
    const RtReading& a = readings[i - 1];
    const RtReading& b = readings[i];
    const RtWindowFigures f = window_figures(a, b);
    goodput.push_back(f.goodput_rps);
    cpu.push_back(f.cpu_ns_per_req);
    ingress.push_back(ingress_wait_delta(a, b).quantile(0.5));
  }
  return {median(goodput), median(cpu), median(ingress) * 1e6};
}

void set_rt_ledger(Result& r, const RtReading& a, const RtReading& b,
                   double dispatch_ns_total) {
  const RtWindowFigures f = window_figures(a, b);
  const double n = static_cast<double>(f.completed);
  const double ns_per_tick = 1e9 / psd::obs::ticks_per_second();
  auto slot_ns = [&](psd::obs::ProfSlot s) {
    return static_cast<double>(b.prof.ticks[s] - a.prof.ticks[s]) * ns_per_tick;
  };
  auto slot_count = [&](psd::obs::ProfSlot s) {
    return static_cast<double>(b.prof.count[s] - a.prof.count[s]);
  };
  const double drain = slot_ns(psd::obs::kProfDrain);
  const double pop = slot_ns(psd::obs::kProfRingPop);
  const double release = slot_ns(psd::obs::kProfBucketRelease);
  const double publish = slot_ns(psd::obs::kProfPublish);
  const double controller = slot_ns(psd::obs::kProfControllerTick);
  const double sim = drain - pop - release - publish;
  const double unattributed =
      f.cpu_ns_per_req * n - drain - controller - dispatch_ns_total;
  const double drains = static_cast<double>(b.drains - a.drains);

  r.set("rt.cpu_ns_per_req", f.cpu_ns_per_req);
  r.set("rt.drain_ns_per_req", drain / n);
  r.set("rt.ring_pop_ns_per_req", pop / n);
  r.set("rt.bucket_release_ns_per_req", release / n);
  r.set("rt.publish_ns_per_req", publish / n);
  r.set("rt.sim_ns_per_req", sim / n);
  r.set("rt.controller_ns_per_req", controller / n);
  r.set("rt.unattributed_ns_per_req", unattributed / n);
  r.set("rt.publish_ns_per_drain",
        publish / std::max(1.0, slot_count(psd::obs::kProfPublish)));
  r.set("rt.tick_us", controller * 1e-3 /
                          std::max(1.0, slot_count(psd::obs::kProfControllerTick)));
  r.set("rt.pop_batch",
        static_cast<double>(b.popped - a.popped) / std::max(1.0, drains));
  r.set("rt.drains_per_s", drains / f.seconds);

  char line[512];
  std::snprintf(line, sizeof(line),
                "ledger ns/req over %.0f completions: cpu %.1f = drain %.1f "
                "[ring_pop %.1f + bucket_release %.1f + publish %.1f + sim "
                "%.1f] + controller %.1f + dispatch %.1f + unattributed %.1f",
                n, f.cpu_ns_per_req, drain / n, pop / n, release / n,
                publish / n, sim / n, controller / n, dispatch_ns_total / n,
                unattributed / n);
  r.note(line);
}

}  // namespace psdbench
