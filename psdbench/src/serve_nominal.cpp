// serve_nominal: one embedded rt::Runtime (2 shards, adaptive eq.-17
// allocator) fed by the benchmark's own open-loop generator thread at
// rho = 0.8 with 10 us mean service, i.e. 160k req/s of uniform(0.5, 1.5)
// sizes.  At this rate shards sleep between drains, so the idle-poll loop,
// drain batching and ingress wait carry the cost.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "rt/handle.hpp"
#include "rt_ledger.hpp"
#include "workload/arrival.hpp"
#include "workloads.hpp"

namespace psdbench {

namespace {

using psd::rt::Runtime;

constexpr double kWarmup = 1.0;
/// The runtime keeps serving this long after the generator's last due time,
/// so every submitted request is in before the shutdown drain.
constexpr double kTail = 0.1;
/// The last reading is taken this long before load ends, while the
/// generator still runs.
constexpr double kReadMargin = 0.02;
constexpr std::uint64_t kLateSampleMask = 15;    ///< Every 16th request.
constexpr std::uint64_t kSubmitSampleMask = 63;  ///< Every 64th submit.

psd::rt::RtConfig make_config(const Options& opt, bool traced) {
  psd::rt::RtConfig c;
  c.delta = {1.0, 2.0};
  c.load = 0.8;
  c.size_dist = psd::DistSpec::uniform(0.5, 1.5);
  c.mean_service_seconds = 10e-6;
  c.shards = 2;
  // Runtime::run pins shard i to CPU i and the controller to the last CPU;
  // the generator takes CPU 2.  Fixed placement steadied cpu_ns_per_req,
  // ingress_p50_us and ratio_attainment between runs.
  c.pin_threads = true;
  c.allocator = psd::AllocatorKind::kAdaptivePsd;
  c.warmup = kWarmup;
  c.duration = kWarmup + opt.seconds + kTail;
  c.seed = opt.seed;
  c.obs.enabled = true;
  if (traced) {
    c.obs.profile = true;
    c.obs.trace_path = opt.out_dir + "/serve_nominal.trace.json";
    c.obs.trace_sample_period = 64;
  }
  return c;
}

struct GenStats {
  std::uint64_t offered = 0;
  std::uint64_t submitted = 0;
  std::uint64_t dropped = 0;
  double start = 0.0;
  double end = 0.0;
  std::vector<double> late_s;       ///< Sampled (submit time - due time).
  std::vector<double> submit_ticks; ///< Sampled RuntimeHandle::submit cost.
};

/// Open-loop Poisson source on the runtime's clock: spins until each due
/// time, stamps the request with it (so ingress wait counts any stall of
/// the generator or the runtime) and submits through the embedder handle.
void generate(Runtime& rt, std::uint64_t seed, double load_end, GenStats& g) {
  psd::rt::RuntimeHandle handle(rt);
  const auto lambda = rt.config().lambdas();
  const psd::SamplerVariant sizes = psd::make_sampler(rt.config().size_dist);
  psd::Rng rng(seed);
  std::vector<psd::PoissonArrivals> arrivals;
  for (double l : lambda) arrivals.emplace_back(l);
  psd::rt::ClockVariant& clock = rt.clock();
  g.start = clock.now();
  std::vector<double> next(lambda.size());
  for (std::size_t c = 0; c < next.size(); ++c) {
    next[c] = g.start + arrivals[c].next_interarrival(rng);
  }
  for (std::uint64_t id = 1;; ++id) {
    std::size_t c = 0;
    for (std::size_t k = 1; k < next.size(); ++k) {
      if (next[k] < next[c]) c = k;
    }
    psd::Request req;
    req.id = id;
    req.cls = static_cast<psd::ClassId>(c);
    req.arrival = next[c];
    req.size = sizes.sample(rng);
    if (req.arrival >= load_end) break;
    next[c] += arrivals[c].next_interarrival(rng);

    double now = clock.now();
    while (now < req.arrival) now = clock.now();
    bool ok = false;
    if ((id & kSubmitSampleMask) == 0) {
      const std::uint64_t t0 = psd::obs::now_ticks();
      ok = handle.submit(req);
      g.submit_ticks.push_back(
          static_cast<double>(psd::obs::now_ticks() - t0));
    } else {
      ok = handle.submit(req);
    }
    ++g.offered;
    if (ok) ++g.submitted; else ++g.dropped;
    if ((id & kLateSampleMask) == 0) g.late_s.push_back(now - req.arrival);
  }
  g.end = load_end;
}

struct Run {
  psd::rt::RtReport report;
  GenStats gen;
  RtReading a, b;
  std::vector<RtReading> readings;
  std::uint64_t spans_dropped = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< Last set-up start -> report.
};

Run run_once(const Options& opt, bool traced) {
  const psd::rt::RtConfig cfg = make_config(opt, traced);
  Run out;
  std::unique_ptr<Runtime> rt;
  const SetupTiming setup = timed_setups(rt, [&] {
    return std::make_unique<Runtime>(cfg, psd::rt::SteadyClock{},
                                     psd::rt::EmbeddedTag{});
  });
  out.setup_s = setup.median_s;

  RtTap tap;
  for (std::size_t i = 0; i < rt->num_shards(); ++i) {
    tap.shards.push_back(&rt->shard(i));
  }
  tap.controllers.push_back(&rt->controller_mut());

  const double load_end = cfg.duration - kTail;
  std::jthread gen([&] {
    psd::rt::pin_current_thread(2);
    generate(*rt, opt.seed, load_end, out.gen);
    // Stay alive (asleep) until the runtime stops serving, well after the
    // observer's last read of this thread's CPU clock.
    sleep_until(rt->clock(), cfg.duration);
  });
  RtObserver obs(tap, rt->clock(), kWarmup, load_end - kReadMargin, 1.0,
                 gen.native_handle());
  out.report = rt->run();
  gen.join();
  out.readings = obs.join();
  out.a = out.readings.front();
  out.b = out.readings.back();
  out.wall_s = wall_seconds() - setup.last_start;
  for (std::size_t i = 0; i < rt->num_shards(); ++i) {
    out.spans_dropped += rt->shard(i).spans_dropped();
  }
  return out;
}

void check_and_count(Result& r, const Run& run) {
  const GenStats& g = run.gen;
  const psd::rt::RtReport& rep = run.report;
  r.check(g.dropped == rep.dropped,
          "generator drops " + std::to_string(g.dropped) +
              " != runtime ring drops " + std::to_string(rep.dropped));
  r.check(g.offered == g.submitted + rep.dropped,
          "offered " + std::to_string(g.offered) + " != submitted " +
              std::to_string(g.submitted) + " + ring drops " +
              std::to_string(rep.dropped));
  r.check(g.submitted == rep.completed_all + rep.outstanding,
          "submitted " + std::to_string(g.submitted) + " != completions " +
              std::to_string(rep.completed_all) + " + unfinished " +
              std::to_string(rep.outstanding));
  r.check(rep.shed_total == 0, "requests shed without an admission gate");
  r.attempted += g.offered;
  r.failed += rep.dropped + rep.outstanding;
}

void note_co_batching(Result& r, const Run& run) {
  const double batch =
      static_cast<double>(run.b.popped - run.a.popped) /
      std::max<double>(1.0, static_cast<double>(run.b.drains - run.a.drains));
  char line[256];
  std::snprintf(line, sizeof(line),
                "known defect (co-batching): %.2f requests per drain, "
                "windowed ratio %.3f, cumulative ratio %.3f, target 2",
                batch, run.report.cls[1].window_ratio_p50,
                run.report.cls[1].achieved_ratio);
  r.note(line);
}

/// Request-lifecycle stage durations (seconds) from the Chrome trace file:
/// one "req" event per line, its timestamps in the args object.
struct StageSamples {
  std::vector<double> ingress, staging, queue, service;
};

double field(const char* line, const char* key) {
  const char* p = std::strstr(line, key);
  return p != nullptr ? std::strtod(p + std::strlen(key), nullptr)
                      : std::nan("");
}

StageSamples read_spans(const std::string& path, double from, double to) {
  StageSamples s;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"name\":\"req\"") == std::string::npos) continue;
    const char* l = line.c_str();
    const double t_in = field(l, "\"t_ingress\":");
    if (!(t_in >= from && t_in < to)) continue;
    const double t_admit = field(l, "\"t_admit\":");
    const double t_pop = field(l, "\"t_pop\":");
    const double t_start = field(l, "\"t_start\":");
    const double t_done = field(l, "\"t_complete\":");
    s.ingress.push_back(t_admit - t_in);
    s.staging.push_back(t_pop - t_admit);
    s.queue.push_back(t_start - t_pop);
    s.service.push_back(t_done - t_start);
  }
  return s;
}

}  // namespace

Result run_serve_nominal(const Options& opt) {
  Result r;
  const Run run = run_once(opt, /*traced=*/false);
  const RtRunFigures f = run_figures(run.readings);
  check_and_count(r, run);
  if (!opt.trace) {
    note_co_batching(r, run);
    r.set("goodput_rps", f.goodput_rps);
    r.set("cpu_ns_per_req", f.cpu_ns_per_req);
    r.set("ingress_p50_us", f.ingress_p50_us);
    r.set("ratio_attainment",
          attainment(run.report.cls[1].window_ratio_p50,
                     run.report.cls[1].target_ratio));
    r.set("points_per_s", 1.0 / run.wall_s);
    r.set("setup_s", run.setup_s);
    return r;
  }

  const Run tr = run_once(opt, /*traced=*/true);
  check_and_count(r, tr);
  note_co_batching(r, tr);
  set_rt_ledger(r, tr.a, tr.b, 0.0);
  const double traced_cpu = run_figures(tr.readings).cpu_ns_per_req;
  r.set("obs.trace_overhead", traced_cpu / f.cpu_ns_per_req - 1.0);
  r.note("cpu ns/req, median over windows: untraced " +
         std::to_string(f.cpu_ns_per_req) + ", traced " +
         std::to_string(traced_cpu));
  r.set("obs.spans_dropped", static_cast<double>(tr.spans_dropped));
  r.set("rt.window_ratio_p50", tr.report.cls[1].window_ratio_p50);
  r.set("rt.slowdown_mean.c1", tr.report.cls[0].mean_slowdown);
  r.set("rt.slowdown_mean.c2", tr.report.cls[1].mean_slowdown);
  r.set("rt.reallocations", static_cast<double>(tr.report.reallocations));
  r.set("rt.drop_share", static_cast<double>(tr.report.dropped) /
                             static_cast<double>(tr.gen.offered));
  r.set("rt.ingress_p99_us",
        ingress_wait_delta(tr.a, tr.b).quantile(0.99) * 1e6);
  r.set("rt.submit_ns",
        median(tr.gen.submit_ticks) * 1e9 / psd::obs::ticks_per_second());
  r.set("gen.late_p50_us", quantile(tr.gen.late_s, 0.5) * 1e6);
  r.set("gen.late_p99_us", quantile(tr.gen.late_s, 0.99) * 1e6);
  r.set("gen.offered_rps", static_cast<double>(tr.gen.offered) /
                               (tr.gen.end - tr.gen.start));

  const StageSamples s = read_spans(make_config(opt, true).obs.trace_path,
                                    tr.a.t, tr.b.t);
  const std::pair<const char*, const std::vector<double>*> stages[] = {
      {"ingress", &s.ingress},
      {"staging", &s.staging},
      {"queue", &s.queue},
      {"service", &s.service}};
  for (const auto& [name, v] : stages) {
    const std::string base = std::string("rt.stage.") + name + "_us.";
    r.set(base + "p50", quantile(*v, 0.5) * 1e6);
    r.set(base + "p99", quantile(*v, 0.99) * 1e6);
  }
  r.set("rt.stage.spans", static_cast<double>(s.ingress.size()));
  r.check(!s.ingress.empty(), "no spans in the measurement window");

  const psd::rt::RtConfig cfg = make_config(opt, true);
  ProbeInput in;
  in.delta = cfg.delta;
  in.lambda = cfg.lambdas();
  in.capacity = cfg.shard_capacity() * static_cast<double>(cfg.shards);
  in.sizes = cfg.size_dist;
  in.seed = opt.seed;
  run_layer_probes(r, in);
  return r;
}

}  // namespace psdbench
