#include "rt/shard.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sched/dedicated_rate.hpp"

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace psd::rt {

// The span verdict byte is AdmitVerdict passed through untranslated; keep
// the two enums value-aligned or the trace files lie about shed causes.
static_assert(obs::kSpanAdmitted == static_cast<std::uint8_t>(kAdmitted) &&
                  obs::kSpanShedMask == static_cast<std::uint8_t>(kShedMask) &&
                  obs::kSpanShedThinned ==
                      static_cast<std::uint8_t>(kShedThinned) &&
                  obs::kSpanShedBucket ==
                      static_cast<std::uint8_t>(kShedBucket),
              "obs::SpanVerdict must stay value-aligned with AdmitVerdict");

namespace {

/// Run-unique span id: shard(8) | class(8) | shed-flag(1) | ordinal(47).
/// Pure function of (shard, class, per-class ordinal), so ids — like the
/// sampled subset itself — are deterministic across replays.
std::uint64_t make_trace_id(std::uint32_t shard, ClassId cls, bool shed,
                            std::uint64_t ordinal) {
  return (static_cast<std::uint64_t>(shard & 0xff) << 56) |
         (static_cast<std::uint64_t>(cls & 0xff) << 48) |
         (shed ? (std::uint64_t{1} << 47) : 0) |
         (ordinal & ((std::uint64_t{1} << 47) - 1));
}

// The park word's futex, untimed: arming a timer is most of what a timed
// sleep costs, and the controller's pass before each tick bounds every park
// anyway.  libstdc++'s std::atomic::wait spins and yields before it reaches
// the futex, which doubles the shard CPU per wake, so it serves only as the
// portable fallback.
void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t park) {
#ifdef __linux__
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                std::atomic<std::uint32_t>::is_always_lock_free);
  // Returns at once unless the word still reads `park`; a spurious return
  // only costs the caller one extra drain.
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAIT_PRIVATE, park, nullptr, nullptr, 0);
#else
  word.wait(park, std::memory_order_acquire);
#endif
}

void futex_wake(std::atomic<std::uint32_t>& word) {
#ifdef __linux__
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
#else
  word.notify_one();
#endif
}

}  // namespace

Shard::Shard(const ShardConfig& cfg, Rng rng)
    : cfg_(cfg),
      ingress_(cfg.ingress_capacity),
      estimator_(cfg.num_classes, cfg.window, cfg.estimator_history),
      next_roll_(cfg.window),
      accepted_(cfg.num_classes, 0),
      done_cls_(cfg.num_classes, 0),
      ingress_wait_(cfg.num_classes),
      lambda_cache_(cfg.num_classes, 0.0),
      window_sd_cache_(cfg.num_classes, kNaN),
      window_seq_cache_(cfg.num_classes, 0) {
  PSD_REQUIRE(cfg.num_classes >= 1 && cfg.num_classes <= kMaxRtClasses,
              "shard supports 1..kMaxRtClasses classes");
  PSD_REQUIRE(cfg.window > 0.0, "window must be positive");
  PSD_REQUIRE(cfg.telemetry_sample_period >= 1 &&
                  (cfg.telemetry_sample_period &
                   (cfg.telemetry_sample_period - 1)) == 0,
              "telemetry_sample_period must be a power of two");
  PSD_REQUIRE(cfg.trace_sample_period >= 1 &&
                  (cfg.trace_sample_period &
                   (cfg.trace_sample_period - 1)) == 0,
              "trace_sample_period must be a power of two");

  telem_.num_classes = static_cast<std::uint32_t>(cfg.num_classes);
  telem_.sample_period = cfg.telemetry_sample_period;
  // With telemetry off the mask is all-ones: the per-event sample test
  // `(ordinal & mask) == 0` is then false for every ordinal >= 1, so the
  // hot paths pay exactly one AND+branch and never re-read cfg_.telemetry.
  sample_mask_ = cfg.telemetry
                     ? std::uint64_t{cfg.telemetry_sample_period} - 1
                     : ~std::uint64_t{0};
  // Same idiom for the span hooks.
  trace_mask_ = cfg.tracing ? std::uint64_t{cfg.trace_sample_period} - 1
                            : ~std::uint64_t{0};

  ServerConfig sc;
  sc.num_classes = cfg.num_classes;
  sc.capacity = cfg.capacity;
  sc.realloc_period = 0.0;  // the rt controller reallocates, not the server
  sc.metrics.num_classes = cfg.num_classes;
  sc.metrics.warmup_end = cfg.warmup;
  sc.metrics.window = cfg.window;
  sc.initial_rates = cfg.initial_rates;
  server_ = std::make_unique<Server>(
      sim_, sc, std::make_unique<DedicatedRateBackend>(), nullptr,
      std::move(rng));
  server_->set_completion_observer([this](const Request& req) {
    ++done_cls_[req.cls];
    // Completion ordinal == accepted ordinal (FIFO within class), so the
    // same mask that sampled this request at admission fires again here.
    if ((done_cls_[req.cls] & trace_mask_) == 0) trace_complete(req);
    // Distribution fills are 1-in-N sampled per class (counters stay
    // exact): one AND against the completion ordinal just incremented, so
    // the subsample — and every percentile derived from it — is a
    // deterministic function of the completion sequence.  The mask is
    // all-ones when telemetry is off, so this never fires then.
    if ((done_cls_[req.cls] & sample_mask_) == 0) {
      // Live histograms include warmup (dashboards want the transient);
      // the report-grade sd_hist_ honors the same cutoff as metrics.
      const double sd = req.slowdown();
      telem_.queue_delay[req.cls].add(req.delay());
      telem_.slowdown[req.cls].add(sd);
      if (req.departure >= cfg_.warmup) {
        sd_hist_[req.cls].add_fast(sd);
      }
    }
    done_.fetch_add(1, std::memory_order_release);
  });

  rates_ = server_->current_rates();

  // Telemetry allocations come LAST so the heap layout of everything on the
  // hot path (server, simulator, queues) is identical whether telemetry is
  // on or off — a layout shift shows up as a phantom cache/TLB "overhead"
  // that has nothing to do with the telemetry code itself.
  if (cfg.telemetry) {
    // Fine-grained slowdown distribution for the report fold; the paper's
    // slowdowns live in roughly [1e-3, 1e4] on a log axis.
    sd_hist_.assign(cfg.num_classes, LogHistogram(1e-3, 1e4, 20));
    prof_.set_enabled(cfg.profile);
  }
  if (cfg.tracing) {
    pending_spans_.resize(cfg.num_classes);
    span_ring_ = std::make_unique<obs::SpanRing>(cfg.span_ring_capacity);
  }

  publish(0.0);
  publish_telemetry(0.0);
}

bool Shard::submit(const Request& req, CoalescedPark* coalesced) {
  obs::ScopedProfTimer prof(&prof_, obs::kProfRingPush);
  // Count BEFORE the push: once the request is in the ring the shard thread
  // may pop, serve, and complete it before this producer runs another
  // instruction, and done_ passing pushed_ would wrap outstanding().
  pushed_.fetch_add(1, std::memory_order_release);
  if (!ingress_.try_push(req)) {
    pushed_.fetch_sub(1, std::memory_order_release);
    drops_cls_[req.cls].add();
    return false;
  }
  // Dekker pairing with park(): the push and park's store of the word are
  // each followed by a full fence, so either this load sees the park or
  // park's re-check sees the push, and no wake is lost.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::uint32_t park = park_.word.load(std::memory_order_acquire);
  if (park != 0) {
    const Time wake_at = park_.wake_at.load(std::memory_order_relaxed);
    if (req.arrival >= wake_at) {
      end_park(park);
    } else if (coalesced != nullptr) {
      *coalesced = {park, wake_at};
    }
  }
  return true;
}

void Shard::serve(const ClockVariant& clock) {
  while (!park_.stop.load(std::memory_order_acquire)) {
    const Time now = clock.now();
    drain(now);
    park(now);
  }
}

void Shard::park(Time now) {
  if (ingress_.can_pop() || park_.stop.load(std::memory_order_acquire)) {
    return;
  }
  // Coalesce: when the ring expects a second request within the window,
  // pushes due inside it ride the wake that ends the park.  Otherwise the
  // first push wakes the shard.
  park_.wake_at.store(ring_rate_ * kWakeWindow >= 1.0 ? now + kWakeWindow
                                                       : -kInf,
                      std::memory_order_relaxed);
  park_.last = park_.last == ~std::uint32_t{0} ? 1 : park_.last + 1;
  park_.word.store(park_.last);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!ingress_.can_pop() && !park_.stop.load(std::memory_order_acquire)) {
    futex_wait(park_.word, park_.last);
  }
  park_.word.store(0, std::memory_order_relaxed);
}

void Shard::wake() {
  if (park_.word.load(std::memory_order_relaxed) != 0 &&
      park_.word.exchange(0) != 0) {
    futex_wake(park_.word);
  }
}

void Shard::end_park(std::uint32_t park) {
  std::uint32_t expected = park;
  if (park != 0 && park_.word.load(std::memory_order_relaxed) == park &&
      park_.word.compare_exchange_strong(expected, 0)) {
    futex_wake(park_.word);
  }
}

void Shard::request_stop() {
  park_.stop.store(true);
  // Pairs with park()'s fence: either the shard's re-check sees the flag
  // or this load sees its park.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake();
}

void Shard::apply_rates(const std::vector<double>& rates,
                        std::uint64_t tick_seq) {
  PSD_REQUIRE(rates.size() == cfg_.num_classes, "rate vector size mismatch");
  std::lock_guard<std::mutex> lock(pending_m_);
  pending_rates_ = rates;
  pending_tick_seq_ = tick_seq;
  has_pending_ = true;
}

void Shard::set_admission(std::unique_ptr<AdmissionController> admission) {
  admission_ = std::move(admission);
  if (admission_ != nullptr) {
    offered_est_ = std::make_unique<LoadEstimator>(
        cfg_.num_classes, cfg_.window, cfg_.estimator_history);
    sheds_cls_.assign(cfg_.num_classes, 0);
    offered_cache_.assign(cfg_.num_classes, 0.0);
  }
}

void Shard::stage_admission_update(
    const std::vector<double>& offered_lambda) {
  PSD_REQUIRE(offered_lambda.size() == cfg_.num_classes,
              "offered estimate size mismatch");
  std::lock_guard<std::mutex> lock(pending_m_);
  pending_offered_ = offered_lambda;
  has_pending_admission_ = true;
}

std::size_t Shard::drain(Time now) {
  obs::ScopedProfTimer prof_drain(&prof_, obs::kProfDrain);
  // The wall clock is monotone across calls, but the embedded simulator may
  // already sit exactly at `now` from the previous drain.
  if (now < sim_.now()) now = sim_.now();

  // 1. Fire every completion due by `now` at its exact model time, then
  //    leave the simulation clock parked at `now` for the injections below.
  sim_.run_until(now);

  // 2. Adopt a controller handoff, effective `now` (in-service work is
  //    settled at the old rate up to here).
  {
    std::lock_guard<std::mutex> lock(pending_m_);
    if (has_pending_) {
      rates_ = pending_rates_;
      ctrl_tick_seq_ = pending_tick_seq_;
      has_pending_ = false;
      server_->set_rates(rates_);
    }
    // Gate decisions latch here, once per staged controller update (i.e.
    // per estimation window) — the shard thread owns all gate state, the
    // controller only hands estimates across.
    if (has_pending_admission_) {
      has_pending_admission_ = false;
      if (admission_ != nullptr) admission_->update(pending_offered_);
    }
  }

  // 3. Submit the ingress backlog to the embedded server, whose
  //    dedicated-rate backend holds each class to its rate.  The request's
  //    queueing clock starts here: time spent in flight between the
  //    producer and this pop is reported separately (mean_ingress_wait), so
  //    slowdown measurements stay on the exact simulator time axis.
  Request req;
  std::size_t popped = 0;
  {
    obs::ScopedProfTimer prof_pop(&prof_, obs::kProfRingPop);
    // Hoisted: the opaque submit below would otherwise force a reload every
    // iteration.  All-ones when telemetry/tracing is off (never fires).
    const std::uint64_t mask = sample_mask_;
    const std::uint64_t tmask = trace_mask_;
    while (ingress_.try_pop(req)) {
      ++popped;
      const ClassId c = req.cls;
      // Admission gate: O(1) decision at pop time, BEFORE the request can
      // touch the estimator or the embedded simulator — the allocator only
      // ever sees admitted load, while the offered estimator (feeding the
      // gate's own update cadence) sees everything.
      if (admission_ != nullptr) {
        offered_est_->on_arrival(c, req.size);
        if (!admission_->admit_request(c, now, req.size)) {
          ++sheds_cls_[c];
          shed_n_.fetch_add(1, std::memory_order_release);
          if ((sheds_cls_[c] & tmask) == 0) trace_shed(c, req, now);
          continue;
        }
      }
      // Clamped at zero: producers stamp arrival from their own clock
      // reads, which may postdate this drain's single read of `now`.
      const double wait = std::max(0.0, now - req.arrival);
      ingress_wait_[c].add(wait);
      ++accepted_[c];
      if ((accepted_[c] & mask) == 0) {
        telem_.ingress_wait[c].add(wait);
      }
      // Span open: before the arrival rewrite below, while req.arrival is
      // still the producer's ingress stamp.
      if ((accepted_[c] & tmask) == 0) trace_admit(c, req, now);
      req.arrival = now;
      estimator_.on_arrival(c, req.size);
      server_->submit(req);
    }
    if (popped > 0) ingress_.publish_consumed();
  }

  // 4. Roll estimator windows that closed by `now` and refresh the cached
  //    estimates the controller consumes.
  bool rolled = false;
  while (next_roll_ <= now) {
    estimator_.roll(next_roll_);
    if (offered_est_ != nullptr) offered_est_->roll(next_roll_);
    next_roll_ += cfg_.window;
    rolled = true;
  }
  if (rolled) refresh_estimates();

  ++drains_;
  publish(now);
  // Telemetry is KBs of histogram state; republish on window rolls, and
  // then only once per telemetry_publish_interval — at high request rates
  // the seqlock copy would otherwise show up in per-request cost.
  if (rolled && cfg_.telemetry &&
      now - last_telem_publish_ >= cfg_.telemetry_publish_interval) {
    publish_telemetry(now);
  }
  return popped;
}

void Shard::trace_shed(ClassId c, const Request& req, Time now) {
  obs::Span s;
  s.trace_id = make_trace_id(cfg_.shard_id, c, /*shed=*/true, sheds_cls_[c]);
  s.tick_seq = ctrl_tick_seq_;
  s.t_ingress = req.arrival;  // still the producer stamp on the shed path
  s.t_admit = now;
  s.size = req.size;
  s.cls = c;
  s.shard = cfg_.shard_id;
  s.verdict = static_cast<std::uint8_t>(admission_->shed_verdict());
  span_ring_->push(s);  // sheds are complete at the verdict: emit now
}

void Shard::trace_admit(ClassId c, const Request& req, Time now) {
  PendingTrace p;
  p.ordinal = accepted_[c];
  p.span.trace_id =
      make_trace_id(cfg_.shard_id, c, /*shed=*/false, accepted_[c]);
  p.span.tick_seq = ctrl_tick_seq_;
  p.span.t_ingress = req.arrival;  // caller runs this hook pre-rewrite
  p.span.t_admit = now;
  p.span.t_pop = now;  // submitted to the server in the same pop
  p.span.size = req.size;
  p.span.cls = c;
  p.span.shard = cfg_.shard_id;
  pending_spans_[c].push_back(p);
}

void Shard::trace_complete(const Request& req) {
  auto& q = pending_spans_[req.cls];
  const std::uint64_t ordinal = done_cls_[req.cls];
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (it->ordinal != ordinal) continue;
    it->span.t_start = req.service_start;
    it->span.t_complete = req.departure;
    it->span.slowdown = req.slowdown();
    span_ring_->push(it->span);
    q.erase(it);
    return;
  }
}

void Shard::refresh_estimates() {
  lambda_cache_ = estimator_.lambda_estimate();
  if (offered_est_ != nullptr) {
    offered_cache_ = offered_est_->lambda_estimate();
  }
  // A gate sheds after the pop, so the ring carries the offered load.
  const std::vector<double>& ring =
      offered_est_ != nullptr ? offered_cache_ : lambda_cache_;
  ring_rate_ = std::accumulate(ring.begin(), ring.end(), 0.0);
  window_sd_cache_ = server_->metrics().last_window_slowdowns();
  // Captured together with the slowdowns so the published (value, seq)
  // pair is coherent: seq is the number of CLOSED windows behind value.
  for (std::size_t c = 0; c < window_seq_cache_.size(); ++c) {
    window_seq_cache_[c] =
        server_->metrics().windows(static_cast<ClassId>(c)).size();
  }
}

void Shard::publish(Time now) {
  obs::ScopedProfTimer prof_pub(&prof_, obs::kProfPublish);
  ShardSnapshot s;
  s.time = now;
  s.num_classes = static_cast<std::uint32_t>(cfg_.num_classes);
  s.drains = drains_;
  s.windows_closed = estimator_.windows_closed();
  const auto& metrics = server_->metrics();
  for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
    const auto cls = static_cast<ClassId>(c);
    s.drops_cls[c] = drops_cls_[c].get();
    s.drops += s.drops_cls[c];
    s.accepted[c] = accepted_[c];
    s.completed[c] = metrics.completed(cls);
    s.outstanding[c] = accepted_[c] - done_cls_[c];
    s.lambda_hat[c] = lambda_cache_[c];
    s.mean_slowdown[c] = metrics.slowdown(cls).mean();
    s.window_slowdown[c] = window_sd_cache_[c];
    s.rate[c] = rates_[c];
    s.mean_ingress_wait[c] = ingress_wait_[c].mean();
    s.window_seq[c] = window_seq_cache_[c];
  }
  if (admission_ != nullptr) {
    for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
      s.sheds_cls[c] = sheds_cls_[c];
      s.offered_lambda[c] = offered_cache_[c];
    }
  }
  snap_.publish(s);
}

void Shard::publish_telemetry(Time now) {
  last_telem_publish_ = now;
  telem_.time = now;
  for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
    telem_.accepted[c] = accepted_[c];
    telem_.completions[c] = done_cls_[c];
  }
  telem_.prof = prof_.snap();
  telem_snap_.publish(telem_);
}

void Shard::finalize(Time now) {
  drain(now);
  server_->finalize();
  refresh_estimates();
  publish(now);
  if (cfg_.telemetry) publish_telemetry(now);
}

}  // namespace psd::rt
