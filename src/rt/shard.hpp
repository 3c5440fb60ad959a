// A worker shard: one thread's slice of the serving runtime.
//
// Each shard owns a complete single-node PSD pipeline — a private Simulator
// plus a Server (waiting queues, dedicated-rate backend, metrics) — and runs
// it on the WALL clock: drain(now) advances the embedded simulator to `now`,
// so scheduled completions fire at their exact model times and only then
// injects freshly arrived requests.  The embedded simulator is the shard's
// service engine; the wall clock merely gates how far it may advance.  The
// payoff is that service_start/departure timestamps are exact on the shared
// time axis no matter how late the OS schedules the shard thread, which is
// what makes slowdown ratios reproducible on loaded machines (and bitwise
// deterministic under ManualClock).
//
// Ingress is a lock-free MPSC ring fed by the load-generator threads; on
// pop, a request passes the admission gate (if any), is stamped with its
// shard-entry time and goes straight into the embedded server.  The
// allocation lands in one place: the server's DedicatedRateBackend serves
// class c at its allocated rate r_c in model time (the paper's per-class
// task servers), so a class never consumes work faster than r_c and its
// queueing delay is what the controller steers (src/rt/README.md, "Rate
// enforcement").
//
// serve() is the shard thread's whole life: drain(now), then park(now),
// until request_stop().  An idle shard parks on a futex word and the
// producers end the park: a push wakes it when its due stamp lies at least
// kWakeWindow past the park instant, or at once when the shard's own
// arrival-rate estimate expects no second request within that window.  A
// push that lands in a park without ending it reports that park to its
// producer, which owes the wake: its next push whose due stamp passes the
// park's wake time ends the park (end_park), whichever shard it goes to
// (rt/handle.hpp).  wake() is the controller's pass just before each tick.
// Parking changes only when a drain runs, never what it does
// (src/rt/README.md, "When a shard drains").
//
// Thread roles: submit() — any producer, which may wake a parked shard;
// serve()/drain()/finalize() — the one shard thread; wake()/end_park() —
// anyone; request_stop() — whoever started serve(); apply_rates() — the
// controller; snapshot() — anyone, via seqlock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/counters.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "rt/clock.hpp"
#include "rt/mpsc_queue.hpp"
#include "rt/seqlock.hpp"
#include "server/load_estimator.hpp"
#include "server/server.hpp"
#include "stats/histogram.hpp"

namespace psd::rt {

/// Fixed snapshot arity: snapshots are trivially-copyable PODs published
/// through a seqlock, so the class count is bounded at compile time.
inline constexpr std::size_t kMaxRtClasses = 8;

struct ShardSnapshot {
  double time = 0.0;
  std::uint32_t num_classes = 0;
  std::uint32_t pad = 0;
  std::uint64_t drains = 0;
  std::uint64_t drops = 0;                ///< Ingress-full rejections (total).
  /// Estimator windows rolled so far (lambda_hat freshness).
  std::uint64_t windows_closed = 0;
  /// Per-class count of CLOSED metrics windows behind window_slowdown.
  /// Metrics windows close lazily (when a completion lands past the
  /// boundary), so this — not windows_closed — is what tells the controller
  /// a class's window_slowdown is genuinely new.  The adaptive allocator
  /// must integrate each window's feedback exactly ONCE: shard rolls and
  /// controller ticks are not phase-locked, and re-integrating a stale
  /// window (e.g. during a completion lull) double-applies its error.
  std::uint64_t window_seq[kMaxRtClasses] = {};
  std::uint64_t drops_cls[kMaxRtClasses] = {};  ///< Ring-full, per class.
  /// Admission-gate sheds per class (policy decisions at ring-pop time),
  /// counted separately from the ring-full drops above; zero without a
  /// gate.  `drops`/`drops_cls` keep their historical meaning untouched.
  std::uint64_t sheds_cls[kMaxRtClasses] = {};
  std::uint64_t accepted[kMaxRtClasses] = {};   ///< Popped and admitted.
  std::uint64_t completed[kMaxRtClasses] = {};  ///< Post-warmup completions.
  std::uint64_t outstanding[kMaxRtClasses] = {};  ///< In shard, not done.
  double lambda_hat[kMaxRtClasses] = {};  ///< ADMITTED arrivals/sec.
  /// OFFERED arrivals/sec including gate sheds — what the controller feeds
  /// back into admission update() so gates see true demand.  Zero (and
  /// never estimated) without a gate.
  double offered_lambda[kMaxRtClasses] = {};
  double mean_slowdown[kMaxRtClasses] = {};     ///< Cumulative post-warmup.
  double window_slowdown[kMaxRtClasses] = {};   ///< Last closed window.
  double rate[kMaxRtClasses] = {};              ///< Current allocation.
  double mean_ingress_wait[kMaxRtClasses] = {};  ///< Produce -> pop latency.
};

/// Live distribution state, published through a second (larger) seqlock on
/// estimator-window rolls — throttled further by telemetry_publish_interval
/// because the payload is a few KB of histogram buckets.  All fields are
/// accumulated by the shard thread only; `accepted`/`completions` are
/// copied INTO the struct so a single seqlock read yields a coherent
/// (counter, histogram) pair — the exporter's consistency invariants
/// (slowdown[c].count == floor(completions[c] / sample_period),
/// ingress_wait[c].count == floor(accepted[c] / sample_period)) hold within
/// one snapshot even while the shard keeps running.  Unlike the report
/// path, these include warmup completions: live dashboards want to see the
/// warmup transient.
struct ShardTelemetry {
  double time = 0.0;
  std::uint32_t num_classes = 0;
  /// Distribution sampling period in effect (1 = every event); counters are
  /// always exact, so hist.count ~= counter / sample_period.
  std::uint32_t sample_period = 1;
  std::uint64_t accepted[kMaxRtClasses] = {};     ///< Popped from ingress.
  std::uint64_t completions[kMaxRtClasses] = {};  ///< Incl. warmup.
  obs::Log2Hist ingress_wait[kMaxRtClasses];  ///< Produce -> pop (seconds).
  obs::Log2Hist queue_delay[kMaxRtClasses];   ///< arrival -> service_start.
  obs::Log2Hist slowdown[kMaxRtClasses];      ///< delay / service time.
  obs::ProfSnap prof;                         ///< Shard-thread self timings.
};

struct ShardConfig {
  std::size_t num_classes = 2;
  double capacity = 1.0;       ///< Work units per second.
  double window = 0.05;        ///< Estimator/metrics window (seconds).
  std::size_t estimator_history = 5;
  double warmup = 0.0;         ///< Metrics warmup cutoff (seconds).
  std::size_t ingress_capacity = 1 << 14;
  std::vector<double> initial_rates;  ///< Empty = equal split.
  /// Collect live histograms + telemetry snapshots (obs layer).  Off by
  /// default: the hot paths then skip every update behind one branch.
  bool telemetry = false;
  /// Minimum seconds between telemetry seqlock publishes (the payload is
  /// ~11 KB; copying it every estimator window costs real throughput at
  /// high request rates).  Readers see a snapshot at most this stale.
  double telemetry_publish_interval = 0.5;
  /// Record every Nth event per class into the live/report histograms
  /// (counters stay exact).  Even a division-free histogram update costs a
  /// few ns per event — several per request blows the telemetry throughput
  /// budget — and slowdown/delay percentiles converge just as well from a
  /// deterministic 1-in-N subsample.  Must be a power of two: the sample
  /// test is then one AND against counters the hot path already
  /// increments, with no extra countdown state.  1 = record everything.
  std::uint32_t telemetry_sample_period = 32;
  /// Arm the scoped self-profiling timers (implies nothing about telemetry;
  /// only read when telemetry is on).
  bool profile = false;
  /// Record sampled request-lifecycle spans (obs/trace.hpp) into the SPSC
  /// span ring.  Off by default: every span hook then costs one AND+branch
  /// against an all-ones mask, exactly the telemetry idiom above.
  bool tracing = false;
  /// Trace every Nth request per class (power of two; the traced subset is
  /// a deterministic function of the per-class event ordinals).
  std::uint32_t trace_sample_period = 64;
  /// Span-ring capacity (rounded up to a power of two); a full ring drops
  /// the newest span and counts it.
  std::size_t span_ring_capacity = 1 << 12;
  /// This shard's index in the runtime — stamped into spans / trace ids.
  std::uint32_t shard_id = 0;
};

class Shard {
 public:
  /// A parked shard that expects a second request within this window
  /// sleeps through pushes due inside it.  The window trades ingress wait
  /// against wakes: at 100 us the total CPU per request, producers' wakes
  /// included, matches a 100-us sleep-poll's (src/rt/README.md).
  static constexpr Duration kWakeWindow = 100e-6;

  /// A park that a push landed in without ending it: the park's number
  /// (0 = none) and its wake time.
  struct CoalescedPark {
    std::uint32_t park = 0;
    Time wake_at = kInf;
  };

  Shard(const ShardConfig& cfg, Rng rng);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Producer side (any thread): enqueue a request whose `arrival` is its
  /// production wall time.  Returns false (and counts a drop) on a full ring.
  /// After a push it ends the shard's park when `arrival` reaches the
  /// published wake time; the stamp is at hand, so no clock is read.  A
  /// push that lands in a park without ending it writes that park to
  /// `*coalesced` (when given): the producer then owes its wake.
  bool submit(const Request& req, CoalescedPark* coalesced = nullptr);

  /// Shard thread only: drain(now), then park(now), until request_stop().
  void serve(const ClockVariant& clock);

  /// Any thread: end the current park, if any (the pre-tick pass).
  void wake();

  /// Any thread: end park number `park` if the shard is still in it; a
  /// later park of this shard is left alone (settling an owed wake).
  void end_park(std::uint32_t park);

  /// Any thread: make serve() return, waking the shard if it is parked.
  void request_stop();

  /// Any thread: true while the shard waits for a wake.
  bool parked() const {
    return park_.word.load(std::memory_order_acquire) != 0;
  }

  /// Shard thread only: advance the embedded simulator to `now`, submit the
  /// ingress backlog to the embedded server (the dedicated-rate backend
  /// holds each class to its rate), roll the estimator window, publish a
  /// fresh snapshot.  Returns requests popped.
  std::size_t drain(Time now);

  /// Controller thread: stage a new per-class rate vector; the shard adopts
  /// it at the start of its next drain.  `tick_seq` is the controller tick
  /// that produced the vector; requests admitted after adoption carry it in
  /// their spans, causally linking each span to the allocation that
  /// governed it.
  void apply_rates(const std::vector<double>& rates,
                   std::uint64_t tick_seq = 0);

  /// Setup time (before any producer/controller thread runs): install a
  /// pre-sim admission gate.  Shed requests are counted per class,
  /// separately from ring-full drops, and never reach the estimator or the
  /// embedded simulator.
  void set_admission(std::unique_ptr<AdmissionController> admission);

  /// Controller thread: stage fresh per-class OFFERED arrival-rate
  /// estimates for the gate; the shard calls admission->update() with them
  /// at the start of its next drain.  Same single-slot handoff discipline
  /// as apply_rates, so all gate state stays shard-thread-private.
  void stage_admission_update(const std::vector<double>& offered_lambda);

  /// Any thread, any time: consistent copy of the latest published state.
  ShardSnapshot snapshot() const { return snap_.read(); }

  /// Any thread: latest telemetry snapshot (all-zero unless cfg.telemetry).
  ShardTelemetry telemetry() const { return telem_snap_.read(); }

  /// Requests accepted by submit() and neither completed nor shed by the
  /// admission gate (any thread).
  std::uint64_t outstanding() const {
    const std::uint64_t pushed = pushed_.load(std::memory_order_acquire);
    const std::uint64_t done = done_.load(std::memory_order_acquire) +
                               shed_n_.load(std::memory_order_acquire);
    return pushed > done ? pushed - done : 0;
  }

  /// Admission-gate sheds, all classes (any thread).  Per-class counts are
  /// shard-thread-private; read them from snapshot().sheds_cls.
  std::uint64_t shed_total() const {
    return shed_n_.load(std::memory_order_acquire);
  }

  std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
      n += drops_cls_[c].get();
    }
    return n;
  }

  std::uint64_t dropped(ClassId cls) const { return drops_cls_[cls].get(); }

  /// Total completions including warmup (any thread).
  std::uint64_t completed_all() const {
    return done_.load(std::memory_order_acquire);
  }

  /// Final drain + metrics close.  Call after all producer/controller
  /// threads have stopped; single-threaded from here on.
  void finalize(Time now);

  /// Direct access for deterministic tests (no concurrent drains).
  const Server& server() const { return *server_; }
  const ShardConfig& config() const { return cfg_; }

  /// Fine-grained POST-WARMUP slowdown distributions (stats/histogram.hpp
  /// layout, one per class); empty unless cfg.telemetry.  Shard thread
  /// mutates them per completion, so read only after threads stopped (the
  /// report path, post finalize) or under a deterministic drive.
  const std::vector<LogHistogram>& slowdown_hists() const {
    return sd_hist_;
  }

  /// Self-profiling table (any thread may read a snap; the producer-side
  /// ring-push timer writes from any thread).
  obs::ProfTable& prof() { return prof_; }

  /// True when span tracing is armed (cfg.tracing).
  bool tracing() const { return span_ring_ != nullptr; }

  /// Exporter thread: drain the span ring (appends to `out`, returns count).
  std::size_t drain_spans(std::vector<obs::Span>& out) {
    return span_ring_ != nullptr ? span_ring_->drain(out) : 0;
  }

  /// Spans lost to a full ring (any thread).
  std::uint64_t spans_dropped() const {
    return span_ring_ != nullptr ? span_ring_->dropped() : 0;
  }

 private:
  /// A traced request between admission and completion: `ordinal` is its
  /// per-class accepted ordinal, which — the dedicated-rate backend being
  /// FIFO within a class — equals its completion ordinal, so the completion
  /// hook finds it by ordinal match instead of a per-request map.
  struct PendingTrace {
    std::uint64_t ordinal = 0;
    obs::Span span;
  };

  /// Shard thread: sleep until a producer, wake() or request_stop() ends
  /// the park; returns at once when the ring holds a request or a stop was
  /// requested.
  void park(Time now);

  void refresh_estimates();
  void publish(Time now);
  void publish_telemetry(Time now);

  // Span hooks (shard thread; each fires 1-in-trace_sample_period).
  void trace_shed(ClassId c, const Request& req, Time now);
  void trace_admit(ClassId c, const Request& req, Time now);
  void trace_complete(const Request& req);

  ShardConfig cfg_;
  Simulator sim_;
  std::unique_ptr<Server> server_;
  MpscQueue<Request> ingress_;
  LoadEstimator estimator_;
  Time next_roll_;
  std::vector<double> rates_;

  // Admission gate (shard-thread-owned after setup).  The offered-load
  // estimator exists only alongside a gate, so the admission-off pop loop
  // pays exactly one null-pointer branch.
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<LoadEstimator> offered_est_;
  std::vector<std::uint64_t> sheds_cls_;   ///< Shard-thread private.
  std::vector<double> offered_cache_;

  // Controller -> shard handoff (rarely contended; one exchange per tick).
  std::mutex pending_m_;
  std::vector<double> pending_rates_;
  std::uint64_t pending_tick_seq_ = 0;
  bool has_pending_ = false;
  std::vector<double> pending_offered_;
  bool has_pending_admission_ = false;

  // Cross-thread counters.  Drops are per class (any producer may reject
  // any class), each on its own cache line.
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> shed_n_{0};  ///< Shard thread writes, any reads.
  std::array<obs::Counter, kMaxRtClasses> drops_cls_;

  // Shard-thread-private statistics.
  std::vector<std::uint64_t> accepted_;
  std::vector<std::uint64_t> done_cls_;
  std::vector<MeanStat> ingress_wait_;
  std::vector<double> lambda_cache_;
  std::vector<double> window_sd_cache_;
  std::vector<std::uint64_t> window_seq_cache_;  ///< Coherent with the above.
  std::uint64_t drains_ = 0;
  /// Requests per second entering the ring, summed over classes (offered
  /// load under a gate, admitted otherwise); sets park()'s wake time.
  double ring_rate_ = 0.0;

  // Park handshake, on a cache line of its own: the shard writes it once
  // per park, producers read it after every push.  `word` holds the park's
  // number while the shard waits on it (numbers count parks and skip 0);
  // whoever swaps it back to 0 owes the futex wake.  `wake_at` is written
  // before `word` is set, so a producer that reads the word as a park's
  // number also reads the wake time of that park (or of a later one, whose
  // re-check of the ring then sees the producer's push).
  struct alignas(64) ParkLine {
    std::atomic<std::uint32_t> word{0};
    std::atomic<bool> stop{false};
    std::atomic<Time> wake_at{0.0};
    std::uint32_t last = 0;  ///< Number of the latest park (shard thread).
  };
  ParkLine park_;

  // Telemetry (shard-thread private accumulator + its own seqlock; the
  // payload is KBs, so it publishes on window rolls, not every drain).
  ShardTelemetry telem_;
  std::vector<LogHistogram> sd_hist_;  ///< Post-warmup, for report folds.
  obs::ProfTable prof_;
  Time last_telem_publish_ = 0.0;
  /// telemetry_sample_period - 1; an event is sampled into the histograms
  /// when (its per-class event ordinal & sample_mask_) == 0.
  std::uint64_t sample_mask_ = 0;

  // Request-lifecycle tracing (shard-thread private except the SPSC ring).
  // trace_mask_ follows the sample_mask_ idiom: all-ones when tracing is
  // off, so every span hook is one AND+branch that never fires.  The ring
  // and pending deques — like the telemetry histograms — are allocated
  // LAST in the ctor, so the heap layout does not shift with tracing.
  std::uint64_t trace_mask_ = ~std::uint64_t{0};
  std::uint64_t ctrl_tick_seq_ = 0;  ///< Adopted at the last rate handoff.
  std::vector<std::deque<PendingTrace>> pending_spans_;
  std::unique_ptr<obs::SpanRing> span_ring_;

  Seqlock<ShardSnapshot> snap_;
  Seqlock<ShardTelemetry> telem_snap_;
};

}  // namespace psd::rt
