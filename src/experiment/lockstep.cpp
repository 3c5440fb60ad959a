// Lockstep batch kernel: K replications of one eligible scenario in a
// single task (see lockstep.hpp for the contract, lane_stepper.hpp for the
// slot-order/tie-break reproduction argument).
//
// One kernel serves both eligible backends.  Lane state, draw blocks, the
// estimator roll + allocation, the metrics mirror and the result collection
// are shared; the backends differ only in their event loop and in how a
// reallocation tick applies the new rates.
//
// Dedicated rates: two-level drain.  Between reallocation ticks the
// dedicated-rate server's classes are independent: rates only change at
// ticks (or, under kFinishAtOldRate, to the tick-published pending value),
// and every other piece of state — queue, slot, draw block, metrics
// accumulators — is per-class.  So between ticks each class is the paper's
// FCFS task server at a constant rate, and the kernel exploits that:
//
//   1. drain_class() walks one (lane, class) pair's requests in FCFS order
//      by Lindley's recursion, D_k = max(A_k, D_{k-1}) + S_k / rate,
//      recording each departure strictly before the chunk boundary.  There
//      is no event selection at all: one max, one add, one divide and the
//      metric accumulation per request, every accumulator in a register,
//      and the ring touched only by requests still waiting at the boundary.
//   2. generic_drain() — the 5-slot first-minimum scan — then handles the
//      reallocation tick and any events tied exactly at the boundary
//      (cascades included), in full per-task slot order.
//
// Bitwise identity is preserved because the walk performs the per-task
// path's floating-point operations in its per-class order (the per-task
// event order projected onto that class), and cross-class event order
// only ever influences the request-record vector — so when request
// recording is on, step_lane() takes the generic scan for the whole run.
//
// SFQ: one shared processor couples the classes through its virtual time,
// so there is no per-class burst.  sfq_drain() runs each lane's events one
// at a time through the shared arrive/complete/tick steps, with the
// SfqBackend mirror (per-class rings behind one tagged head-of-line entry,
// minimum-start-tag dispatch, non-preemptive service at full capacity) in
// place of the task servers; a tick only refreshes the tag weights.
//
// The hot-path collaborators (WaitingQueue, MetricsCollector,
// LoadEstimator) are mirrored inline rather than called: same state, same
// statement order, same floating-point arithmetic — the mirrors exist so
// the accumulators can live in registers inside drain_class().  Quantities
// a mirror tracks that RunResult never reads (queue occupancy stats, the
// service-time mean, the estimator's work sums) are dropped; everything
// RunResult reads is op-for-op identical.  The equivalence tests in
// tests/test_lockstep.cpp pin all of this against run_scenario bit for bit.
#include "experiment/lockstep.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "dist/lane_block.hpp"
#include "experiment/scenario_build.hpp"
#include "server/allocator.hpp"
#include "server/metrics.hpp"
#include "sim/lane_stepper.hpp"
#include "stats/online.hpp"
#include "workload/generator.hpp"

namespace psd {

// Equal block lengths put the kernel's refills on the generator's draw
// boundaries, so each (lane, class) stream consumes its Rng identically.
static_assert(LaneDrawBlocks::kBatch == RequestGenerator::kBatch);

bool lockstep_eligible(const ScenarioConfig& cfg) {
  // Admission gates hook Server::submit (shed bookkeeping the kernel's
  // per-class mirrors don't reproduce), so gated configs take the per-lane
  // fallback path.
  return cfg.cluster_nodes == 1 && !cfg.admission.active() &&
         (cfg.backend == BackendKind::kDedicated ||
          cfg.backend == BackendKind::kSfq);
}

namespace {

// Same rate floor as sched/dedicated_rate.cpp (a paused class must keep a
// finite completion time) and sched/sfq.cpp (its tag weight floor).
constexpr double kMinRate = 1e-9;

/// A waiting request carries only what service assignment needs; the
/// service-time fields are filled in at pop.  (WaitingQueue's occupancy
/// statistics are not part of RunResult, so a stat-free ring is
/// bitwise-equivalent.)
struct QEntry {
  RequestId id;
  Time arrival;
  Work size;
};

/// Power-of-two FCFS ring, same storage discipline as WaitingQueue.
struct Ring {
  std::vector<QEntry> buf;
  std::uint64_t head = 0, tail = 0, mask = 0;

  bool empty() const { return head == tail; }
  void push(const QEntry& r) {
    if (tail - head == buf.size()) grow();
    buf[tail & mask] = r;
    ++tail;
  }
  const QEntry& pop_front() {
    const QEntry& r = buf[head & mask];
    ++head;
    return r;
  }
  void grow() {
    const std::size_t n = static_cast<std::size_t>(tail - head);
    std::vector<QEntry> next(buf.empty() ? 16 : buf.size() * 2);
    for (std::size_t i = 0; i < n; ++i) next[i] = buf[(head + i) & mask];
    buf = std::move(next);
    mask = buf.size() - 1;
    head = 0;
    tail = n;
  }
};

/// Inline mirror of IntervalSeries: same state, same roll arithmetic
/// (stats/interval_series.cpp), so window records match bit for bit.
struct SeriesMirror {
  Time current_start = 0.0;
  Duration window = 1.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  std::vector<IntervalStat> windows;

  void add(Time t, double v) {
    if (t < current_start) t = current_start;  // clamp clock jitter
    while (t >= current_start + window) close_window();
    ++count;
    sum += v;
    max = std::max(max, v);
  }
  void close_window() {
    IntervalStat s;
    s.start = current_start;
    s.count = count;
    s.mean = count ? sum / static_cast<double>(count) : 0.0;
    s.max = count ? max : 0.0;
    windows.push_back(s);
    current_start += window;
    count = 0;
    sum = 0.0;
    max = 0.0;
  }
  void finalize() {
    if (count > 0) {
      IntervalStat s;
      s.start = current_start;
      s.count = count;
      s.mean = sum / static_cast<double>(count);
      s.max = max;
      windows.push_back(s);
    }
  }
};

/// One archived estimator window (LoadEstimator::WindowCounters mirror,
/// arrival counts only: the work sums never reach the allocator).
struct EstWindow {
  std::vector<std::uint64_t> arrivals;
  Duration length = 0.0;
};

/// All mutable state of one replication lane.
struct Lane {
  /// One server: a class's dedicated task server, or the SFQ processor.
  struct Slot {
    Request current;
    Work remaining = 0.0;
    Time last_settle = 0.0;
    bool busy = false;
  };

  std::vector<Rng> gen_rng;              ///< One per class (run_rng.fork(i)).
  std::vector<ArrivalVariant> arrivals;  ///< Value copies of the prototypes.
  std::vector<std::uint64_t> gen_count;  ///< Requests generated per class.
  std::vector<Ring> queues;
  std::vector<Slot> slots;  ///< n task servers, or one SFQ processor.

  // SfqBackend mirror (SFQ lanes only): each class's tagged head-of-line
  // entry sits in front of its ring; a start tag of kInf means none is
  // tagged (real tags are finite).
  std::vector<QEntry> hol;
  std::vector<double> hol_tag;
  std::vector<double> last_finish;  ///< F_c per class.
  double vtime = 0.0;               ///< Start tag of the request in service.
  // Whether the pending completion was scheduled before the pending tick:
  // at equal times EventQueue fires the earlier-scheduled one first.  A
  // dispatch schedules its completion after the pending tick (the first
  // tick is scheduled at Server::start); a tick schedules the next one
  // after the pending completion.
  bool done_scheduled_first = false;

  // MetricsCollector mirror: the whole-run accumulators RunResult reads +
  // per-window series.
  std::vector<MeanStat> m_slowdown, m_delay;
  std::vector<SeriesMirror> series;
  std::vector<Request> records;

  // LoadEstimator mirror: only the count-based lambda estimate (integer
  // counts / window length) ever reaches the allocator or RunResult.
  Time est_window_start = 0.0;
  std::vector<std::uint64_t> est_arrivals;
  std::deque<EstWindow> est_closed;

  std::unique_ptr<RateAllocator> allocator;
  std::vector<double> rates;
  std::vector<double> pending_rates;  ///< kFinishAtOldRate adoption buffer.
  std::uint64_t submitted = 0;
  std::uint64_t reallocs = 0;

  Lane(const ServerConfig& sc, std::size_t n, bool sfq)
      : gen_count(n, 0),
        queues(n),
        slots(sfq ? 1 : n),
        m_slowdown(n),
        m_delay(n),
        series(n),
        est_arrivals(n, 0) {
    for (auto& s : series) {
      s.current_start = sc.metrics.warmup_end;
      s.window = sc.metrics.window;
    }
    if (sfq) {
      hol.resize(n);
      hol_tag.assign(n, kInf);
      last_finish.assign(n, 0.0);
    }
  }

  /// LoadEstimator::lambda_estimate, mirrored.
  std::vector<double> lambda_estimate(std::size_t n) const {
    std::vector<double> est(n, 0.0);
    if (est_closed.empty()) return est;
    Duration total_time = 0.0;
    std::vector<double> counts(n, 0.0);
    for (const auto& w : est_closed) {
      total_time += w.length;
      for (std::size_t i = 0; i < n; ++i) {
        counts[i] += static_cast<double>(w.arrivals[i]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) est[i] = counts[i] / total_time;
    return est;
  }

  /// MetricsCollector::last_window_slowdowns, mirrored.
  std::vector<double> last_window_slowdowns(std::size_t n) const {
    std::vector<double> out(n, kNaN);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& w = series[i].windows;
      if (!w.empty() && w.back().count > 0) out[i] = w.back().mean;
    }
    return out;
  }
};

/// The lane-stepped replication kernel for eligible (single-node, dedicated
/// or SFQ, ungated) scenarios.  Slot layout per lane (see lane_stepper.hpp
/// for how it reproduces the per-task tie-break order):
///   [0]        reallocation tick (a heap event in the per-task path),
///   [1..n]     per-class arrival streams (tie rank 0),
///   [n+1..2n]  dedicated: per-class completion streams (tie rank 1);
///   [n+1]      SFQ: the processor's completion (a heap event).
class LockstepKernel {
 public:
  LockstepKernel(const ScenarioConfig& cfg, std::uint64_t first_run_index,
                 std::size_t lanes)
      : cfg_(cfg),
        dist_(make_sampler(cfg.size_dist)),
        unit_(dist_.mean() / cfg.capacity),
        n_(cfg.num_classes()),
        sc_(detail::node_server_config(cfg, unit_)),
        realloc_on_(sc_.realloc_period > 0.0),
        sfq_(cfg.backend == BackendKind::kSfq),
        finish_at_old_(!sfq_ &&
                       cfg.rate_change == RateChangePolicy::kFinishAtOldRate),
        clocks_(lanes, 1 + n_ + (sfq_ ? 1 : n_)),
        blocks_(lanes, n_) {
    // Shared immutable tables: one sampler (ziggurat/alias data shared by
    // every lane through its value copy) and one arrival prototype per
    // class; a lane's arrival process is a plain value copy carrying the
    // prototype's initial phase state.
    const auto lambdas = cfg.true_lambdas();
    std::vector<ArrivalVariant> protos;
    protos.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      protos.push_back(detail::scenario_arrivals(cfg, lambdas[i], unit_));
    }

    lanes_.reserve(lanes);
    Rng master(cfg.seed);
    for (std::size_t l = 0; l < lanes; ++l) {
      // Same stream derivation as run_scenario: run_rng = master.fork(index),
      // generator i draws from run_rng.fork(i).  (The per-task path also
      // forks index 1000 for the server; neither eligible backend uses it,
      // and fork() is const, so skipping it changes nothing.)
      const Rng run_rng = master.fork(first_run_index + l);
      Lane lane(sc_, n_, sfq_);
      for (std::size_t i = 0; i < n_; ++i) {
        lane.gen_rng.push_back(run_rng.fork(i));
      }
      lane.arrivals = protos;
      lane.allocator = detail::make_scenario_allocator(cfg, dist_.mean());
      // Server ctor: equal initial split, pushed through set_rates — which
      // under kFinishAtOldRate also primes the pending vector.
      lane.rates.assign(n_, cfg.capacity / static_cast<double>(n_));
      if (finish_at_old_) {
        lane.pending_rates = lane.rates;
      }
      lanes_.push_back(std::move(lane));

      // Completion slots keep the grid's initial kInf until service starts.
      Time* clocks = clocks_.lane(l);
      clocks[0] = realloc_on_ ? sc_.realloc_period : kInf;  // origin 0.0
      for (std::size_t i = 0; i < n_; ++i) {
        // RequestGenerator::start(0.0): first arrival one gap after origin.
        clocks[1 + i] = 0.0 + next_gap(l, i);
      }
    }
  }

  std::vector<RunResult> run() {
    const Time horizon = (cfg_.warmup_tu + cfg_.measure_tu) * unit_;
    // Chunk granularity: one control window when the reallocation loop is
    // on (every lane crosses each window together, so estimator/allocator
    // work interleaves identically across lanes), else a fixed split.
    const Duration chunk =
        realloc_on_ ? sc_.realloc_period : horizon / 64.0;
    clocks_.run_lockstep(horizon, chunk, [this](std::size_t l, Time limit) {
      step_lane(l, limit);
    });

    std::vector<RunResult> out;
    out.reserve(lanes_.size());
    for (Lane& lane : lanes_) {
      for (auto& s : lane.series) s.finalize();
      out.push_back(collect(lane));
    }
    return out;
  }

 private:
  /// Buffered next interarrival gap for (lane, class) — the generator's
  /// next_gap(): refill on block exhaustion, read without consuming.
  double next_gap(std::size_t l, std::size_t cls) {
    if (blocks_.cursor(l, cls) == LaneDrawBlocks::kBatch) {
      blocks_.refill(l, cls, lanes_[l].arrivals[cls], dist_,
                     lanes_[l].gen_rng[cls]);
    }
    return blocks_.gap_slice(l, cls)[blocks_.cursor(l, cls)];
  }

  void step_lane(std::size_t l, Time limit) {
    if (sfq_) {
      sfq_drain(l, limit);
      return;
    }
    // Request records are the one output ordered by cross-class completion
    // time; burst-draining classes one at a time would reorder them, so a
    // recording run takes the generic scan throughout.
    if (!sc_.metrics.record_requests) {
      for (std::size_t c = 0; c < n_; ++c) drain_class(l, c, limit);
    }
    generic_drain(l, limit);
  }

  /// Burst-drain one (lane, class) pair's events with fire time strictly
  /// before `T` (the chunk boundary = next tick time) by Lindley's
  /// recursion.  Between ticks the class is a FCFS server at a constant
  /// rate, so in FCFS order — the request in service, then the ring, then
  /// new arrivals before T — request k starts at max(A_k, D_{k-1}) and
  /// departs at start + S_k / rate.  Each departure before T is recorded in
  /// that order; the first one at T or later stays in service and every
  /// later arrival before T queues.  This is the per-task event order
  /// projected onto the class (arrivals beat completions at equal times,
  /// so an arrival at D_{k-1} queues and starts at D_{k-1} = max(A_k,
  /// D_{k-1}) either way), with the same floating-point operations in the
  /// same per-class order: no state this loop touches is shared across
  /// classes.  Events tied exactly at T are left to generic_drain, which
  /// fires them after the tick in full slot order.
  void drain_class(std::size_t l, std::size_t c, Time T) {
    Time* clocks = clocks_.lane(l);
    Time arr_t = clocks[1 + c];
    Time comp_t = clocks[1 + n_ + c];
    if (!(arr_t < T) && !(comp_t < T)) return;

    Lane& lane = lanes_[l];
    Lane::Slot& slot = lane.slots[c];
    Ring& ring = lane.queues[c];
    // Between ticks the class rate is constant except for the one-shot
    // pending-rate adoption a completion performs under kFinishAtOldRate.
    double rate = lane.rates[c];
    const bool fin = finish_at_old_ && !lane.pending_rates.empty();
    const double pending_c = fin ? lane.pending_rates[c] : 0.0;

    std::uint32_t cursor = blocks_.cursor(l, c);
    const double* gaps = blocks_.gap_slice(l, c);
    const double* sizes = blocks_.size_slice(l, c);
    const std::uint64_t gen0 = lane.gen_count[c];
    std::uint64_t gen = gen0;
    const RequestId id_hi = static_cast<RequestId>(c) << 48;

    MeanStat sd_stat = lane.m_slowdown[c];
    MeanStat dl_stat = lane.m_delay[c];
    SeriesMirror& series = lane.series[c];
    Time win_start = series.current_start;
    const Duration win_len = series.window;
    std::uint64_t win_count = series.count;
    double win_sum = series.sum;
    double win_max = series.max;
    const Time warmup_end = sc_.metrics.warmup_end;

    // RequestGenerator::arrive: the next arrival with its size, and the
    // arrival clock advanced by the next buffered gap.
    const auto next_arrival = [&]() -> QEntry {
      const QEntry e{id_hi | gen, arr_t, sizes[cursor]};
      ++gen;
      ++cursor;
      if (cursor == LaneDrawBlocks::kBatch) {
        blocks_.refill(l, c, lane.arrivals[c], dist_, lane.gen_rng[c]);
        cursor = 0;
      }
      arr_t = e.arrival + gaps[cursor];
      return e;
    };
    // DedicatedRateBackend::complete + MetricsCollector::on_complete,
    // register-resident.
    const auto finish = [&](Time t, Time start, Time arrival) {
      const Duration service_elapsed = t - start;
      if (fin) rate = pending_c;
      if (t >= warmup_end) {
        const Duration delay = start - arrival;
        const double sd = delay / service_elapsed;
        sd_stat.add(sd);
        dl_stat.add(delay);
        Time tt = t;
        if (tt < win_start) tt = win_start;
        while (tt >= win_start + win_len) {  // IntervalSeries::roll_to
          IntervalStat s;
          s.start = win_start;
          s.count = win_count;
          s.mean = win_count
                       ? win_sum / static_cast<double>(win_count)
                       : 0.0;
          s.max = win_count ? win_max : 0.0;
          series.windows.push_back(s);
          win_start += win_len;
          win_count = 0;
          win_sum = 0.0;
          win_max = 0.0;
        }
        ++win_count;
        win_sum += sd;
        win_max = std::max(win_max, sd);
      }
    };

    // D_{k-1}: the previous departure (-inf while the server is idle, so
    // an arrival starts at its own time).
    Time D = -kInf;
    // One Lindley step: serve `e` after D.  Returns true when it departs at
    // or after T — it is then the request in service at the boundary.
    const auto serve = [&](const QEntry& e) -> bool {
      const Time start = std::max(e.arrival, D);
      const Time done = start + e.size / std::max(rate, kMinRate);
      if (!(done < T)) {
        slot.current.id = e.id;
        slot.current.cls = static_cast<ClassId>(c);
        slot.current.arrival = e.arrival;
        slot.current.size = e.size;
        slot.current.service_start = start;
        slot.remaining = e.size;
        slot.last_settle = start;
        comp_t = done;
        return true;
      }
      finish(done, start, e.arrival);
      D = done;
      return false;
    };

    bool busy = slot.busy;
    if (busy && comp_t < T) {
      finish(comp_t, slot.current.service_start, slot.current.arrival);
      D = comp_t;
      busy = false;
      while (!busy && !ring.empty()) busy = serve(ring.pop_front());
    }
    while (!busy && arr_t < T) busy = serve(next_arrival());
    // The server is busy past T: the remaining arrivals before T queue.
    while (arr_t < T) ring.push(next_arrival());

    if (!busy) {
      slot.remaining = 0.0;
      comp_t = kInf;
    }
    slot.busy = busy;
    clocks[1 + c] = arr_t;
    clocks[1 + n_ + c] = comp_t;
    lane.rates[c] = rate;
    blocks_.cursor(l, c) = cursor;
    lane.gen_count[c] = gen;
    lane.submitted += gen - gen0;
    if (realloc_on_) lane.est_arrivals[c] += gen - gen0;
    lane.m_slowdown[c] = sd_stat;
    lane.m_delay[c] = dl_stat;
    series.current_start = win_start;
    series.count = win_count;
    series.sum = win_sum;
    series.max = win_max;
  }

  /// Drain one dedicated lane's remaining events with fire_time <= limit in
  /// full per-task order: earliest time first, slot index breaking ties.
  /// After the burst drains this fires the reallocation tick and any
  /// boundary ties; with request recording on it carries the whole run.
  void generic_drain(std::size_t l, Time limit) {
    Time* clocks = clocks_.lane(l);
    Lane& lane = lanes_[l];
    const std::size_t slots = 2 * n_ + 1;
    for (;;) {
      const std::size_t s = LaneClockGrid::next_slot(clocks, slots);
      const Time t = clocks[s];
      if (!(t <= limit)) return;
      if (s == 0) {
        realloc_tick(lane, clocks, t);
      } else if (s <= n_) {
        arrive(l, lane, clocks, s - 1, t);
      } else {
        complete(lane, clocks, s - 1 - n_, t);
      }
    }
  }

  /// The SFQ lane's event loop: events with fire_time <= limit in
  /// Simulator::run_until's order.  The tick [0] and the completion [n+1]
  /// are heap events: both fire before arrival streams at equal times, and
  /// between themselves in schedule order.  Arrivals are rank-0 streams,
  /// so the lowest class wins their ties.
  void sfq_drain(std::size_t l, Time limit) {
    Time* clocks = clocks_.lane(l);
    Lane& lane = lanes_[l];
    for (;;) {
      const Time tick_t = clocks[0];
      const Time done_t = clocks[1 + n_];
      const bool done_first =
          done_t < tick_t ||
          (done_t == tick_t && lane.done_scheduled_first);
      const Time heap_t = done_first ? done_t : tick_t;
      const std::size_t cls = LaneClockGrid::next_slot(clocks + 1, n_);
      const Time arr_t = clocks[1 + cls];
      if (arr_t < heap_t) {
        if (!(arr_t <= limit)) return;
        arrive(l, lane, clocks, cls, arr_t);
      } else if (!(heap_t <= limit)) {
        return;
      } else if (done_first) {
        complete(lane, clocks, 0, heap_t);
      } else {
        realloc_tick(lane, clocks, heap_t);
      }
    }
  }

  /// RequestGenerator::arrive + Server::submit, flattened, then the
  /// backend's notify_arrival.  When a dedicated task server is idle its
  /// queue is empty (the backend starts service immediately on arrival), so
  /// the push/pop ring round-trip is pure bookkeeping — the kernel starts
  /// service on the arriving request directly; queue-internal occupancy
  /// stats are not part of RunResult.
  void arrive(std::size_t l, Lane& lane, Time* clocks, std::size_t cls,
              Time t) {
    auto& cursor = blocks_.cursor(l, cls);
    const QEntry req{(static_cast<RequestId>(cls) << 48) | lane.gen_count[cls],
                     t, blocks_.size_slice(l, cls)[cursor]};
    ++cursor;
    ++lane.gen_count[cls];

    ++lane.submitted;
    if (realloc_on_) ++lane.est_arrivals[cls];
    if (sfq_) {
      sfq_arrive(lane, clocks, cls, req, t);
    } else if (lane.slots[cls].busy) {
      lane.queues[cls].push(req);
    } else {
      start_service(lane, clocks, cls, cls, req, t);
    }
    clocks[1 + cls] = t + next_gap(l, cls);
  }

  /// DedicatedRateBackend::complete or SfqBackend::complete on server `s`,
  /// flattened, followed by the backend's next service start.
  void complete(Lane& lane, Time* clocks, std::size_t s, Time t) {
    Lane::Slot& slot = lane.slots[s];
    PSD_CHECK(slot.busy, "completion for idle lane slot");
    Request done = slot.current;
    done.departure = t;
    done.service_elapsed = t - done.service_start;
    slot.busy = false;
    slot.remaining = 0.0;
    if (finish_at_old_ && !lane.pending_rates.empty()) {
      lane.rates[s] = lane.pending_rates[s];
    }
    on_complete(lane, done);
    if (sfq_) {
      sfq_dispatch(lane, clocks, t);
    } else if (!lane.queues[s].empty()) {
      const QEntry e = lane.queues[s].pop_front();
      start_service(lane, clocks, s, s, e, t);
    } else {
      clocks[1 + n_ + s] = kInf;
    }
  }

  /// Start serving `e` (class `cls`) on server `s` and schedule its
  /// completion: at the class rate on a dedicated task server, at full
  /// capacity on the SFQ processor (SfqBackend::dispatch's after_fast, a
  /// heap event scheduled after the pending tick).
  void start_service(Lane& lane, Time* clocks, std::size_t s,
                     std::size_t cls, const QEntry& e, Time t) {
    Lane::Slot& slot = lane.slots[s];
    slot.current.id = e.id;
    slot.current.cls = static_cast<ClassId>(cls);
    slot.current.arrival = e.arrival;
    slot.current.size = e.size;
    slot.current.service_start = t;
    slot.remaining = e.size;
    slot.last_settle = t;
    slot.busy = true;
    if (sfq_) {
      clocks[1 + n_] = t + e.size / cfg_.capacity;
      lane.done_scheduled_first = false;
    } else {
      schedule_completion(lane, clocks, s, t);
    }
  }

  /// SfqBackend::notify_arrival: a class with no tagged head of line has
  /// an empty ring (every dispatch promotes the next queued request), so
  /// the arrival is tagged at once; otherwise it queues.  An idle processor
  /// dispatches immediately.
  void sfq_arrive(Lane& lane, Time* clocks, std::size_t cls, const QEntry& e,
                  Time t) {
    if (lane.hol_tag[cls] == kInf) {
      sfq_tag(lane, cls, e);
    } else {
      lane.queues[cls].push(e);
    }
    if (!lane.slots[0].busy) sfq_dispatch(lane, clocks, t);
  }

  /// Tag `e` as class `cls`'s head of line: start tag S = max(V, F_c),
  /// finish tag F_c = S + size / w_c with SfqBackend's weight floor.
  void sfq_tag(Lane& lane, std::size_t cls, const QEntry& e) {
    const double start = std::max(lane.vtime, lane.last_finish[cls]);
    lane.last_finish[cls] =
        start + e.size / std::max(lane.rates[cls], kMinRate);
    lane.hol[cls] = e;
    lane.hol_tag[cls] = start;
  }

  /// SfqBackend::dispatch: serve the head of line with the minimum start
  /// tag (lowest class on ties), promote that class's next queued request,
  /// or go idle when nothing is tagged.
  void sfq_dispatch(Lane& lane, Time* clocks, Time t) {
    std::size_t best = n_;
    double best_tag = kInf;
    for (std::size_t c = 0; c < n_; ++c) {
      if (lane.hol_tag[c] < best_tag) {
        best = c;
        best_tag = lane.hol_tag[c];
      }
    }
    if (best == n_) {
      clocks[1 + n_] = kInf;
      return;
    }
    const QEntry e = lane.hol[best];
    lane.hol_tag[best] = kInf;
    lane.vtime = best_tag;
    if (!lane.queues[best].empty()) {
      sfq_tag(lane, best, lane.queues[best].pop_front());
    }
    start_service(lane, clocks, 0, best, e, t);
  }

  /// MetricsCollector::on_complete, mirrored (same statement order).
  void on_complete(Lane& lane, const Request& req) {
    if (req.departure < sc_.metrics.warmup_end) return;
    const double sd = req.slowdown();
    lane.m_slowdown[req.cls].add(sd);
    lane.m_delay[req.cls].add(req.delay());
    lane.series[req.cls].add(req.departure, sd);
    if (sc_.metrics.record_requests &&
        req.departure >= sc_.metrics.record_from &&
        req.departure < sc_.metrics.record_to) {
      lane.records.push_back(req);
    }
  }

  /// Server::realloc_tick + the backend's set_rates, flattened — same
  /// statement order, so the floating-point settle/reschedule arithmetic
  /// matches the per-task path operation for operation.
  void realloc_tick(Lane& lane, Time* clocks, Time t) {
    // LoadEstimator::roll, mirrored.
    {
      const Duration len = t - lane.est_window_start;
      PSD_REQUIRE(len > 0.0, "roll() before any time elapsed");
      EstWindow w;
      w.arrivals = lane.est_arrivals;
      w.length = len;
      lane.est_closed.push_back(std::move(w));
      while (lane.est_closed.size() > sc_.estimator_history) {
        lane.est_closed.pop_front();
      }
      lane.est_arrivals.assign(n_, 0);
      lane.est_window_start = t;
    }
    lane.allocator->observe_slowdowns(lane.last_window_slowdowns(n_));
    std::vector<double> next =
        lane.allocator->allocate(lane.lambda_estimate(n_));
    PSD_CHECK(next.size() == n_, "allocator size mismatch");
    if (sfq_) {
      // SfqBackend::set_rates: the rates weight later tags only; the head
      // of line and the request in service keep theirs.
      lane.rates = std::move(next);
    } else if (finish_at_old_) {
      // Idle classes adopt immediately; busy ones at their next completion.
      lane.pending_rates = next;
      for (std::size_t cls = 0; cls < n_; ++cls) {
        if (!lane.slots[cls].busy) lane.rates[cls] = next[cls];
      }
    } else {  // kRescaleRemaining
      for (std::size_t cls = 0; cls < n_; ++cls) {
        Lane::Slot& slot = lane.slots[cls];
        if (slot.busy) {  // settle remaining work at the old rate
          slot.remaining -= (t - slot.last_settle) * lane.rates[cls];
          if (slot.remaining < 0.0) slot.remaining = 0.0;
          slot.last_settle = t;
        }
        lane.rates[cls] = next[cls];
        if (slot.busy) schedule_completion(lane, clocks, cls, t);
      }
    }
    ++lane.reallocs;
    // PeriodicProcess::fire schedules the next tick after the tick body.
    clocks[0] = t + sc_.realloc_period;
    lane.done_scheduled_first = true;
  }

  void schedule_completion(Lane& lane, Time* clocks, std::size_t cls,
                           Time t) {
    const double rate = std::max(lane.rates[cls], kMinRate);
    clocks[1 + n_ + cls] = t + lane.slots[cls].remaining / rate;
  }

  /// The per-task runner's collect block, per lane.
  RunResult collect(const Lane& lane) const {
    RunResult out;
    out.time_unit = unit_;
    out.submitted = lane.submitted;
    out.reallocations = lane.reallocs;
    {
      // MetricsCollector::system_slowdown, mirrored.
      WeightedMean wm;
      for (std::size_t i = 0; i < n_; ++i) {
        if (lane.m_slowdown[i].count() > 0) {
          wm.add(lane.m_slowdown[i].mean(),
                 static_cast<double>(lane.m_slowdown[i].count()));
        }
      }
      out.system_slowdown = wm.mean();
    }
    out.records = lane.records;
    out.cls.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      out.cls[i].mean_slowdown = lane.m_slowdown[i].mean();
      out.cls[i].mean_delay = lane.m_delay[i].mean();
      out.cls[i].completed = lane.m_slowdown[i].count();
      out.cls[i].windows = lane.series[i].windows;
    }
    out.settle_tu = detail::settle_times(cfg_, out);
    return out;
  }

  const ScenarioConfig& cfg_;
  const SamplerVariant dist_;
  const double unit_;
  const std::size_t n_;
  const ServerConfig sc_;
  const bool realloc_on_;
  const bool sfq_;
  const bool finish_at_old_;
  LaneClockGrid clocks_;
  LaneDrawBlocks blocks_;
  std::vector<Lane> lanes_;
};

}  // namespace

std::vector<RunResult> run_scenario_lanes(const ScenarioConfig& cfg,
                                          std::uint64_t first_run_index,
                                          std::size_t lanes) {
  PSD_REQUIRE(lanes > 0, "need at least one lane");
  cfg.validate();
  if (!lockstep_eligible(cfg)) {
    // Backends without a lane-stepped specialization run each lane through
    // the regular per-task path (still one task for the whole group).
    std::vector<RunResult> out;
    out.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      out.push_back(run_scenario(cfg, first_run_index + l));
    }
    return out;
  }
  return LockstepKernel(cfg, first_run_index, lanes).run();
}

}  // namespace psd
