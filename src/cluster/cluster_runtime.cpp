#include "cluster/cluster_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "cluster/dispatcher.hpp"
#include "dist/sampler.hpp"

namespace psd::rt {

void ClusterRtConfig::validate() const {
  node.validate();
  PSD_REQUIRE(nodes >= 1 && nodes <= 64, "cluster needs 1..64 nodes");
  assignment.validate();
  PSD_REQUIRE(rebalance_period > 0.0, "rebalance period must be positive");
  if (assignment.policy == AssignmentPolicy::kSizeInterval) {
    // SITA-E cutoffs partition the size distribution's support into
    // equal-work bands, which the closed form below only knows how to do
    // for the paper's bounded-Pareto workload.
    PSD_REQUIRE(node.size_dist.kind == DistSpec::Kind::kBoundedPareto,
                "SITA-E cutoffs require a bounded-pareto size distribution");
  }
  if (kill_at >= 0.0) {
    PSD_REQUIRE(nodes >= 2, "cannot kill a node of a 1-node cluster");
    PSD_REQUIRE(kill_node < nodes, "kill node out of range");
    PSD_REQUIRE(kill_at > 0.0 && kill_at < node.duration,
                "kill time must fall inside the run");
  }
}

ClusterRuntime::ClusterRuntime(ClusterRtConfig cfg, ClockVariant clock)
    : cfg_(std::move(cfg)),
      clock_(std::move(clock)),
      next_rebalance_(cfg_.rebalance_period) {
  cfg_.validate();

  // Nodes: embedded runtimes with RATE-LESS controllers — node ticks still
  // publish controller snapshots and stage admission updates, but the
  // global controller is the single rate writer.  The node template's
  // allocator field selects the GLOBAL allocator instead.
  RtConfig nc = cfg_.node;
  const AllocatorKind global_alloc = nc.allocator;
  nc.allocator = AllocatorKind::kNone;
  nodes_.reserve(cfg_.nodes);
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    // Distinct per-node seeds (shard RNG forks diverge per node) derived
    // deterministically from the template seed.
    SplitMix64 sm(cfg_.node.seed + 0x9E3779B97F4A7C15ULL * (i + 1));
    nc.seed = sm.next();
    nodes_.push_back(std::make_unique<Runtime>(nc, clock_, EmbeddedTag{}));
  }
  handles_.reserve(cfg_.nodes);
  for (auto& node : nodes_) handles_.emplace_back(*node);

  // Router: the same assignment implementation the simulation validates.
  // SITA-E cutoffs are precomputed once from the size distribution.
  Rng master(cfg_.node.seed);
  std::vector<double> cutoffs;
  if (cfg_.assignment.policy == AssignmentPolicy::kSizeInterval) {
    const BoundedParetoSampler bp(cfg_.node.size_dist.a, cfg_.node.size_dist.b,
                                  cfg_.node.size_dist.c);
    cutoffs = sita_equal_load_cutoffs(bp, cfg_.nodes);
  }
  router_.emplace(cfg_.assignment, cfg_.nodes, master.fork(8000),
                  std::move(cutoffs));

  // The global controller: the node controller's loop over one shard group
  // per node, at the allocator the template names, with no admission
  // staging (node controllers stage their own gates) and no trace.
  ControllerConfig gc;
  gc.delta = cfg_.node.delta;
  gc.group_capacity =
      cfg_.node.shard_capacity() * static_cast<double>(cfg_.node.shards);
  gc.mean_size = make_sampler(cfg_.node.size_dist).mean();
  gc.allocator = global_alloc;
  gc.adaptive = cfg_.node.adaptive;
  gc.rho_max = cfg_.node.rho_max;
  gc.min_residual_share = cfg_.node.min_residual_share;
  std::vector<std::vector<Shard*>> groups;
  for (const auto& node : nodes_) groups.push_back(node->shard_ptrs());
  global_ = std::make_unique<Controller>(std::move(gc), std::move(groups));

  // Load sources: the single-node Runtime's, except per-class rates scale
  // with the node count (cfg.node.load is per-SHARD utilization,
  // cluster-wide) and every produced request lands in dispatch() via the
  // sink instead of being sprayed over local shards.
  gens_ = make_synthetic_sources(
      cfg_.node,
      static_cast<double>(cfg_.nodes) /
          static_cast<double>(cfg_.node.loadgens),
      {}, [this](const Request& req) { dispatch(req); });

  load_signal_.assign(cfg_.nodes, 0.0);
  dispatched_.assign(cfg_.nodes, 0);

  if (!cfg_.stats_path.empty()) {
    stats_ = std::make_unique<obs::ClusterStatsLog>(
        cfg_.stats_path, cfg_.nodes, cfg_.num_classes(),
        cfg_.assignment.name());
  }
}

void ClusterRuntime::dispatch(const Request& req) {
  std::lock_guard<std::mutex> lock(dispatch_m_);
  // Timing only on the wall clock: steady_clock reads under a ManualClock
  // would cost nothing semantically but break bitwise determinism of the
  // report, which the tests rely on.
  const bool timed = !clock_.is_manual();
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();
  const AssignmentPolicy policy = cfg_.assignment.policy;
  if (policy == AssignmentPolicy::kLeastWorkLeft ||
      policy == AssignmentPolicy::kJsq) {
    // The rt load signal is outstanding REQUESTS per node (accepted, not
    // yet completed) — the queue-length analogue of the simulator's
    // work-left signal, and what JSQ classically samples.
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      load_signal_[i] =
          router_->alive(i)
              ? static_cast<double>(handles_[i].outstanding())
              : 0.0;
    }
  }
  const std::size_t n = router_->route(req.size, load_signal_);
  ++dispatched_[n];
  handles_[n].submit(req);
  if (timed) {
    dispatch_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ++dispatch_timed_;
  }
}

void ClusterRuntime::global_tick(Time now) {
  global_->tick(now);
  if (stats_ != nullptr) sample_stats(now);
}

void ClusterRuntime::sample_stats(Time now) {
  const std::size_t n = cfg_.num_classes();
  std::vector<std::uint64_t> dispatched;
  {
    std::lock_guard<std::mutex> lock(dispatch_m_);
    dispatched = dispatched_;
  }
  std::vector<obs::ClusterNodeStats> per_node(handles_.size());
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    per_node[i].alive = router_->alive(i);
    per_node[i].dispatched = dispatched[i];
    per_node[i].outstanding = handles_[i].outstanding();
    per_node[i].lambda.assign(n, 0.0);
    for (const ShardSnapshot& snap : handles_[i].shard_snapshots()) {
      for (std::size_t c = 0; c < n; ++c) {
        per_node[i].lambda[c] += snap.lambda_hat[c];
      }
    }
  }
  const ControllerSnapshot cs = global_->snapshot();
  stats_->sample(now, per_node, std::vector<double>(cs.rate, cs.rate + n),
                 cs.allocations);
}

void ClusterRuntime::do_kill(std::size_t node,
                             const std::function<void()>& stop_node) {
  {
    // Flip under the dispatch mutex: no arrival routes to the corpse after
    // this point, and the in-flight dispatch (if any) completed first.
    std::lock_guard<std::mutex> lock(dispatch_m_);
    router_->set_alive(node, false);
  }
  if (stop_node) stop_node();  // Threaded mode joins shard threads here.
  // Freeze the node's metrics at the kill instant: its windows end here,
  // its outstanding requests are stranded (counted as lost_to_kill).
  nodes_[node]->finish();
  global_->drop_group(node);
  killed_ = true;
  kill_time_ = clock_.now();
  if (stats_ != nullptr) stats_->kill(kill_time_, node);
}

void ClusterRuntime::kill(std::size_t node) {
  PSD_REQUIRE(clock_.is_manual(),
              "kill() is the deterministic-drive API; threaded runs use "
              "cfg.kill_at");
  PSD_REQUIRE(node < handles_.size(), "kill node out of range");
  PSD_REQUIRE(router_->alive(node), "node already dead");
  do_kill(node);
}

void ClusterRuntime::step_to(Time t) {
  PSD_REQUIRE(clock_.manual() != nullptr, "step_to requires a ManualClock");
  PSD_REQUIRE(!ran_, "step_to cannot mix with a threaded run()");
  if (!killed_ && cfg_.kill_at >= 0.0 && t >= cfg_.kill_at) {
    // Split the step at the kill instant so the kill lands at exactly
    // cfg.kill_at regardless of the caller's step granularity.
    step_to_internal(cfg_.kill_at);
    do_kill(cfg_.kill_node);
  }
  step_to_internal(t);
}

void ClusterRuntime::step_to_internal(Time t) {
  clock_.manual()->advance_to(t);
  // Load stops at cfg.node.duration in both drive modes; quiesce steps
  // beyond it to drain.
  const Time gen_horizon = std::min(t, cfg_.node.duration);
  for (auto& g : gens_) g->step_until(gen_horizon);
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    // Each alive node advances its own clock copy to t, drains its shards,
    // runs its (rate-less) controller ticks, and samples its exporter.
    if (router_->alive(i)) nodes_[i]->step_to(t);
  }
  while (next_rebalance_ <= t) {
    global_tick(next_rebalance_);
    next_rebalance_ += cfg_.rebalance_period;
  }
}

void ClusterRuntime::quiesce(Duration max_extra, Duration step) {
  PSD_REQUIRE(clock_.is_manual(), "quiesce requires a ManualClock");
  Time t = clock_.now();
  const Time limit = t + max_extra;
  while (alive_outstanding() > 0 && t < limit) {
    t = std::min(t + step, limit);
    step_to(t);
  }
}

std::uint64_t ClusterRuntime::alive_outstanding() const {
  std::lock_guard<std::mutex> lock(dispatch_m_);
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    if (router_->alive(i)) n += handles_[i].outstanding();
  }
  return n;
}

void ClusterRuntime::finish() {
  if (finalized_) return;
  finalized_ = true;
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    if (router_->alive(i)) nodes_[i]->finish();
  }
}

ClusterReport ClusterRuntime::run() {
  PSD_REQUIRE(!ran_ && !finalized_, "run() is one-shot");
  PSD_REQUIRE(!clock_.is_manual(),
              "run() spins wall-clock threads; use step_to with ManualClock");
  ran_ = true;

  const std::size_t num_nodes = handles_.size();
  std::atomic<bool> stop_gen{false};
  std::atomic<bool> stop_rest{false};
  std::atomic<bool> kill_requested{false};
  // Per-node stop flags so a mid-run kill can stop just that node's shard
  // threads while the rest of the cluster keeps serving.
  std::unique_ptr<std::atomic<bool>[]> node_stop(
      new std::atomic<bool>[num_nodes]);
  for (std::size_t i = 0; i < num_nodes; ++i) node_stop[i].store(false);

  std::vector<std::vector<std::thread>> node_threads(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    for (std::size_t s = 0; s < handles_[i].num_shards(); ++s) {
      node_threads[i].emplace_back([this, i, s, &node_stop, &stop_rest] {
        Shard& sh = handles_[i].runtime().shard(s);
        while (!stop_rest.load(std::memory_order_acquire) &&
               !node_stop[i].load(std::memory_order_acquire)) {
          if (sh.drain(clock_.now()) == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }
      });
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(gens_.size() + 1);
  for (std::size_t g = 0; g < gens_.size(); ++g) {
    threads.emplace_back([this, g, &stop_gen] {
      LoadSource& gen = *gens_[g];
      while (!stop_gen.load(std::memory_order_acquire)) {
        gen.step_until(clock_.now());
        const double dt = gen.next_time() - clock_.now();
        if (dt > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(std::min(dt, 1e-3)));
        }
      }
    });
  }

  // One controller thread drives node ticks, global rebalances, AND the
  // kill: topology changes live on this thread so the router's alive mask
  // has exactly one writer (dispatch reads it under the dispatch mutex).
  threads.emplace_back([this, num_nodes, &stop_rest, &kill_requested,
                        &node_stop, &node_threads] {
    Time next_node = cfg_.node.controller_period;
    bool local_killed = false;
    while (!stop_rest.load(std::memory_order_acquire)) {
      if (kill_requested.load(std::memory_order_acquire) && !local_killed) {
        local_killed = true;
        const std::size_t k = cfg_.kill_node;
        do_kill(k, [&node_stop, &node_threads, k] {
          node_stop[k].store(true, std::memory_order_release);
          for (auto& t : node_threads[k]) t.join();
        });
      }
      const Time now = clock_.now();
      if (now >= next_node) {
        for (std::size_t i = 0; i < num_nodes; ++i) {
          if (router_->alive(i)) {
            handles_[i].runtime().controller_mut().tick(now);
          }
        }
        next_node = now + cfg_.node.controller_period;
      }
      if (now >= next_rebalance_) {
        global_tick(now);
        next_rebalance_ = now + cfg_.rebalance_period;
      }
      const double dt = std::min(next_node, next_rebalance_) - clock_.now();
      if (dt > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(dt, 1e-3)));
      }
    }
  });

  // Let the workload run its course, requesting the kill when its time
  // comes (the controller thread executes it).
  while (clock_.now() < cfg_.node.duration) {
    if (cfg_.kill_at >= 0.0 && clock_.now() >= cfg_.kill_at &&
        !kill_requested.load(std::memory_order_acquire)) {
      kill_requested.store(true, std::memory_order_release);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::min(cfg_.node.duration - clock_.now(), 1e-3)));
  }
  stop_gen.store(true, std::memory_order_release);

  // Grace period: alive shards keep draining until the accepted backlog
  // clears (bounded, as in the single-node runtime).
  const Time grace_end = clock_.now() + 2.0;
  while (clock_.now() < grace_end && alive_outstanding() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_rest.store(true, std::memory_order_release);
  for (auto& per_node : node_threads) {
    for (auto& t : per_node) {
      if (t.joinable()) t.join();  // The killed node's are already joined.
    }
  }
  for (auto& t : threads) t.join();

  run_elapsed_ = clock_.now();
  finish();
  return report();
}

ClusterReport ClusterRuntime::report() const {
  const std::size_t n = cfg_.num_classes();
  ClusterReport r;
  r.cls.resize(n);
  r.node.resize(handles_.size());
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    r.node[i].alive = router_->alive(i);
    r.node[i].dispatched = dispatched_[i];
    r.node[i].rt = nodes_[i]->report();
  }

  std::vector<double> sd_sum(n, 0.0);
  std::vector<std::uint64_t> sd_n(n, 0);
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    for (std::size_t c = 0; c < n; ++c) {
      const RtClassReport& ncls = r.node[i].rt.cls[c];
      r.cls[c].completed += ncls.completed;
      r.cls[c].dropped += ncls.dropped;
      r.cls[c].shed += ncls.shed;
      if (ncls.completed > 0 && std::isfinite(ncls.mean_slowdown)) {
        sd_sum[c] +=
            ncls.mean_slowdown * static_cast<double>(ncls.completed);
        sd_n[c] += ncls.completed;
      }
    }
    if (r.node[i].alive) {
      r.outstanding += r.node[i].rt.outstanding;
    } else {
      r.lost_to_kill += r.node[i].rt.outstanding;
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    r.cls[c].delta = cfg_.node.delta[c];
    r.cls[c].target_ratio = cfg_.node.delta[c] / cfg_.node.delta[0];
    if (sd_n[c] > 0) {
      r.cls[c].mean_slowdown = sd_sum[c] / static_cast<double>(sd_n[c]);
    }
    r.completed_total += r.cls[c].completed;
    r.dropped += r.cls[c].dropped;
    r.shed_total += r.cls[c].shed;
  }
  for (const auto& g : gens_) r.produced += g->produced();
  const ControllerSnapshot cs = global_->snapshot();
  r.global_ticks = cs.ticks;
  r.rebalances = cs.allocations;
  r.mean_dispatch_ns =
      dispatch_timed_ > 0
          ? static_cast<double>(dispatch_ns_) /
                static_cast<double>(dispatch_timed_)
          : kNaN;
  r.elapsed = run_elapsed_ >= 0.0 ? run_elapsed_ : clock_.now();

  // Window statistics read the servers' closed series, so finalized only.
  if (finalized_) {
    // Re-convergence after the disturbance: a node kill if one happened,
    // else the load profile's settling point.  The pooled statistics are
    // the single-node ones with every node's shards in the pool (killed
    // nodes contribute their pre-kill windows).
    double onset = kNaN;
    if (std::isfinite(kill_time_)) {
      onset = std::max(kill_time_, cfg_.node.warmup);
    } else if (std::isfinite(cfg_.node.profile.step_time())) {
      onset = std::max(cfg_.node.profile.step_time(), cfg_.node.warmup);
    }
    r.settle_onset = onset;
    std::vector<Shard*> pool;
    for (const auto& node : nodes_) {
      const std::vector<Shard*> shards = node->shard_ptrs();
      pool.insert(pool.end(), shards.begin(), shards.end());
    }
    const WindowRatioStats w =
        window_ratio_stats(pool, cfg_.node.delta, onset,
                           cfg_.node.converge_tol,
                           cfg_.node.controller_period);
    for (std::size_t c = 1; c < n; ++c) {
      r.cls[c].window_ratio_p50 = w.p50[c];
      r.cls[c].settle_seconds = w.settle[c];
    }
    r.max_window_ratio_error = w.max_error;
    r.max_settle_seconds = w.max_settle;

    // Cross-node check: the differentiation must hold on every surviving
    // node individually, not just in the pooled aggregate.  Strict: an
    // alive node with no windowed data poisons the statistic.
    if (n >= 2) {
      double cross = kNaN;
      bool poisoned = false;
      for (std::size_t i = 0; i < handles_.size(); ++i) {
        if (!r.node[i].alive) continue;
        const double err = r.node[i].rt.max_window_ratio_error;
        if (!std::isfinite(err)) {
          poisoned = true;
        } else {
          cross = std::isfinite(cross) ? std::max(cross, err) : err;
        }
      }
      r.cross_node_ratio_error = poisoned ? kNaN : cross;
    }
  }
  return r;
}

}  // namespace psd::rt
