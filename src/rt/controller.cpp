#include "rt/controller.hpp"

#include <cmath>
#include <numeric>

namespace psd::rt {

Controller::Controller(ControllerConfig cfg, std::vector<Shard*> shards)
    : cfg_(std::move(cfg)), shards_(std::move(shards)) {
  PSD_REQUIRE(!shards_.empty(), "controller needs at least one shard");
  PSD_REQUIRE(!cfg_.delta.empty() && cfg_.delta.size() <= kMaxRtClasses,
              "controller supports 1..kMaxRtClasses classes");
  PsdAllocatorConfig pc;
  pc.delta = cfg_.delta;
  pc.capacity = cfg_.total_capacity;
  pc.mean_size = cfg_.mean_size;
  pc.rho_max = cfg_.rho_max;
  pc.min_residual_share = cfg_.min_residual_share;
  allocator_ = make_allocator(cfg_.allocator, pc, cfg_.adaptive);
  windows_seen_.assign(shards_.size() * cfg_.delta.size(), 0);
  // Until the first warm tick, every shard runs its initial (equal) split.
  rates_.assign(cfg_.delta.size(),
                cfg_.total_capacity / static_cast<double>(cfg_.delta.size()));
  prof_.set_enabled(cfg_.profile);
}

std::vector<ControllerTraceEntry> Controller::trace_since(
    std::uint64_t* cursor) const {
  std::vector<ControllerTraceEntry> out;
  std::lock_guard<std::mutex> lock(trace_m_);
  for (const auto& e : trace_) {
    if (e.tick > *cursor) out.push_back(e);
  }
  if (!out.empty()) *cursor = out.back().tick;
  return out;
}

std::string Controller::allocator_name() const {
  return allocator_ ? allocator_->name() : "none";
}

void Controller::tick(Time now) {
  obs::ScopedProfTimer prof_tick(&prof_, obs::kProfControllerTick);
  const std::size_t n = cfg_.delta.size();
  std::vector<double> lambda(n, 0.0);
  std::vector<double> offered(n, 0.0);
  std::uint64_t windows_total = 0;
  std::vector<double> sd_sum(n, 0.0);
  std::vector<std::uint32_t> sd_cnt(n, 0);
  bool fresh_window = false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardSnapshot snap = shards_[i]->snapshot();
    windows_total += snap.windows_closed;
    for (std::size_t c = 0; c < n; ++c) {
      lambda[c] += snap.lambda_hat[c];
      offered[c] += snap.offered_lambda[c];
      // Slowdown feedback only from classes whose metrics window actually
      // advanced since this controller last looked: ticks and shard window
      // rolls are not phase-locked (and windows close lazily, on the first
      // completion past the boundary), so gating on the per-class sequence
      // number is what makes the adaptive integrator see each window once —
      // not once per tick, and not again during a completion lull.
      std::uint64_t& seen = windows_seen_[i * n + c];
      const bool advanced = snap.window_seq[c] > seen;
      seen = snap.window_seq[c];
      if (advanced && std::isfinite(snap.window_slowdown[c])) {
        sd_sum[c] += snap.window_slowdown[c];
        ++sd_cnt[c];
        fresh_window = true;
      }
    }
  }
  std::vector<double> mean_sd(n, kNaN);
  for (std::size_t c = 0; c < n; ++c) {
    if (sd_cnt[c] > 0) mean_sd[c] = sd_sum[c] / sd_cnt[c];
  }

  // Admission update cadence: once per estimation window (some shard's
  // estimator rolled since the last staged update), not once per tick —
  // gate decisions latch between windows, mirroring the allocator.  Each
  // shard's gate is sized at shard capacity, so it receives the per-shard
  // slice of the aggregated offered view.
  if (cfg_.admission && windows_total > admission_windows_seen_) {
    admission_windows_seen_ = windows_total;
    const double inv_shards = 1.0 / static_cast<double>(shards_.size());
    std::vector<double> offered_slice(n);
    for (std::size_t c = 0; c < n; ++c) {
      offered_slice[c] = offered[c] * inv_shards;
    }
    for (Shard* shard : shards_) {
      shard->stage_admission_update(offered_slice);
    }
  }

  ++ticks_;
  ControllerTraceEntry trace_entry;
  if (cfg_.trace) {
    trace_entry.time = now;
    trace_entry.tick = ticks_;
    trace_entry.fresh_window = fresh_window;
    trace_entry.num_classes = static_cast<std::uint32_t>(n);
    for (std::size_t c = 0; c < n; ++c) {
      trace_entry.lambda[c] = lambda[c];
      trace_entry.window_slowdown[c] = mean_sd[c];
      trace_entry.rate_in[c] = rates_[c];
    }
  }
  const double total =
      std::accumulate(lambda.begin(), lambda.end(), 0.0);
  // Cold start (estimators have not closed a window yet) keeps the initial
  // equal split; eq. 17 needs at least one positive lambda.
  if (allocator_ != nullptr && total > 0.0) {
    if (fresh_window) allocator_->observe_slowdowns(mean_sd);
    {
      obs::ScopedProfTimer prof_alloc(&prof_, obs::kProfAllocate);
      rates_ = allocator_->allocate(lambda);
    }
    ++allocations_;
    trace_entry.reallocated = true;
    const double inv_shards = 1.0 / static_cast<double>(shards_.size());
    std::vector<double> slice(n);
    for (std::size_t c = 0; c < n; ++c) slice[c] = rates_[c] * inv_shards;
    // Stamp the handoff with this tick so spans admitted under these rates
    // name the allocation that governed them.
    for (Shard* shard : shards_) shard->apply_rates(slice, ticks_);
  }
  if (cfg_.trace) {
    for (std::size_t c = 0; c < n; ++c) trace_entry.rate_out[c] = rates_[c];
    std::lock_guard<std::mutex> lock(trace_m_);
    trace_.push_back(trace_entry);
    while (trace_.size() > cfg_.trace_capacity) trace_.pop_front();
  }

  ControllerSnapshot s;
  s.time = now;
  s.num_classes = static_cast<std::uint32_t>(n);
  s.ticks = ticks_;
  s.allocations = allocations_;
  for (std::size_t c = 0; c < n; ++c) {
    s.lambda[c] = lambda[c];
    s.rate[c] = rates_[c];
    s.window_slowdown[c] = mean_sd[c];
  }
  snap_.publish(s);
}

}  // namespace psd::rt
