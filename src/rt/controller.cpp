#include "rt/controller.hpp"

#include <cmath>
#include <numeric>

namespace psd::rt {

Controller::Controller(ControllerConfig cfg,
                       std::vector<std::vector<Shard*>> groups)
    : cfg_(std::move(cfg)),
      groups_(std::move(groups)),
      live_(groups_.size(), true),
      live_count_(groups_.size()) {
  PSD_REQUIRE(!groups_.empty(), "controller needs at least one shard group");
  std::size_t shards = 0;
  for (const auto& group : groups_) {
    PSD_REQUIRE(!group.empty(), "controller shard groups must be non-empty");
    shards += group.size();
  }
  PSD_REQUIRE(!cfg_.delta.empty() && cfg_.delta.size() <= kMaxRtClasses,
              "controller supports 1..kMaxRtClasses classes");
  rebuild_allocator();
  windows_seen_.assign(shards * cfg_.delta.size(), 0);
  // Until the first warm tick, every shard runs its initial (equal) split.
  rates_.assign(cfg_.delta.size(),
                cfg_.group_capacity * static_cast<double>(groups_.size()) /
                    static_cast<double>(cfg_.delta.size()));
  prof_.set_enabled(cfg_.profile);
}

void Controller::rebuild_allocator() {
  PsdAllocatorConfig pc;
  pc.delta = cfg_.delta;
  pc.capacity = cfg_.group_capacity * static_cast<double>(live_count_);
  pc.mean_size = cfg_.mean_size;
  pc.rho_max = cfg_.rho_max;
  pc.min_residual_share = cfg_.min_residual_share;
  allocator_ = make_allocator(cfg_.allocator, pc, cfg_.adaptive);
}

void Controller::drop_group(std::size_t g) {
  PSD_REQUIRE(g < groups_.size() && live_[g], "shard group is not live");
  PSD_REQUIRE(live_count_ > 1, "cannot drop the last live shard group");
  live_[g] = false;
  --live_count_;
  rebuild_allocator();
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
  std::size_t slot = 0;  // windows_seen_ offset of the current shard
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (!live_[g]) {
      slot += groups_[g].size() * n;  // A dead group keeps its slots.
      continue;
    }
    for (Shard* shard : groups_[g]) {
      const ShardSnapshot snap = shard->snapshot();
      windows_total += snap.windows_closed;
      for (std::size_t c = 0; c < n; ++c) {
        lambda[c] += snap.lambda_hat[c];
        offered[c] += snap.offered_lambda[c];
        // Slowdown feedback only from classes whose metrics window
        // actually advanced since this controller last looked: ticks and
        // shard window rolls are not phase-locked (and windows close
        // lazily, on the first completion past the boundary), so gating on
        // the per-class sequence number is what makes the adaptive
        // integrator see each window once — not once per tick, and not
        // again during a completion lull.
        std::uint64_t& seen = windows_seen_[slot + c];
        const bool advanced = snap.window_seq[c] > seen;
        seen = snap.window_seq[c];
        if (advanced && std::isfinite(snap.window_slowdown[c])) {
          sd_sum[c] += snap.window_slowdown[c];
          ++sd_cnt[c];
          fresh_window = true;
        }
      }
      slot += n;
    }
  }
  std::vector<double> mean_sd(n, kNaN);
  for (std::size_t c = 0; c < n; ++c) {
    if (sd_cnt[c] > 0) mean_sd[c] = sd_sum[c] / sd_cnt[c];
  }

  // The split rule: each live shard's slice of a global per-class vector is
  // total_c * (1 / live groups) * (1 / shards in its group).
  const double node_share = 1.0 / static_cast<double>(live_count_);
  std::vector<double> slice(n);
  auto for_each_slice = [&](const std::vector<double>& total, auto&& apply) {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (!live_[g]) continue;
      const double shard_share = 1.0 / static_cast<double>(groups_[g].size());
      for (std::size_t c = 0; c < n; ++c) {
        slice[c] = total[c] * node_share * shard_share;
      }
      for (Shard* shard : groups_[g]) apply(*shard);
    }
  };

  // Admission update cadence: once per estimation window (some shard's
  // estimator rolled since the last staged update), not once per tick —
  // gate decisions latch between windows, mirroring the allocator.  Each
  // shard's gate is sized at shard capacity, so it receives its slice of
  // the aggregated offered view.
  if (cfg_.admission && windows_total > admission_windows_seen_) {
    admission_windows_seen_ = windows_total;
    for_each_slice(offered,
                   [&](Shard& shard) { shard.stage_admission_update(slice); });
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
    // Stamp the handoff with this tick so spans admitted under these rates
    // name the allocation that governed them.
    for_each_slice(rates_,
                   [&](Shard& shard) { shard.apply_rates(slice, ticks_); });
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
