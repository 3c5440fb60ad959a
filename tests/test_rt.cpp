// Real-time runtime (src/rt) under a ManualClock: every component steps on
// the test thread, so these tests are deterministic by construction — no
// sleeps, no timing-dependent assertions, bitwise-reproducible reports.
#include <gtest/gtest.h>

#include <cmath>

#include "core/psd_allocation.hpp"
#include "rt/clock.hpp"
#include "rt/runtime.hpp"
#include "rt/seqlock.hpp"
#include "rt/token_bucket.hpp"

namespace psd::rt {
namespace {

Request make_request(ClassId cls, Time arrival, Work size,
                     RequestId id = 0) {
  Request r;
  r.id = id;
  r.cls = cls;
  r.arrival = arrival;
  r.size = size;
  return r;
}

// ---------------------------------------------------------------- clocks

TEST(RtClock, ManualAdvancesAndRejectsBackwards) {
  ManualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance_to(1.5);
  clock.advance(0.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  EXPECT_THROW(clock.advance_to(1.0), std::invalid_argument);
}

TEST(RtClock, VariantDispatchesAndExposesManual) {
  ClockVariant manual{ManualClock{3.0}};
  EXPECT_DOUBLE_EQ(manual.now(), 3.0);
  ASSERT_NE(manual.manual(), nullptr);
  manual.manual()->advance_to(4.0);
  EXPECT_DOUBLE_EQ(manual.now(), 4.0);

  ClockVariant steady{SteadyClock{}};
  EXPECT_EQ(steady.manual(), nullptr);
  EXPECT_GE(steady.now(), 0.0);
}

// ---------------------------------------------------------- token bucket

TEST(TokenBucket, AccruesAtRateUpToBurst) {
  TokenBucket b(2.0, 4.0, 0.0);  // rate 2/s, burst 4, starts full
  EXPECT_DOUBLE_EQ(b.level(0.0), 4.0);
  EXPECT_TRUE(b.try_consume(4.0, 0.0));
  EXPECT_DOUBLE_EQ(b.level(0.0), 0.0);
  EXPECT_DOUBLE_EQ(b.level(1.0), 2.0);   // +2 after 1s
  EXPECT_DOUBLE_EQ(b.level(10.0), 4.0);  // capped at burst
}

TEST(TokenBucket, DeficitDelaysButNeverDeadlocks) {
  TokenBucket b(1.0, 2.0, 0.0);
  // A giant twice the burst still releases (level is non-negative)...
  EXPECT_TRUE(b.try_consume(4.0, 0.0));
  EXPECT_DOUBLE_EQ(b.level(0.0), -2.0);
  // ...but the class pays the deficit off before the next release.
  EXPECT_FALSE(b.try_consume(1.0, 1.0));  // level -1
  EXPECT_TRUE(b.try_consume(1.0, 2.0));   // level 0: ok
}

TEST(TokenBucket, SetRateSettlesAtOldRateFirst) {
  TokenBucket b(1.0, 10.0, 0.0);
  ASSERT_TRUE(b.try_consume(10.0, 0.0));  // empty it
  b.set_rate(4.0, 2.0);  // 2s at old rate 1/s accrued first
  EXPECT_DOUBLE_EQ(b.level(2.0), 2.0);
  EXPECT_DOUBLE_EQ(b.level(3.0), 6.0);  // then 4/s
}

// --------------------------------------------------------------- seqlock

TEST(Seqlock, SingleThreadRoundTrip) {
  struct Payload {
    double a = 0.0;
    std::uint64_t b = 0;
    double c[3] = {};
  };
  Seqlock<Payload> lock;
  Payload p;
  p.a = 1.5;
  p.b = 42;
  p.c[2] = -7.0;
  lock.publish(p);
  const Payload out = lock.read();
  EXPECT_DOUBLE_EQ(out.a, 1.5);
  EXPECT_EQ(out.b, 42u);
  EXPECT_DOUBLE_EQ(out.c[2], -7.0);
}

// ----------------------------------------------------------------- shard

ShardConfig two_class_config() {
  ShardConfig cfg;
  cfg.num_classes = 2;
  cfg.capacity = 1.0;
  cfg.window = 1.0;
  cfg.bucket_burst_seconds = 10.0;  // buckets out of the way by default
  return cfg;
}

TEST(Shard, ServesWithExactSimulatedTimestamps) {
  ShardConfig cfg = two_class_config();
  cfg.num_classes = 1;
  cfg.initial_rates = {1.0};
  Shard shard(cfg, Rng(1));

  ASSERT_TRUE(shard.submit(make_request(0, 0.0, 1.0, 1)));
  ASSERT_TRUE(shard.submit(make_request(0, 0.0, 1.0, 2)));
  shard.drain(0.0);
  EXPECT_EQ(shard.outstanding(), 2u);

  // First request served [0,1), second [1,2) — completions fire at their
  // exact model times no matter when drain runs.
  shard.drain(5.0);
  EXPECT_EQ(shard.outstanding(), 0u);
  const auto& m = shard.server().metrics();
  ASSERT_EQ(m.completed(0), 2u);
  // Slowdowns: 0/1 (immediate service) and 1/1 (waited one service time).
  EXPECT_DOUBLE_EQ(m.slowdown(0).mean(), 0.5);
}

TEST(Shard, TokenBucketStagesWorkBeyondTheClassRate) {
  ShardConfig cfg = two_class_config();
  cfg.bucket_burst_seconds = 1.0;  // burst = 1 work unit
  cfg.initial_rates = {0.5, 0.5};
  Shard shard(cfg, Rng(1));

  // A size-2 giant against a burst of 1: released immediately (deficit
  // semantics), leaving the bucket at -1; the follow-up request stages
  // until the deficit is paid off at rate 0.5 (t = 2).
  ASSERT_TRUE(shard.submit(make_request(1, 0.0, 2.0, 1)));
  ASSERT_TRUE(shard.submit(make_request(1, 0.0, 1.0, 2)));
  shard.drain(0.0);
  ShardSnapshot snap = shard.snapshot();
  EXPECT_EQ(snap.staged[1], 1u);

  shard.drain(1.9);  // level -0.05: still staged
  EXPECT_EQ(shard.snapshot().staged[1], 1u);
  shard.drain(2.0);  // level back to 0: released
  EXPECT_EQ(shard.snapshot().staged[1], 0u);
}

TEST(Shard, CountsDropsWhenIngressOverflows) {
  ShardConfig cfg = two_class_config();
  cfg.ingress_capacity = 2;
  Shard shard(cfg, Rng(1));
  EXPECT_TRUE(shard.submit(make_request(0, 0.0, 1.0)));
  EXPECT_TRUE(shard.submit(make_request(0, 0.0, 1.0)));
  EXPECT_FALSE(shard.submit(make_request(0, 0.0, 1.0)));
  EXPECT_EQ(shard.dropped(), 1u);
  shard.drain(0.0);
  EXPECT_EQ(shard.outstanding(), 2u);
}

TEST(Shard, AppliesControllerRatesAtNextDrain) {
  ShardConfig cfg = two_class_config();
  Shard shard(cfg, Rng(1));
  EXPECT_DOUBLE_EQ(shard.snapshot().rate[0], 0.5);
  shard.apply_rates({0.8, 0.2});
  EXPECT_DOUBLE_EQ(shard.snapshot().rate[0], 0.5);  // not yet
  shard.drain(1.0);
  EXPECT_DOUBLE_EQ(shard.snapshot().rate[0], 0.8);
  EXPECT_DOUBLE_EQ(shard.snapshot().rate[1], 0.2);
}

TEST(Shard, EstimatorTracksArrivalRatePerWindow) {
  ShardConfig cfg = two_class_config();
  Shard shard(cfg, Rng(1));
  // 30 class-0 and 10 class-1 arrivals in the first 1s window.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(shard.submit(make_request(0, i * 0.03, 0.01)));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(shard.submit(make_request(1, i * 0.09, 0.01)));
  }
  shard.drain(0.95);
  shard.drain(1.0);  // rolls the [0,1) window
  const ShardSnapshot snap = shard.snapshot();
  EXPECT_EQ(snap.windows_closed, 1u);
  EXPECT_DOUBLE_EQ(snap.lambda_hat[0], 30.0);
  EXPECT_DOUBLE_EQ(snap.lambda_hat[1], 10.0);
}

// ------------------------------------------------------------ controller

TEST(Controller, ColdStartKeepsEqualSplitThenMatchesEq17) {
  ShardConfig cfg = two_class_config();
  Shard shard(cfg, Rng(1));
  ControllerConfig cc;
  cc.delta = {1.0, 2.0};
  cc.group_capacity = 1.0;
  cc.mean_size = 0.01;
  cc.allocator = AllocatorKind::kPsd;
  Controller controller(cc, {{&shard}});

  // Cold: no estimator window closed yet -> no reallocation.
  controller.tick(0.5);
  EXPECT_EQ(controller.snapshot().allocations, 0u);
  EXPECT_DOUBLE_EQ(controller.snapshot().rate[0], 0.5);

  // Warm one window with known rates (30/s and 10/s of size 0.01).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(shard.submit(make_request(0, i * 0.03, 0.01)));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(shard.submit(make_request(1, i * 0.09, 0.01)));
  }
  shard.drain(1.0);
  controller.tick(1.0);
  EXPECT_EQ(controller.snapshot().allocations, 1u);

  PsdInput in;
  in.lambda = {30.0, 10.0};
  in.delta = cc.delta;
  in.mean_size = cc.mean_size;
  in.capacity = cc.group_capacity;
  in.overload = OverloadPolicy::kClamp;
  const auto expected = allocate_psd_rates(in);
  const ControllerSnapshot snap = controller.snapshot();
  EXPECT_NEAR(snap.rate[0], expected.rate[0], 1e-12);
  EXPECT_NEAR(snap.rate[1], expected.rate[1], 1e-12);
  EXPECT_DOUBLE_EQ(snap.lambda[0], 30.0);

  // The shard adopts the slice at its next drain.
  shard.drain(1.1);
  EXPECT_NEAR(shard.snapshot().rate[0], expected.rate[0], 1e-12);
}

TEST(Controller, GroupsSplitRatesAndDropDeadNodes) {
  // Two groups (nodes) of two shards each: every shard adopts
  // rate_c * (1 / live groups) * (1 / shards in its group).
  ShardConfig cfg = two_class_config();
  Shard a0(cfg, Rng(1)), a1(cfg, Rng(2)), b0(cfg, Rng(3)), b1(cfg, Rng(4));
  ControllerConfig cc;
  cc.delta = {1.0, 2.0};
  cc.group_capacity = 1.0;
  cc.mean_size = 0.01;
  cc.allocator = AllocatorKind::kPsd;
  Controller controller(cc, {{&a0, &a1}, {&b0, &b1}});
  Shard* shards[] = {&a0, &a1, &b0, &b1};

  // Warm one window: 10/s of class 0 and 5/s of class 1 on every shard.
  auto feed = [](Shard& shard, Time from) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(shard.submit(make_request(0, from + i * 0.09, 0.01)));
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(shard.submit(make_request(1, from + i * 0.18, 0.01)));
    }
  };
  for (Shard* s : shards) {
    feed(*s, 0.0);
    s->drain(1.0);
  }
  controller.tick(1.0);
  ControllerSnapshot snap = controller.snapshot();
  ASSERT_EQ(snap.allocations, 1u);
  EXPECT_DOUBLE_EQ(snap.lambda[0], 40.0);
  for (Shard* s : shards) {
    s->drain(1.05);
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(s->snapshot().rate[c], snap.rate[c] * 0.5 * 0.5);
    }
  }
  const double old_rate[2] = {b0.snapshot().rate[0], b0.snapshot().rate[1]};

  // Drop group 1 and warm another window on every shard: the allocator
  // shrinks to one group's capacity, group 0 splits it, and group 1 keeps
  // its old rates and no longer counts toward lambda.
  controller.drop_group(1);
  for (Shard* s : shards) {
    feed(*s, 1.1);
    s->drain(2.0);
  }
  controller.tick(2.0);
  snap = controller.snapshot();
  ASSERT_EQ(snap.allocations, 2u);
  EXPECT_NEAR(snap.rate[0] + snap.rate[1], cc.group_capacity, 1e-12);
  EXPECT_DOUBLE_EQ(snap.lambda[0], 20.0);
  EXPECT_DOUBLE_EQ(snap.lambda[1], 10.0);
  for (Shard* s : shards) s->drain(2.05);
  for (Shard* s : {&a0, &a1}) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(s->snapshot().rate[c], snap.rate[c] * 1.0 * 0.5);
    }
  }
  for (Shard* s : {&b0, &b1}) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(s->snapshot().rate[c], old_rate[c]);
    }
  }
  EXPECT_THROW(controller.drop_group(0), std::invalid_argument);
}

// --------------------------------------------------------------- runtime

RtConfig small_runtime_config() {
  RtConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = 0.5;
  cfg.size_dist = DistSpec::uniform(0.5, 1.5);
  cfg.mean_service_seconds = 1e-3;  // 500 req/s at load 0.5
  cfg.shards = 2;
  cfg.loadgens = 2;
  cfg.controller_period = 0.1;
  cfg.warmup = 0.5;
  cfg.duration = 3.0;
  cfg.seed = 71;
  return cfg;
}

RtReport drive_manual(const RtConfig& cfg) {
  Runtime runtime(cfg, ManualClock{});
  for (Time t = 0.02; t <= cfg.duration + 1e-9; t += 0.02) {
    runtime.step_to(t);
  }
  runtime.quiesce(20.0, 0.05);
  runtime.finish();
  return runtime.report();
}

TEST(Runtime, ManualDriveServesAndDifferentiates) {
  const RtConfig cfg = small_runtime_config();
  const RtReport r = drive_manual(cfg);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.outstanding, 0u);
  EXPECT_EQ(r.produced, r.completed_all);
  EXPECT_GT(r.cls[0].completed, 100u);
  EXPECT_GT(r.cls[1].completed, 100u);
  EXPECT_GT(r.reallocations, 10u);
  // Differentiation engaged: class 2 measurably slower than class 1 and in
  // the right neighborhood of the 2.0 target (deterministic, fixed seed).
  EXPECT_GT(r.cls[1].achieved_ratio, 1.3);
  EXPECT_LT(r.cls[1].achieved_ratio, 3.0);
  EXPECT_TRUE(std::isfinite(r.max_window_ratio_error));
}

TEST(Runtime, ManualDriveIsBitwiseDeterministic) {
  const RtConfig cfg = small_runtime_config();
  const RtReport a = drive_manual(cfg);
  const RtReport b = drive_manual(cfg);
  ASSERT_EQ(a.cls.size(), b.cls.size());
  EXPECT_EQ(a.produced, b.produced);
  EXPECT_EQ(a.completed_all, b.completed_all);
  EXPECT_EQ(a.drains, b.drains);
  for (std::size_t c = 0; c < a.cls.size(); ++c) {
    EXPECT_EQ(a.cls[c].completed, b.cls[c].completed);
    // Bitwise: identical draw order, identical drain schedule.
    EXPECT_DOUBLE_EQ(a.cls[c].mean_slowdown, b.cls[c].mean_slowdown);
    if (c > 0) {  // class 0's ratio-vs-itself is deliberately unset (NaN)
      EXPECT_DOUBLE_EQ(a.cls[c].window_ratio_p50, b.cls[c].window_ratio_p50);
    }
  }
}

TEST(Runtime, NoneAllocatorNeverReallocates) {
  RtConfig cfg = small_runtime_config();
  cfg.allocator = AllocatorKind::kNone;
  cfg.duration = 1.0;
  cfg.warmup = 0.2;
  const RtReport r = drive_manual(cfg);
  EXPECT_EQ(r.reallocations, 0u);
  EXPECT_GT(r.controller_ticks, 0u);
}

TEST(Runtime, TraceReplayDeliversEveryEntry) {
  RtConfig cfg = small_runtime_config();
  cfg.size_dist = DistSpec::deterministic(1.0);
  cfg.shards = 2;
  Trace trace;
  for (int i = 0; i < 100; ++i) {
    // Recorded in model units where E[X] = 1; class alternates.
    trace.push_back({10.0 + i * 0.5, static_cast<ClassId>(i % 2), 1.0});
  }
  Runtime runtime(cfg, ManualClock{}, trace, cfg.mean_service_seconds);
  for (Time t = 0.005; t <= 0.06 + 1e-9; t += 0.005) runtime.step_to(t);
  runtime.quiesce(20.0, 0.05);
  runtime.finish();
  const RtReport r = runtime.report();
  EXPECT_EQ(r.produced, 100u);
  EXPECT_EQ(r.completed_all, 100u);
  EXPECT_EQ(r.dropped, 0u);
}

TEST(Runtime, ThreadedRunRejectsManualClockAndViceVersa) {
  RtConfig cfg = small_runtime_config();
  Runtime manual(cfg, ManualClock{});
  EXPECT_THROW(manual.run(), std::invalid_argument);
  Runtime steady(cfg, SteadyClock{});
  EXPECT_THROW(steady.step_to(1.0), std::invalid_argument);
}

TEST(RtConfig, ValidatesInputs) {
  RtConfig cfg;
  cfg.load = 1.2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = RtConfig{};
  cfg.delta = {2.0, 1.0};  // decreasing
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = RtConfig{};
  cfg.warmup = cfg.duration;  // no measurement interval
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = RtConfig{};
  cfg.load_share = {0.9, 0.3};  // sums to 1.2
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace psd::rt
