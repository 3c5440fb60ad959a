// Admission controllers: gating logic, shedding order, eq.-18 budget math,
// and end-to-end overload protection through the server.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "admission/admission.hpp"
#include "core/psd_allocation.hpp"
#include "core/psd_rate_allocator.hpp"
#include "dist/sampler.hpp"
#include "sched/dedicated_rate.hpp"
#include "server/server.hpp"
#include "workload/arrival.hpp"
#include "workload/class_spec.hpp"
#include "workload/generator.hpp"

namespace psd {
namespace {

TEST(AdmitAll, PassesEverything) {
  AdmitAll a;
  a.update({100.0, 100.0});
  EXPECT_TRUE(a.admit(0));
  EXPECT_TRUE(a.admit(1));
}

TEST(UtilizationGate, AdmitsEverythingUnderThreshold) {
  UtilizationGate g(2, 0.5, 1.0, 0.9);
  g.update({0.5, 0.5});  // demand 0.5 < 0.9
  EXPECT_TRUE(g.admit(0));
  EXPECT_TRUE(g.admit(1));
}

TEST(UtilizationGate, ShedsLowestClassFirst) {
  UtilizationGate g(3, 0.5, 1.0, 0.9);
  g.update({1.0, 1.0, 1.0});  // demand 1.5 > 0.9; drop class 2 -> 1.0;
                              // still > 0.9; drop class 1 -> 0.5
  EXPECT_TRUE(g.admit(0));
  EXPECT_FALSE(g.admit(1));
  EXPECT_FALSE(g.admit(2));
}

TEST(UtilizationGate, NeverShedsHighestClass) {
  UtilizationGate g(2, 1.0, 1.0, 0.5);
  g.update({10.0, 10.0});  // hopeless overload: class 0 stays admitted
  EXPECT_TRUE(g.admit(0));
  EXPECT_FALSE(g.admit(1));
}

TEST(UtilizationGate, ReadmitsWhenLoadFalls) {
  UtilizationGate g(2, 0.5, 1.0, 0.9);
  g.update({1.5, 1.5});
  EXPECT_FALSE(g.admit(1));
  g.update({0.4, 0.4});
  EXPECT_TRUE(g.admit(1));
}

TEST(UtilizationGate, RejectsBadConstruction) {
  EXPECT_THROW(UtilizationGate(0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(UtilizationGate(2, 1.0, 1.0, 1.5), std::invalid_argument);
}

TEST(SlowdownBudgetGate, AdmitsWhileBudgetHolds) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  // eq. 18 unit slowdown at load 0.5, two equal classes, deltas (1,2).
  const auto lam = rates_for_equal_load(0.5, 1.0, bp.mean(), 2);
  const auto sd = expected_psd_slowdowns(lam, {1.0, 2.0}, bp);
  SlowdownBudgetGate generous({1.0, 2.0}, bp, 1.0,
                              sd[0] * 1.5 /* above prediction */);
  generous.update(lam);
  EXPECT_TRUE(generous.admit(0));
  EXPECT_TRUE(generous.admit(1));
}

TEST(SlowdownBudgetGate, ShedsWhenBudgetExceeded) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto lam = rates_for_equal_load(0.9, 1.0, bp.mean(), 2);
  const auto sd = expected_psd_slowdowns(lam, {1.0, 2.0}, bp);
  SlowdownBudgetGate tight({1.0, 2.0}, bp, 1.0, sd[0] * 0.25);
  tight.update(lam);
  EXPECT_TRUE(tight.admit(0));   // highest class survives
  EXPECT_FALSE(tight.admit(1));  // lower class shed
}

TEST(SlowdownBudgetGate, SheddingActuallyRestoresBudget) {
  // After shedding class 2, eq. 18 for class 1 alone must satisfy the
  // budget that triggered the shed (when feasible).
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto lam = rates_for_equal_load(0.8, 1.0, bp.mean(), 2);
  const auto full = expected_psd_slowdowns(lam, {1.0, 2.0}, bp);
  const double budget = full[0] * 0.6;
  SlowdownBudgetGate gate({1.0, 2.0}, bp, 1.0, budget);
  gate.update(lam);
  ASSERT_FALSE(gate.admit(1));
  const auto solo = expected_psd_slowdowns({lam[0]}, {1.0}, bp);
  EXPECT_LE(solo[0], budget);
}

TEST(SlowdownBudgetGate, InfeasibleLoadShedsToFeasibility) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto lam = rates_for_equal_load(0.9, 1.0, bp.mean(), 3);
  std::vector<double> heavy = {lam[0] * 2, lam[1] * 2, lam[2] * 2};  // rho 1.8
  SlowdownBudgetGate gate({1.0, 2.0, 3.0}, bp, 1.0, 50.0);
  gate.update(heavy);
  EXPECT_TRUE(gate.admit(0));
  EXPECT_FALSE(gate.admit(2));  // at least the lowest class must go
}

TEST(ProportionalShedGate, ThinsInDeltaProportionAndLatches) {
  ProportionalShedGate g({1.0, 2.0}, 1.0, 1.0, 0.8);
  g.update({1.0, 1.0});  // demand 2.0, excess 1.2 split 1:2 -> shed 0.4/0.8
  ASSERT_EQ(g.keep().size(), 2u);
  EXPECT_NEAR(g.keep()[0], 0.6, 1e-12);
  EXPECT_NEAR(g.keep()[1], 0.2, 1e-12);
  EXPECT_TRUE(g.admit(0));  // every class survives, just thinned
  EXPECT_TRUE(g.admit(1));
  const auto latched = g.keep();
  for (int i = 0; i < 100; ++i) g.admit_request(1, i * 0.1, 1.0);
  EXPECT_EQ(g.keep(), latched);  // per-request calls never move the latch
  g.update({0.3, 0.3});          // demand fits again: full readmission
  EXPECT_EQ(g.keep()[0], 1.0);
  EXPECT_EQ(g.keep()[1], 1.0);
}

TEST(ProportionalShedGate, ErrorDiffusionAdmitsExactFraction) {
  // Deterministic thinning: over n arrivals class c admits n * keep[c]
  // requests to within one (credit bank carries the fractional remainder).
  ProportionalShedGate g({1.0, 2.0}, 1.0, 1.0, 0.8);
  g.update({1.0, 1.0});  // keep 0.6 / 0.2
  const int n = 1000;
  for (ClassId c = 0; c < 2; ++c) {
    int admitted = 0;
    for (int i = 0; i < n; ++i) {
      admitted += g.admit_request(c, i * 0.01, 1.0) ? 1 : 0;
    }
    EXPECT_NEAR(admitted, n * g.keep()[c], 1.0) << "class " << c;
  }
}

TEST(ProportionalShedGate, HopelessOverloadClampsLowestClassToZero) {
  ProportionalShedGate g({1.0, 2.0}, 1.0, 1.0, 0.8);
  g.update({10.0, 10.0});  // demand 20: class 1's shed share exceeds its
                           // own demand -> zero keep, excess redistributed
  EXPECT_EQ(g.keep()[1], 0.0);
  EXPECT_FALSE(g.admit(1));
  EXPECT_TRUE(g.admit(0));
  // The surviving class is thinned until admitted demand == target.
  EXPECT_NEAR(g.keep()[0] * 10.0, 0.8, 1e-9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(g.admit_request(1, i * 1.0, 1.0));  // zero keep banks zero
  }
}

TEST(TokenBucketGate, BanksBurstThenMetersToRate) {
  // 1 class, threshold 0.5, burst 4 tu -> rate 0.5 work/s, 2.0 banked.
  TokenBucketGate g(1, 1.0, 1.0, 0.5, 4.0);
  EXPECT_TRUE(g.admit(0));  // no latched mask: classes are metered, not cut
  // Deficit semantics: the bucket admits while non-negative, so the third
  // unit request lands on exactly 0 and overdraws; the deficit then gates.
  EXPECT_TRUE(g.admit_request(0, 0.0, 1.0));
  EXPECT_TRUE(g.admit_request(0, 0.0, 1.0));
  EXPECT_TRUE(g.admit_request(0, 0.0, 1.0));
  EXPECT_FALSE(g.admit_request(0, 0.0, 1.0));
  // Offered 1 unit/s against the 0.5 rate: the bucket pays off a 1.0
  // deficit every 2 s, so exactly every other request is admitted.
  int admitted = 0;
  for (int t = 1; t <= 1000; ++t) {
    admitted += g.admit_request(0, static_cast<double>(t), 1.0) ? 1 : 0;
  }
  EXPECT_NEAR(admitted, 500, 5);
}

// Wraps a real gate to observe the latching contract: per-request verdicts
// may only change after an update() call (the estimation-window boundary),
// never between two arrivals inside the same window.
class LatchProbe final : public AdmissionController {
 public:
  LatchProbe(Simulator& sim, std::unique_ptr<AdmissionController> inner,
             std::size_t num_classes)
      : sim_(sim), inner_(std::move(inner)), seen_(num_classes) {}

  void update(const std::vector<double>& lambda_hat) override {
    inner_->update(lambda_hat);
    update_times.push_back(sim_.now());
  }
  bool admit(ClassId cls) const override { return inner_->admit(cls); }
  bool admit_request(ClassId cls, Time now, double size) override {
    const bool verdict = inner_->admit_request(cls, now, size);
    Seen& s = seen_[cls];
    if (s.observed && verdict != s.verdict) {
      ++flips;
      if (update_times.size() == s.updates_seen) ++unexplained_flips;
    }
    s = {true, verdict, update_times.size()};
    return verdict;
  }
  std::string name() const override { return inner_->name(); }

  std::vector<Time> update_times;
  std::size_t flips = 0;
  std::size_t unexplained_flips = 0;

 private:
  struct Seen {
    bool observed = false;
    bool verdict = false;
    std::size_t updates_seen = 0;
  };
  Simulator& sim_;
  std::unique_ptr<AdmissionController> inner_;
  std::vector<Seen> seen_;
};

TEST(ServerAdmission, GateDecisionsLatchOnEstimationWindows) {
  // MMPP phases swing total demand between 0.18 and 1.62 around the 0.85
  // threshold, so the gate sheds class 1 during bursts and readmits it in
  // the lulls — but every verdict change must coincide with an estimator
  // tick, and every tick must land on a realloc_period boundary.
  Simulator sim;
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  ServerConfig sc;
  sc.num_classes = 2;
  sc.realloc_period = 200.0;
  sc.estimator_history = 2;  // responsive estimate: phases span ~10 windows
  sc.metrics.num_classes = 2;
  sc.metrics.warmup_end = 2000.0;
  sc.metrics.window = 200.0;

  PsdAllocatorConfig pc;
  pc.delta = {1.0, 2.0};
  pc.mean_size = bp.mean();
  Server server(sim, sc, std::make_unique<DedicatedRateBackend>(),
                std::make_unique<PsdRateAllocator>(pc), Rng(3));
  auto probe = std::make_unique<LatchProbe>(
      sim, std::make_unique<UtilizationGate>(2, bp.mean(), 1.0, 0.85), 2);
  LatchProbe* latch = probe.get();
  server.set_admission(std::move(probe));
  server.start(0.0);

  const auto lam = rates_for_equal_load(0.9, 1.0, bp.mean(), 2);
  std::vector<std::unique_ptr<RequestGenerator>> gens;
  for (ClassId c = 0; c < 2; ++c) {
    // sojourn is denominated in mean interarrivals: 2000 * lam raw-time
    // high phases, long enough to outlast the estimator smoothing.
    gens.push_back(std::make_unique<RequestGenerator>(
        sim, Rng(50 + c), c,
        make_bursty_arrivals(lam[c], 1.8, 2000.0 * lam[c], 0.5),
        bp, server));
    gens.back()->start(0.0);
  }
  sim.run_until(40000.0);

  EXPECT_GE(latch->flips, 2u);  // shed at least once, readmitted at least once
  EXPECT_EQ(latch->unexplained_flips, 0u);  // changes only at boundaries
  ASSERT_GT(latch->update_times.size(), 100u);
  for (Time t : latch->update_times) {
    const double k = t / sc.realloc_period;
    EXPECT_NEAR(k, std::round(k), 1e-9) << "update off-boundary at t=" << t;
  }
}

TEST(ServerAdmission, OverloadedServerStaysStableWithGate) {
  // Offered load 1.6 (unstable).  With the utilization gate the highest
  // class must still see bounded queues and complete steadily.
  Simulator sim;
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  ServerConfig sc;
  sc.num_classes = 2;
  sc.realloc_period = 200.0;
  sc.metrics.num_classes = 2;
  sc.metrics.warmup_end = 2000.0;
  sc.metrics.window = 200.0;

  PsdAllocatorConfig pc;
  pc.delta = {1.0, 2.0};
  pc.mean_size = bp.mean();
  Server server(sim, sc, std::make_unique<DedicatedRateBackend>(),
                std::make_unique<PsdRateAllocator>(pc), Rng(3));
  server.set_admission(
      std::make_unique<UtilizationGate>(2, bp.mean(), 1.0, 0.85));
  server.start(0.0);  // admission decisions latch on estimator ticks

  const auto lam = rates_for_equal_load(1.6, 1.0, bp.mean(), 2);
  std::vector<std::unique_ptr<RequestGenerator>> gens;
  for (ClassId c = 0; c < 2; ++c) {
    gens.push_back(std::make_unique<RequestGenerator>(
        sim, Rng(50 + c), c, PoissonArrivals(lam[c]), bp, server));
    gens.back()->start(0.0);
  }
  sim.run_until(20000.0);
  server.finalize();

  EXPECT_GT(server.rejected_total(), 0u);
  EXPECT_EQ(server.rejected(0), 0u);  // highest class never shed
  EXPECT_GT(server.rejected(1), 1000u);
  // Class 0 keeps completing with finite mean slowdown.
  EXPECT_GT(server.metrics().completed(0), 5000u);
  EXPECT_LT(server.metrics().slowdown(0).mean(), 500.0);
}

TEST(ServerAdmission, NoGateMeansNoRejections) {
  Simulator sim;
  ServerConfig sc;
  sc.num_classes = 1;
  sc.metrics.num_classes = 1;
  Server server(sim, sc, std::make_unique<DedicatedRateBackend>(), nullptr,
                Rng(1));
  Request r;
  r.cls = 0;
  r.size = 1.0;
  sim.at_fast(0.0, [&] { server.submit(r); });
  sim.run_until(10.0);
  EXPECT_EQ(server.rejected_total(), 0u);
}

}  // namespace
}  // namespace psd
