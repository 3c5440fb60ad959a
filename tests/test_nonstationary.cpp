// Nonstationary traffic: the rate allocator is a *periodic* controller, so
// the system must re-converge after load shifts — the adaptiveness claim
// behind the paper's estimator design ("the load for next thousand time
// units was the average load in past five thousand time units").
#include <gtest/gtest.h>

#include <memory>

#include "core/psd_rate_allocator.hpp"
#include "dist/sampler.hpp"
#include "sched/dedicated_rate.hpp"
#include "server/server.hpp"
#include "workload/class_spec.hpp"
#include "workload/generator.hpp"

namespace psd {
namespace {

struct Rig {
  Simulator sim;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<RequestGenerator>> gens;
  const BoundedParetoSampler bp{1.5, 0.1, 100.0};

  explicit Rig(std::vector<double> delta) {
    ServerConfig sc;
    sc.num_classes = delta.size();
    sc.realloc_period = 290.0;  // ~1000 tu
    sc.metrics.num_classes = delta.size();
    sc.metrics.warmup_end = 0.0;
    sc.metrics.window = 290.0;
    PsdAllocatorConfig pc;
    pc.delta = delta;
    pc.mean_size = bp.mean();
    server = std::make_unique<Server>(
        sim, sc, std::make_unique<DedicatedRateBackend>(),
        std::make_unique<PsdRateAllocator>(pc), Rng(17));
    server->start(0.0);
  }

  RequestGenerator* add_generator(ClassId cls, double lambda,
                                  std::uint64_t seed) {
    gens.push_back(std::make_unique<RequestGenerator>(
        sim, Rng(seed), cls, PoissonArrivals(lambda),
        bp, *server));
    return gens.back().get();
  }
};

TEST(Nonstationary, RatesTrackLoadShift) {
  // Phase 1: only class 0 loaded -> it should own most of the capacity.
  // Phase 2: class 0 stops, class 1 ramps -> allocation must flip.
  Rig rig({1.0, 2.0});
  auto* g0 = rig.add_generator(0, 2.0, 100);
  g0->start(0.0);
  rig.sim.run_until(8000.0);
  const double r0_phase1 = rig.server->current_rates()[0];
  EXPECT_GT(r0_phase1, 0.9);

  g0->stop();
  auto* g1 = rig.add_generator(1, 2.0, 101);
  g1->start(rig.sim.now());
  rig.sim.run_until(20000.0);
  const auto& rates = rig.server->current_rates();
  EXPECT_GT(rates[1], 0.9);
  EXPECT_LT(rates[0], 0.1);
}

TEST(Nonstationary, EstimatorLagIsBoundedByHistoryWindow) {
  // After a step change the estimate is fully refreshed once `history`
  // windows have elapsed; rates must settle within ~6 realloc periods.
  Rig rig({1.0, 2.0});
  auto* g0 = rig.add_generator(0, 1.0, 200);
  auto* g1 = rig.add_generator(1, 1.0, 201);
  g0->start(0.0);
  g1->start(0.0);
  rig.sim.run_until(10000.0);

  // Step: class 1 doubles its rate.
  g1->stop();
  auto* g1b = rig.add_generator(1, 2.0, 202);
  g1b->start(rig.sim.now());

  rig.sim.run_until(10000.0 + 7 * 290.0);
  const auto lam = rig.server->estimator().lambda_estimate();
  EXPECT_NEAR(lam[1], 2.0, 0.4);  // fully refreshed estimate
  EXPECT_NEAR(lam[0], 1.0, 0.3);
}

TEST(Nonstationary, RatioRecoversAfterBurst) {
  // A transient 3x burst on class 1 perturbs the ratio; once the burst ends
  // the long-run means over the post-burst era must again be ordered and
  // roughly proportional.
  Rig rig({1.0, 2.0});
  const auto lam = rates_for_equal_load(0.5, 1.0, rig.bp.mean(), 2);
  auto* g0 = rig.add_generator(0, lam[0], 300);
  auto* g1 = rig.add_generator(1, lam[1], 301);
  g0->start(0.0);
  g1->start(0.0);
  rig.sim.run_until(5000.0);

  auto* burst = rig.add_generator(1, 2.0 * lam[1], 302);
  burst->start(rig.sim.now());
  rig.sim.run_until(8000.0);
  burst->stop();

  rig.sim.run_until(60000.0);
  rig.server->finalize();

  // Judge recovery on the post-burst era only (the whole-run mean is
  // dominated by the backlog drained right after the burst): average the
  // per-window means from well after the burst ended.
  auto era_mean = [&](ClassId c) {
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto& w : rig.server->metrics().windows(c)) {
      if (w.start > 15000.0 && w.count > 0) {
        sum += w.mean * static_cast<double>(w.count);
        n += w.count;
      }
    }
    return n ? sum / static_cast<double>(n) : kNaN;
  };
  const double s0 = era_mean(0);
  const double s1 = era_mean(1);
  EXPECT_LT(s0, s1);
  EXPECT_GT(s1 / s0, 1.1);
  EXPECT_LT(s1 / s0, 8.0);
}

TEST(Nonstationary, ColdStartServesBeforeFirstEstimate) {
  // Requests arriving before the first estimator window closes must still
  // be served (equal initial split), not stall.
  Rig rig({1.0, 2.0});
  auto* g = rig.add_generator(0, 1.0, 400);
  g->start(0.0);
  rig.sim.run_until(200.0);  // before the first realloc at 290
  rig.server->finalize();
  EXPECT_GT(rig.server->metrics().completed(0), 100u);
}

}  // namespace
}  // namespace psd
