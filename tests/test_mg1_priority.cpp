// Cobham's non-preemptive priority M/G/1 formulas, cross-validated against
// the PriorityBackend simulation (strict policy).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/pdd_policies.hpp"
#include "dist/sampler.hpp"
#include "queueing/mg1.hpp"
#include "queueing/mg1_priority.hpp"
#include "sim/simulator.hpp"
#include "stats/online.hpp"
#include "workload/generator.hpp"

namespace psd {
namespace {

TEST(Mg1Priority, SingleClassReducesToPlainMg1) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const double lam = 0.6 / bp.mean();
  Mg1Priority prio({lam}, {bp});
  Mg1 plain(lam, bp);
  EXPECT_NEAR(prio.expected_wait(0), plain.expected_wait(), 1e-12);
  EXPECT_NEAR(prio.expected_slowdown(0), plain.expected_slowdown(), 1e-12);
}

TEST(Mg1Priority, TwoClassTextbookValues) {
  // M/D/1 with two equal classes, service 1, lambda 0.25 each (rho = 0.5).
  // R = (0.25 + 0.25) * 1 / 2 = 0.25.
  // W_1 = R / (1 * (1 - 0.25)) = 1/3; W_2 = R / (0.75 * 0.5) = 2/3.
  const DeterministicSampler d(1.0);
  Mg1Priority prio({0.25, 0.25}, {d, d});
  EXPECT_NEAR(prio.expected_wait(0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(prio.expected_wait(1), 2.0 / 3.0, 1e-12);
}

TEST(Mg1Priority, ConservationLaw) {
  // Kleinrock's conservation: sum rho_i W_i is invariant and equals
  // rho * W_fcfs for any non-preemptive work-conserving discipline.
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const double lam = 0.35 / bp.mean();
  Mg1Priority prio({lam, lam}, {bp, bp});
  Mg1 fcfs(2.0 * lam, bp);
  const double rho_i = lam * bp.mean();
  const double lhs =
      rho_i * prio.expected_wait(0) + rho_i * prio.expected_wait(1);
  const double rhs = 2.0 * rho_i * fcfs.expected_wait();
  EXPECT_NEAR(lhs / rhs, 1.0, 1e-12);
}

TEST(Mg1Priority, HigherClassAlwaysWaitsLess) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const double lam = 0.2 / bp.mean();
  Mg1Priority prio({lam, lam, lam, lam}, {bp, bp, bp, bp});
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(prio.expected_wait(i), prio.expected_wait(i - 1));
  }
}

TEST(Mg1Priority, UnstableLowerClassThrowsButHigherWorks) {
  const DeterministicSampler d(1.0);
  Mg1Priority prio({0.5, 0.7}, {d, d});  // total rho 1.2
  EXPECT_GT(prio.expected_wait(0), 0.0);   // sigma_1 = 0.5 < 1: finite
  EXPECT_THROW(prio.expected_wait(1), std::domain_error);
  EXPECT_FALSE(prio.stable());
}

TEST(Mg1Priority, SlowdownUndefinedForExponential) {
  const ExponentialSampler e(1.0);
  Mg1Priority prio({0.4}, {e});
  EXPECT_GT(prio.expected_wait(0), 0.0);
  EXPECT_THROW(prio.expected_slowdown(0), std::domain_error);
}

TEST(Mg1Priority, RatiosAreLoadDeterminedNotControllable) {
  // The paper's §5 point made quantitative: under strict priority the
  // delay-ratio between classes is fully determined by the loads — there is
  // no operator knob.  Doubling class-2 load changes the ratio; nothing the
  // operator configures can restore it.
  const DeterministicSampler d(1.0);
  Mg1Priority base({0.25, 0.25}, {d, d});
  Mg1Priority shifted({0.25, 0.45}, {d, d});
  const double ratio_base = base.expected_wait(1) / base.expected_wait(0);
  const double ratio_shift =
      shifted.expected_wait(1) / shifted.expected_wait(0);
  EXPECT_GT(std::abs(ratio_base - ratio_shift), 0.3);
}

// --- simulation cross-check -------------------------------------------------

TEST(Mg1PrioritySim, StrictBackendMatchesCobham) {
  // Strict-priority simulation vs the closed form, deterministic service
  // (tight convergence).
  Simulator sim;
  std::vector<WaitingQueue> queues(2);
  std::vector<OnlineMoments> delay(2);
  auto backend = make_strict_backend(2);
  backend->attach(sim, queues, 1.0, Rng(1), [&](Request&& r) {
    delay[r.cls].add(r.delay());
  });

  struct Sink final : RequestSink {
    Simulator* sim;
    std::vector<WaitingQueue>* queues;
    SchedulerBackend* backend;
    void submit(const Request& req) override {
      const ClassId cls = req.cls;
      (*queues)[cls].push(req, sim->now());
      backend->notify_arrival(cls);
    }
  } sink;
  sink.sim = &sim;
  sink.queues = &queues;
  sink.backend = backend.get();

  std::vector<std::unique_ptr<RequestGenerator>> gens;
  for (ClassId c = 0; c < 2; ++c) {
    gens.push_back(std::make_unique<RequestGenerator>(
        sim, Rng(100 + c), c, PoissonArrivals(0.25),
        DeterministicSampler(1.0), sink));
    gens.back()->start(0.0);
  }
  sim.run_until(400000.0);
  for (auto& g : gens) g->stop();

  const DeterministicSampler d(1.0);
  Mg1Priority prio({0.25, 0.25}, {d, d});
  ASSERT_GT(delay[0].count(), 50000u);
  EXPECT_NEAR(delay[0].mean() / prio.expected_wait(0), 1.0, 0.05);
  EXPECT_NEAR(delay[1].mean() / prio.expected_wait(1), 1.0, 0.05);
}

}  // namespace
}  // namespace psd
