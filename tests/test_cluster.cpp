// Cluster dispatcher: routing policies, SITA-E cutoffs, aggregate metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cluster/dispatcher.hpp"
#include "cluster/router.hpp"
#include "common/math.hpp"
#include "core/psd_rate_allocator.hpp"
#include "sched/dedicated_rate.hpp"
#include "workload/class_spec.hpp"
#include "workload/generator.hpp"

namespace psd {
namespace {

ServerConfig node_cfg(std::size_t classes) {
  ServerConfig sc;
  sc.num_classes = classes;
  sc.realloc_period = 200.0;
  sc.metrics.num_classes = classes;
  sc.metrics.warmup_end = 500.0;
  sc.metrics.window = 200.0;
  return sc;
}

Cluster::BackendFactory dedicated_factory() {
  return [] { return std::make_unique<DedicatedRateBackend>(); };
}

/// Expected work of BP(alpha, k, p) sizes in [a, b], by quadrature on
/// x pdf(x) = g x^{-alpha} — the oracle for the closed-form SITA-E cutoffs.
double bp_work(const BoundedParetoSampler& bp, double a, double b) {
  return integrate(
      [&](double x) { return bp.normalizer() * std::pow(x, -bp.alpha()); }, a,
      b, 1e-10);
}

Cluster::AllocatorFactory psd_factory(const BoundedParetoSampler& bp,
                                      std::vector<double> delta) {
  PsdAllocatorConfig pc;
  pc.delta = std::move(delta);
  pc.mean_size = bp.mean();
  return [pc] { return std::make_unique<PsdRateAllocator>(pc); };
}

TEST(SitaCutoffs, EqualLoadPartition) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto cuts = sita_equal_load_cutoffs(bp, 3);
  ASSERT_EQ(cuts.size(), 2u);
  EXPECT_GT(cuts[0], bp.min_value());
  EXPECT_LT(cuts[1], bp.max_value());
  EXPECT_LT(cuts[0], cuts[1]);
  // Each interval carries 1/3 of E[X]: check by quadrature on x f(x).
  const double total = bp_work(bp, bp.min_value(), bp.max_value());
  EXPECT_NEAR(bp_work(bp, bp.min_value(), cuts[0]) / total, 1.0 / 3.0, 1e-3);
  EXPECT_NEAR(bp_work(bp, cuts[0], cuts[1]) / total, 1.0 / 3.0, 1e-3);
}

TEST(SitaCutoffs, SingleNodeHasNoCutoffs) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  EXPECT_TRUE(sita_equal_load_cutoffs(bp, 1).empty());
}

TEST(SitaCutoffs, ZeroNodesRejected) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  EXPECT_THROW(sita_equal_load_cutoffs(bp, 0), std::invalid_argument);
}

TEST(SitaCutoffs, ManyNodesStayMonotoneAndInterior) {
  // More nodes than the support spans "distinct sizes" in any practical
  // sense: 64 intervals over [0.1, 100].  Cutoffs must stay strictly
  // increasing and strictly inside (k, p) — the bisection must not collapse
  // adjacent cutoffs onto each other or the bounds.
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const std::size_t nodes = 64;
  const auto cuts = sita_equal_load_cutoffs(bp, nodes);
  ASSERT_EQ(cuts.size(), nodes - 1);
  EXPECT_GT(cuts.front(), bp.min_value());
  EXPECT_LT(cuts.back(), bp.max_value());
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    EXPECT_GT(cuts[i], cuts[i - 1]);
  }
}

TEST(SitaCutoffs, NarrowSupportStaysOrdered) {
  // Nodes >> the distribution's dynamic range: a nearly-degenerate support
  // [1, 1.001] still yields non-decreasing interior cutoffs.
  const BoundedParetoSampler bp(1.5, 1.0, 1.001);
  const auto cuts = sita_equal_load_cutoffs(bp, 8);
  ASSERT_EQ(cuts.size(), 7u);
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    EXPECT_GE(cuts[i], bp.min_value());
    EXPECT_LE(cuts[i], bp.max_value());
    if (i > 0) EXPECT_GE(cuts[i], cuts[i - 1]);
  }
}

TEST(SitaCutoffs, AlphaOneUsesLogForm) {
  // alpha == 1 hits the log branch of the partial-work integral; the
  // equal-load property must hold there too.
  const BoundedParetoSampler bp(1.0, 0.1, 100.0);
  const auto cuts = sita_equal_load_cutoffs(bp, 2);
  ASSERT_EQ(cuts.size(), 1u);
  const double total = bp_work(bp, bp.min_value(), bp.max_value());
  EXPECT_NEAR(bp_work(bp, bp.min_value(), cuts[0]) / total, 0.5, 1e-3);
}

TEST(SitaCutoffs, TwoNodesHalveTheWork) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const auto cuts = sita_equal_load_cutoffs(bp, 2);
  ASSERT_EQ(cuts.size(), 1u);
  const double total = bp_work(bp, bp.min_value(), bp.max_value());
  EXPECT_NEAR(bp_work(bp, bp.min_value(), cuts[0]) / total, 0.5, 1e-3);
}

TEST(Cluster, RoundRobinBalancesDispatchCounts) {
  Simulator sim;
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  Cluster cluster(sim, 3, node_cfg(1), dedicated_factory(),
                  psd_factory(bp, {1.0}), AssignmentPolicy::kRoundRobin,
                  Rng(1));
  cluster.start(0.0);
  for (int i = 0; i < 99; ++i) {
    Request r;
    r.cls = 0;
    r.size = 0.5;
    r.arrival = 0.0;
    cluster.submit(r);
  }
  EXPECT_EQ(cluster.dispatched(0), 33u);
  EXPECT_EQ(cluster.dispatched(1), 33u);
  EXPECT_EQ(cluster.dispatched(2), 33u);
}

TEST(Cluster, RandomRoughlyBalances) {
  Simulator sim;
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  Cluster cluster(sim, 2, node_cfg(1), dedicated_factory(),
                  psd_factory(bp, {1.0}), AssignmentPolicy::kRandom, Rng(2));
  cluster.start(0.0);
  for (int i = 0; i < 10000; ++i) {
    Request r;
    r.cls = 0;
    r.size = 0.1;
    cluster.submit(r);
  }
  EXPECT_NEAR(static_cast<double>(cluster.dispatched(0)), 5000.0, 300.0);
}

TEST(Cluster, SizeIntervalRoutesBySize) {
  Simulator sim;
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  Cluster cluster(sim, 2, node_cfg(1), dedicated_factory(),
                  psd_factory(bp, {1.0}), AssignmentPolicy::kSizeInterval,
                  Rng(3), bp);
  // Two nodes: the one cutoff halves the expected work, near size 0.376.
  ASSERT_EQ(cluster.router().cutoffs(), sita_equal_load_cutoffs(bp, 2));
  cluster.start(0.0);
  Request small;
  small.cls = 0;
  small.size = 0.2;
  cluster.submit(small);
  Request big;
  big.cls = 0;
  big.size = 5.0;
  cluster.submit(big);
  EXPECT_EQ(cluster.dispatched(0), 1u);
  EXPECT_EQ(cluster.dispatched(1), 1u);
}

TEST(Cluster, SizeIntervalRequiresTheSizeLaw) {
  Simulator sim;
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  EXPECT_THROW(Cluster(sim, 3, node_cfg(1), dedicated_factory(),
                       psd_factory(bp, {1.0}),
                       AssignmentPolicy::kSizeInterval, Rng(1)),
               std::invalid_argument);
}

TEST(Cluster, LeastWorkLeftPrefersIdleNode) {
  Simulator sim;
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  Cluster cluster(sim, 2, node_cfg(1), dedicated_factory(),
                  psd_factory(bp, {1.0}), AssignmentPolicy::kLeastWorkLeft,
                  Rng(4));
  cluster.start(0.0);
  Request big;
  big.cls = 0;
  big.size = 50.0;
  cluster.submit(big);  // node 0 now has 50 outstanding
  for (int i = 0; i < 5; ++i) {
    Request small;
    small.cls = 0;
    small.size = 0.1;
    cluster.submit(small);  // all go to node 1 until it accumulates work
  }
  EXPECT_EQ(cluster.dispatched(0), 1u);
  EXPECT_EQ(cluster.dispatched(1), 5u);
  EXPECT_GT(cluster.outstanding_work(0), cluster.outstanding_work(1));
}

TEST(Cluster, OutstandingWorkDrainsOnCompletion) {
  Simulator sim;
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  auto cfg = node_cfg(1);
  cfg.metrics.warmup_end = 0.0;  // count the single early completion
  Cluster cluster(sim, 1, cfg, dedicated_factory(),
                  psd_factory(bp, {1.0}), AssignmentPolicy::kRoundRobin,
                  Rng(5));
  cluster.start(0.0);
  Request r;
  r.cls = 0;
  r.size = 2.0;
  sim.at_fast(0.0, [&] { cluster.submit(r); });
  sim.run_until(100.0);
  cluster.finalize();
  EXPECT_NEAR(cluster.outstanding_work(0), 0.0, 1e-9);
  EXPECT_EQ(cluster.completed_total(), 1u);
}

TEST(Cluster, EndToEndPsdOnEveryNode) {
  // Two classes, four nodes, round robin: the cluster-wide slowdown ratio
  // still honours the deltas because every node runs eq. 17 locally.
  Simulator sim;
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  const std::vector<double> delta = {1.0, 2.0};
  Cluster cluster(sim, 4, node_cfg(2), dedicated_factory(),
                  psd_factory(bp, delta), AssignmentPolicy::kRoundRobin,
                  Rng(6));
  cluster.start(0.0);

  // Total load 0.6 across 4 unit-capacity nodes.
  const auto lam = rates_for_equal_load(0.6 * 4.0, 1.0, bp.mean(), 2);
  std::vector<std::unique_ptr<RequestGenerator>> gens;
  for (ClassId c = 0; c < 2; ++c) {
    gens.push_back(std::make_unique<RequestGenerator>(
        sim, Rng(70 + c), c, PoissonArrivals(lam[c]), bp, cluster));
    gens.back()->start(0.0);
  }
  sim.run_until(30000.0);
  cluster.finalize();

  const auto sd = cluster.mean_slowdowns();
  ASSERT_GT(cluster.completed_total(), 50000u);
  EXPECT_LT(sd[0], sd[1]);
  EXPECT_NEAR(sd[1] / sd[0], 2.0, 0.9);
}


// ----------------------------------------------------------- AssignmentRouter
// The one routing implementation both the sim Cluster and the rt
// ClusterRuntime dispatch through (cluster/router.hpp).

TEST(Router, JsqFullScanTiesBreakToLowestIndex) {
  // d >= alive degenerates to a deterministic full least-loaded scan.
  AssignmentRouter r({AssignmentPolicy::kJsq, 8}, 4, Rng(1));
  EXPECT_EQ(r.route(1.0, {5.0, 3.0, 3.0, 9.0}), 1u);
  EXPECT_EQ(r.route(1.0, {2.0, 2.0, 2.0, 2.0}), 0u);
}

TEST(Router, JsqSamplesOnlyAliveNodes) {
  AssignmentRouter r({AssignmentPolicy::kJsq, 2}, 4, Rng(2));
  r.set_alive(0, false);
  r.set_alive(2, false);
  // Node 0 is idle but dead; every decision must land on 1 or 3.
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = r.route(1.0, {0.0, 4.0, 0.0, 5.0});
    EXPECT_TRUE(n == 1 || n == 3) << n;
  }
}

TEST(Router, JsqPrefersLessLoadedOfTheSample) {
  // With d = alive = 2 the sample (with replacement) either hits both
  // nodes — then the less-loaded one must win — or the same node twice.
  // Over many draws the idle node must dominate.
  AssignmentRouter r({AssignmentPolicy::kJsq, 2}, 4, Rng(3));
  r.set_alive(2, false);
  r.set_alive(3, false);
  int idle = 0;
  for (int i = 0; i < 400; ++i) {
    idle += r.route(1.0, {0.0, 50.0, 0.0, 0.0}) == 0 ? 1 : 0;
  }
  EXPECT_GT(idle, 250);
}

TEST(Router, SitaRebandsOverTheAliveNodes) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  AssignmentRouter r(AssignmentPolicy::kSizeInterval, 4, Rng(4), bp);
  const auto four = sita_equal_load_cutoffs(bp, 4);
  ASSERT_EQ(r.cutoffs(), four);
  EXPECT_EQ(r.route(bp.min_value(), {}), 0u);
  EXPECT_EQ(r.route(0.5 * (four[0] + four[1]), {}), 1u);
  EXPECT_EQ(r.route(bp.max_value(), {}), 3u);

  // Three survivors: three bands, band k on the k-th alive node.
  r.set_alive(1, false);
  const auto three = sita_equal_load_cutoffs(bp, 3);
  ASSERT_EQ(r.cutoffs(), three);
  EXPECT_EQ(r.route(bp.min_value(), {}), 0u);
  EXPECT_EQ(r.route(0.5 * (three[0] + three[1]), {}), 2u);
  EXPECT_EQ(r.route(bp.max_value(), {}), 3u);

  r.set_alive(3, false);
  ASSERT_EQ(r.cutoffs(), sita_equal_load_cutoffs(bp, 2));
  EXPECT_EQ(r.route(bp.min_value(), {}), 0u);
  EXPECT_EQ(r.route(bp.max_value(), {}), 2u);

  // Revival restores the original bands.
  r.set_alive(1, true);
  r.set_alive(3, true);
  EXPECT_EQ(r.cutoffs(), four);
}

TEST(Router, SitaKillLeavesEveryAliveNodeEqualWork) {
  // After a kill each survivor's band carries the same share of E[X],
  // checked by quadrature on x f(x): no survivor inherits a second band.
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  AssignmentRouter r(AssignmentPolicy::kSizeInterval, 4, Rng(4), bp);
  r.set_alive(2, false);
  const auto& cuts = r.cutoffs();
  ASSERT_EQ(cuts.size(), 2u);
  const double total = bp_work(bp, bp.min_value(), bp.max_value());
  std::vector<double> edges = {bp.min_value()};
  edges.insert(edges.end(), cuts.begin(), cuts.end());
  edges.push_back(bp.max_value());
  const std::size_t owners[] = {0, 1, 3};
  for (std::size_t band = 0; band < 3; ++band) {
    const double lo = edges[band];
    const double hi = edges[band + 1];
    EXPECT_EQ(r.route(0.5 * (lo + hi), {}), owners[band]) << band;
    EXPECT_NEAR(bp_work(bp, lo, hi) / total, 1.0 / 3.0, 1e-3) << band;
  }
}

TEST(Router, RoundRobinSkipsDeadNodes) {
  AssignmentRouter r(AssignmentPolicy::kRoundRobin, 3, Rng(5));
  r.set_alive(1, false);
  EXPECT_EQ(r.route(1.0, {}), 0u);
  EXPECT_EQ(r.route(1.0, {}), 2u);
  EXPECT_EQ(r.route(1.0, {}), 0u);
  EXPECT_EQ(r.alive_count(), 2u);
}

TEST(Router, LastAliveNodeCannotBeKilled) {
  AssignmentRouter r(AssignmentPolicy::kRoundRobin, 2, Rng(6));
  r.set_alive(0, false);
  EXPECT_THROW(r.set_alive(1, false), std::invalid_argument);
  r.set_alive(0, true);  // revival re-enters the rotation
  EXPECT_EQ(r.alive_count(), 2u);
}

}  // namespace
}  // namespace psd
