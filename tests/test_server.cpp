// Server composition: wiring, reallocation loop, estimator integration.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/static_allocators.hpp"
#include "core/psd_rate_allocator.hpp"
#include "dist/sampler.hpp"
#include "sched/dedicated_rate.hpp"
#include "server/server.hpp"
#include "workload/generator.hpp"

namespace psd {
namespace {

ServerConfig base_cfg(std::size_t classes, Duration realloc = 0.0) {
  ServerConfig c;
  c.num_classes = classes;
  c.capacity = 1.0;
  c.realloc_period = realloc;
  c.metrics.num_classes = classes;
  c.metrics.warmup_end = 0.0;
  c.metrics.window = 100.0;
  return c;
}

TEST(Server, ProcessesSubmittedRequestEndToEnd) {
  Simulator sim;
  Server server(sim, base_cfg(1), std::make_unique<DedicatedRateBackend>(),
                nullptr, Rng(1));
  Request r;
  r.cls = 0;
  r.arrival = 0.0;
  r.size = 2.0;
  sim.at_fast(0.0, [&] { server.submit(r); });
  sim.run_until(10.0);
  server.finalize();
  EXPECT_EQ(server.metrics().completed(0), 1u);
  EXPECT_EQ(server.submitted(), 1u);
  EXPECT_DOUBLE_EQ(server.metrics().service(0).mean(), 2.0);
}

TEST(Server, InitialRatesDefaultToEqualSplit) {
  Simulator sim;
  Server server(sim, base_cfg(4), std::make_unique<DedicatedRateBackend>(),
                nullptr, Rng(1));
  for (double r : server.current_rates()) EXPECT_DOUBLE_EQ(r, 0.25);
}

TEST(Server, ExplicitInitialRatesRespected) {
  Simulator sim;
  auto cfg = base_cfg(2);
  cfg.initial_rates = {0.8, 0.2};
  Server server(sim, cfg, std::make_unique<DedicatedRateBackend>(), nullptr,
                Rng(1));
  EXPECT_DOUBLE_EQ(server.current_rates()[0], 0.8);
}

TEST(Server, InitialRatesExceedingCapacityRejected) {
  Simulator sim;
  auto cfg = base_cfg(2);
  cfg.initial_rates = {0.8, 0.8};
  EXPECT_THROW(Server(sim, cfg, std::make_unique<DedicatedRateBackend>(),
                      nullptr, Rng(1)),
               std::invalid_argument);
}

TEST(Server, ReallocRequiresAllocator) {
  Simulator sim;
  EXPECT_THROW(Server(sim, base_cfg(1, 100.0),
                      std::make_unique<DedicatedRateBackend>(), nullptr,
                      Rng(1)),
               std::invalid_argument);
}

TEST(Server, PeriodicReallocationUpdatesRates) {
  Simulator sim;
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  PsdAllocatorConfig pc;
  pc.delta = {1.0, 2.0};
  pc.mean_size = bp.mean();
  Server server(sim, base_cfg(2, 100.0),
                std::make_unique<DedicatedRateBackend>(),
                std::make_unique<PsdRateAllocator>(pc), Rng(2));
  server.start(0.0);

  // Only class 0 receives traffic: after reallocation its rate must exceed
  // the cold-start equal split.
  std::vector<std::unique_ptr<RequestGenerator>> gens;
  gens.push_back(std::make_unique<RequestGenerator>(
      sim, Rng(3), 0, PoissonArrivals(1.0), bp, server));
  gens[0]->start(0.0);
  sim.run_until(1000.0);
  EXPECT_GE(server.reallocations(), 9u);
  EXPECT_GT(server.current_rates()[0], 0.9);
  EXPECT_LT(server.current_rates()[1], 0.1);
}

TEST(Server, EstimatorSeesArrivals) {
  Simulator sim;
  Server server(sim, base_cfg(2, 100.0),
                std::make_unique<DedicatedRateBackend>(),
                std::make_unique<EqualShareAllocator>(2, 1.0), Rng(1));
  server.start(0.0);
  for (int i = 0; i < 50; ++i) {
    const Time arrival = static_cast<double>(i);
    sim.at_fast(arrival, [&server, arrival] {
      Request r;
      r.cls = 1;
      r.arrival = arrival;
      r.size = 0.5;
      server.submit(r);
    });
  }
  sim.run_until(100.0);  // first estimator window closes
  const auto lam = server.estimator().lambda_estimate();
  EXPECT_DOUBLE_EQ(lam[0], 0.0);
  EXPECT_NEAR(lam[1], 0.5, 1e-9);
}

TEST(Server, SubmitValidatesRequests) {
  Simulator sim;
  Server server(sim, base_cfg(2), std::make_unique<DedicatedRateBackend>(),
                nullptr, Rng(1));
  Request bad_cls;
  bad_cls.cls = 7;
  bad_cls.size = 1.0;
  EXPECT_THROW(server.submit(bad_cls), std::invalid_argument);
  Request bad_size;
  bad_size.cls = 0;
  bad_size.size = 0.0;
  EXPECT_THROW(server.submit(bad_size), std::invalid_argument);
}

TEST(Server, MetricsClassCountMustMatch) {
  Simulator sim;
  auto cfg = base_cfg(2);
  cfg.metrics.num_classes = 3;
  EXPECT_THROW(Server(sim, cfg, std::make_unique<DedicatedRateBackend>(),
                      nullptr, Rng(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace psd
