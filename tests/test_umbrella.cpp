// The umbrella header must compile standalone and expose the public API.
#include "psd.hpp"

#include <gtest/gtest.h>

namespace psd {
namespace {

TEST(Umbrella, PublicTypesAreVisible) {
  const BoundedParetoSampler bp(1.5, 0.1, 100.0);
  EXPECT_GT(bp.mean(), 0.0);

  Mg1 mg1(0.5 / bp.mean(), bp);
  EXPECT_TRUE(mg1.stable());

  ScenarioConfig cfg;
  cfg.validate();

  Simulator sim;
  EXPECT_TRUE(sim.idle());

  PsdInput in;
  in.lambda = {0.5};
  in.delta = {1.0};
  in.mean_size = bp.mean();
  EXPECT_NEAR(allocate_psd_rates(in).rate[0], 1.0, 1e-12);
}

TEST(Umbrella, EndToEndOneLiner) {
  ScenarioConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = 0.4;
  cfg.warmup_tu = 200.0;
  cfg.measure_tu = 1500.0;
  const auto r = run_replications(cfg, 2);
  EXPECT_GT(r.completed_total, 0u);
}

}  // namespace
}  // namespace psd
