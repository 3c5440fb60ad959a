// Lockstep batch execution: K independent replications of one scenario in a
// single task, on the lane-stepped kernel (src/sim/lane_stepper.hpp +
// src/dist/lane_block.hpp) instead of K separate Simulator instances.
//
// The kernel replaces only the *orchestration* — event heap, stream
// registry, InlineFunction dispatch, the Server/backend virtual call chain —
// with a flat per-lane loop over a SoA clock grid.  Every piece of stateful
// arithmetic (WaitingQueue, MetricsCollector, LoadEstimator, the allocator,
// the sampler/arrival draw streams, the dedicated-rate slot updates and the
// SFQ start/finish tags in the same floating-point operation order) is the
// same code or the same ops as the per-task path, and events fire in
// Simulator::run_until's order, so per-lane results are BITWISE identical
// to run_scenario(cfg, first_run_index + lane) — the contract
// tests/test_lockstep.cpp pins for both backends.  Shared immutable tables
// (the sampler's ziggurat/alias data, the arrival prototypes, the scenario
// protocol) are built once per point and shared across lanes.
#pragma once

#include <cstdint>
#include <vector>

#include "experiment/runner.hpp"

namespace psd {

/// True when `cfg` runs on the lane-stepped kernel: a single node without
/// an admission gate, on the dedicated-rate backend (the paper's model —
/// every campaign default) or the SFQ backend (its one-processor
/// realisation).  Other backends, gated and cluster scenarios still accept
/// lockstep scheduling; each lane of the group just executes the regular
/// per-task path.
bool lockstep_eligible(const ScenarioConfig& cfg);

/// Run `lanes` replications with run indices first_run_index ..
/// first_run_index + lanes - 1.  Results are returned in lane order and are
/// bitwise identical to calling run_scenario per index.
std::vector<RunResult> run_scenario_lanes(const ScenarioConfig& cfg,
                                          std::uint64_t first_run_index,
                                          std::size_t lanes);

}  // namespace psd
