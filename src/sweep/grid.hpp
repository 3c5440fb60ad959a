// Declarative parameter grids: the paper's evaluation (Figs. 2-12) and the
// ablations are all crosses of load x differentiation weights x backend x
// service-time shape (x cluster policy for the task-assignment extension).
// A GridSpec names the axes once; expand_grid() crosses them into concrete
// ScenarioConfigs, keyed by a content hash so campaigns are deduplicated,
// resumable, and execution-order independent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"

namespace psd {

struct GridSpec {
  /// Template for every point; axis values overwrite the matching fields.
  /// An empty axis means "keep the base value" (a single implicit value).
  ScenarioConfig base;

  std::vector<double> loads;                    ///< Utilization in (0,1).
  std::vector<std::vector<double>> deltas;      ///< Class weight vectors.
  std::vector<BackendKind> backends;
  std::vector<AllocatorKind> allocators;
  std::vector<DistSpec> dists;
  std::vector<RateChangePolicy> rate_changes;
  std::vector<std::size_t> cluster_nodes;
  std::vector<AssignmentPolicy> cluster_policies;
  /// Nonstationary load profiles (times in paper tu); LoadProfile::none()
  /// as an axis value runs the stationary control alongside the transients.
  std::vector<LoadProfile> profiles;
  /// Admission policies; AdmissionSpec{} (kNone) as an axis value runs the
  /// ungated control alongside the gated points.  Any active spec lifts the
  /// load < 1 restriction, so overload factors belong on the loads axis.
  std::vector<AdmissionSpec> admissions;
};

struct CampaignPoint {
  ScenarioConfig cfg;
  std::string key;    ///< `hash` as 16 lowercase hex digits.
  std::string label;  ///< Short human-readable axis summary.
  std::uint64_t hash = 0;  ///< config_hash(cfg): FNV-1a of the canonical.
};

/// Cross the axes (loads varying fastest, deltas slowest), validate each
/// config, drop content-duplicates, and key every survivor.  Order is
/// deterministic: nesting order of the axes above, reversed (deltas
/// outermost).  Each point's canonical config renders once: it is both the
/// dedup identity and the input of `hash`.
std::vector<CampaignPoint> expand_grid(const GridSpec& grid);

/// Canonical serialization of every semantic ScenarioConfig field EXCEPT
/// `seed` (the campaign overwrites seeds, and a point's identity must not
/// depend on one).  Fields irrelevant to the selected machinery are
/// normalized to their defaults first — the lottery quantum with a
/// non-lottery backend, the rate-change policy off the dedicated backend,
/// adaptive gains off the adaptive allocator, the cluster policy on one
/// node, burstiness off bursty arrivals, the recording window with
/// recording off — so two configs that cannot behave differently share one
/// key (better dedup, and fixing a lottery-only parameter does not
/// invalidate the resume keys of dedicated points).  Doubles render as
/// "%.17g" renders them (common/format.hpp): 17 significant digits
/// round-trip, so equal strings mean bitwise-equal fields.  The bytes are
/// frozen: keys, point seeds and resume files all hash them.
std::string config_canonical(const ScenarioConfig& cfg);

/// FNV-1a (64-bit) over config_canonical().
std::uint64_t config_hash(const ScenarioConfig& cfg);

/// config_hash as 16 lowercase hex digits — the JSONL "key" field.
std::string config_key(const ScenarioConfig& cfg);

/// Deterministic per-point seed from (campaign master seed, config content);
/// independent of expansion or execution order.
std::uint64_t derive_point_seed(std::uint64_t master_seed,
                                const ScenarioConfig& cfg);
/// The same seed from a hash already computed (CampaignPoint::hash).
std::uint64_t derive_point_seed(std::uint64_t master_seed,
                                std::uint64_t hash);

// --- axis-value names (shared by labels, JSONL records, CLI parsing) ---
const char* backend_name(BackendKind k);
const char* allocator_name(AllocatorKind k);
const char* rate_change_name(RateChangePolicy p);
const char* assignment_policy_name(AssignmentPolicy p);
/// CLI-style spec, e.g. "bp:1.5,0.1,100" (parsable by tools/cli_util.hpp).
std::string dist_name(const DistSpec& spec);

}  // namespace psd
