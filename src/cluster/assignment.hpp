// Task-assignment policies for multi-node dispatching (Harchol-Balter's
// task assignment [13]; see cluster/dispatcher.hpp for the mechanisms).
// Split out so light-weight configs (ScenarioConfig, GridSpec) can name a
// policy without pulling in the full server composition.
#pragma once

#include <cstddef>
#include <string>

namespace psd {

enum class AssignmentPolicy {
  kRandom,        ///< Uniform random node.
  kRoundRobin,    ///< Cyclic.
  kLeastWorkLeft, ///< Node with the least outstanding work (size-aware).
  kSizeInterval,  ///< SITA-E: size bands with equal expected load per node.
  kJsq,           ///< JSQ(d): least-loaded of d uniformly sampled nodes.
};

/// Copyable, comparable assignment spec (DistSpec / LoadProfile idiom):
/// the policy plus its one parameter — the JSQ sample width d.  Implicitly
/// constructible from a bare AssignmentPolicy so call sites that never
/// touch d keep reading naturally.
struct AssignmentSpec {
  AssignmentPolicy policy = AssignmentPolicy::kRoundRobin;
  std::size_t d = 2;  ///< JSQ sample size; ignored by the other policies.

  AssignmentSpec() = default;
  AssignmentSpec(AssignmentPolicy p, std::size_t jsq_d = 2)  // NOLINT
      : policy(p), d(jsq_d) {}

  void validate() const;

  /// Canonical parsable form: "random" | "rr" | "lwl" | "sita" | "jsq<d>"
  /// (e.g. "jsq2").
  std::string name() const;

  /// Inverse of name().  Also accepts bare "jsq" (d defaults to 2).
  /// Throws psd::Error on malformed input.
  static AssignmentSpec parse(const std::string& spec);

  friend bool operator==(const AssignmentSpec& x, const AssignmentSpec& y) {
    return x.policy == y.policy &&
           (x.policy != AssignmentPolicy::kJsq || x.d == y.d);
  }
  friend bool operator!=(const AssignmentSpec& x, const AssignmentSpec& y) {
    return !(x == y);
  }
};

}  // namespace psd
