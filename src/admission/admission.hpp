// Admission control (paper §5: admission control is the standard companion
// of DiffServ scheduling — Abdelzaher et al., Lee/Lui/Yau — but is "not
// sufficient" for PSD on its own; here it complements the eq.-17 allocator).
//
// Controllers gate requests *before* they enter the waiting queues:
//   * AdmitAll            — pass-through (default).
//   * UtilizationGate     — reject any class's request when the measured
//                           total utilization demand exceeds a threshold
//                           (overload protection, Abdelzaher-style).
//   * SlowdownBudgetGate  — the PSD-native controller: admit a request only
//                           while eq. 18 predicts every class's slowdown
//                           stays within its budget delta_i * S_max at the
//                           current estimated loads.  Uses the closed form,
//                           so the gate is O(N) per decision window.
//   * ProportionalShedGate — delta-aware graceful degradation: thin *every*
//                           class (deterministic error-diffusion thinning)
//                           so the admitted lambdas stay under the target
//                           utilization while all classes survive — the
//                           eq.-17 allocator then still holds every ratio.
//   * TokenBucketGate     — per-class work-rate caps (rt/token_bucket.hpp
//                           deficit buckets): each class banks an equal
//                           share of threshold * capacity.
// Controllers are evaluated per estimation window (decisions latch between
// reallocations, mirroring the rate allocator's cadence).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/sampler.hpp"
#include "rt/token_bucket.hpp"

namespace psd {

/// How a policy sheds, for span/trace annotation (obs/trace.hpp SpanVerdict
/// is value-aligned with this enum; the shard span hook static_asserts it).
/// kAdmitted is never returned by shed_verdict(); it exists so the verdict
/// byte has one shared zero meaning "not shed".
enum AdmitVerdict : std::uint8_t {
  kAdmitted = 0,
  kShedMask = 1,     ///< Latched per-class admit/deny mask said no.
  kShedThinned = 2,  ///< Within-class proportional thinning said no.
  kShedBucket = 3,   ///< The class's token bucket was empty.
};

class AdmissionController {
 public:
  virtual ~AdmissionController() = default;

  /// Latch per-class admit/deny decisions from fresh load estimates.
  /// Called once per estimation window with per-class lambda estimates.
  virtual void update(const std::vector<double>& lambda_hat) = 0;

  /// Decide for one arriving request of class `cls` (must be O(1)).
  virtual bool admit(ClassId cls) const = 0;

  /// Per-request decision hook: policies that thin within a class (error
  /// diffusion) or meter work (token buckets) need the arrival time and
  /// size; the latched-mask gates ignore both.  `now` must be monotone
  /// across calls.  Default forwards to the latched admit().
  virtual bool admit_request(ClassId cls, Time now, double size) {
    (void)now;
    (void)size;
    return admit(cls);
  }

  /// How this policy sheds when admit_request() returns false — a static
  /// property of the policy, used to annotate shed spans.  Mask-style gates
  /// (the default) deny whole classes; thinning and metering policies
  /// override.
  virtual AdmitVerdict shed_verdict() const { return kShedMask; }

  virtual std::string name() const = 0;
};

class AdmitAll final : public AdmissionController {
 public:
  void update(const std::vector<double>& /*lambda_hat*/) override {}
  bool admit(ClassId /*cls*/) const override { return true; }
  std::string name() const override { return "admit-all"; }
};

/// Rejects *lower* classes first when estimated utilization exceeds the
/// threshold: classes are dropped from the lowest priority (largest index)
/// upward until the remaining demand fits.
class UtilizationGate final : public AdmissionController {
 public:
  UtilizationGate(std::size_t num_classes, double mean_size, double capacity,
                  double threshold = 0.9);

  void update(const std::vector<double>& lambda_hat) override;
  bool admit(ClassId cls) const override;
  std::string name() const override { return "utilization-gate"; }

  const std::vector<bool>& admitted() const { return admit_; }

 private:
  double mean_size_, capacity_, threshold_;
  std::vector<bool> admit_;
};

/// Admit while eq. 18 keeps every class's predicted slowdown within
/// delta_i * max_unit_slowdown; otherwise shed lower classes first.
class SlowdownBudgetGate final : public AdmissionController {
 public:
  /// `max_unit_slowdown`: budget for a hypothetical delta == 1 class; class
  /// i's budget is delta_i * max_unit_slowdown (proportionality preserved).
  SlowdownBudgetGate(std::vector<double> delta, SamplerVariant dist,
                     double capacity, double max_unit_slowdown);

  void update(const std::vector<double>& lambda_hat) override;
  bool admit(ClassId cls) const override;
  std::string name() const override { return "slowdown-budget"; }

  const std::vector<bool>& admitted() const { return admit_; }

 private:
  /// Predicted unit slowdown (E[S_i]/delta_i) if only classes with
  /// mask[j] participate; +inf when infeasible.
  double predicted_unit_slowdown(const std::vector<double>& lambda_hat,
                                 const std::vector<bool>& mask) const;

  std::vector<double> delta_;
  SamplerVariant dist_;
  double capacity_, budget_;
  std::vector<bool> admit_;
};

/// Delta-aware proportional shedding: when estimated demand exceeds
/// threshold * capacity, thin every class — shedding work in proportion to
/// delta_c * lambda_c * E[X], so lower classes (larger delta) shed more —
/// instead of cutting whole classes.  All classes stay alive, the admitted
/// demand fits under the target, and the eq.-17 allocator keeps *all*
/// slowdown ratios among the survivors (which is every class).
///
/// Per-request thinning is deterministic error diffusion: class c banks
/// keep_[c] of credit per arrival and admits whenever the bank reaches one
/// whole request — so an admitted fraction of exactly keep_[c] with no RNG,
/// preserving replay/bitwise determinism.
class ProportionalShedGate final : public AdmissionController {
 public:
  ProportionalShedGate(std::vector<double> delta, double mean_size,
                       double capacity, double threshold = 0.9);

  void update(const std::vector<double>& lambda_hat) override;
  bool admit(ClassId cls) const override;
  bool admit_request(ClassId cls, Time now, double size) override;
  AdmitVerdict shed_verdict() const override { return kShedThinned; }
  std::string name() const override { return "delta-aware"; }

  /// Admitted fraction per class after the last update (1.0 = no shedding).
  const std::vector<double>& keep() const { return keep_; }

 private:
  std::vector<double> delta_;
  double mean_size_, capacity_, threshold_;
  std::vector<double> keep_;    ///< Latched admitted fraction per class.
  std::vector<double> credit_;  ///< Error-diffusion accumulators.
};

/// Per-class work-rate caps: class c owns a deficit token bucket accruing an
/// equal share of threshold * capacity work units per time unit; a request
/// is admitted while its class bucket is non-negative and debits its size.
/// No latched mask — classes are never cut, just metered.
class TokenBucketGate final : public AdmissionController {
 public:
  /// `burst_tu`: banked allowance per class, measured in mean-request
  /// service times (paper tu: burst = rate * burst_tu * mean_size /
  /// capacity work units) so one spec means the same thing in simulator
  /// raw time and rt wall seconds.
  TokenBucketGate(std::size_t num_classes, double mean_size, double capacity,
                  double threshold = 0.9, double burst_tu = 4.0);

  void update(const std::vector<double>& /*lambda_hat*/) override {}
  bool admit(ClassId /*cls*/) const override { return true; }
  bool admit_request(ClassId cls, Time now, double size) override;
  AdmitVerdict shed_verdict() const override { return kShedBucket; }
  std::string name() const override { return "token-bucket"; }

 private:
  std::vector<rt::TokenBucket> class_bucket_;
};

/// Copyable, comparable, serializable admission-policy spec (DistSpec /
/// LoadProfile idiom): what ScenarioConfig / RtConfig / the campaign grid
/// carry; make_admission() turns it into a live controller.
struct AdmissionSpec {
  enum class Kind {
    kNone,            ///< No gate installed (default; zero-cost path).
    kAdmitAll,        ///< Explicit pass-through (counts offered load).
    kUtilization,     ///< UtilizationGate at `threshold`.
    kSlowdownBudget,  ///< SlowdownBudgetGate at `budget` unit slowdown.
    kDeltaAware,      ///< ProportionalShedGate at `threshold`.
    kTokenBucket,     ///< TokenBucketGate at `threshold`, `burst_tu`.
  };

  Kind kind = Kind::kNone;
  double threshold = 0.9;  ///< Target utilization (util/delta-aware/bucket).
  double budget = 25.0;    ///< Max unit slowdown (slowdown-budget).
  double burst_tu = 4.0;   ///< Bucket burst, in time units (token-bucket).

  bool active() const { return kind != Kind::kNone; }

  void validate() const;

  /// Canonical parsable form ("delta-aware:0.9"); "none" when inactive.
  std::string name() const;

  /// Inverse of name().  Accepted grammar (params optional, defaulted):
  ///   none | admit-all | util[:threshold] | slowdown-budget[:budget] |
  ///   delta-aware[:threshold] | token-bucket[:threshold[,burst_tu]]
  static AdmissionSpec parse(const std::string& spec);

  friend bool operator==(const AdmissionSpec& x, const AdmissionSpec& y) {
    return x.kind == y.kind && x.threshold == y.threshold &&
           x.budget == y.budget && x.burst_tu == y.burst_tu;
  }
  friend bool operator!=(const AdmissionSpec& x, const AdmissionSpec& y) {
    return !(x == y);
  }
};

/// Build the controller a spec describes, sized for `delta.size()` classes
/// at `capacity`.  Returns nullptr for Kind::kNone (install no gate).
std::unique_ptr<AdmissionController> make_admission(
    const AdmissionSpec& spec, const std::vector<double>& delta,
    const SamplerVariant& dist, double capacity);

}  // namespace psd
