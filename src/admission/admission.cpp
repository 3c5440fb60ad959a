#include "admission/admission.hpp"

#include <cstdlib>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/types.hpp"

namespace psd {

UtilizationGate::UtilizationGate(std::size_t num_classes, double mean_size,
                                 double capacity, double threshold)
    : mean_size_(mean_size), capacity_(capacity), threshold_(threshold) {
  PSD_REQUIRE(num_classes > 0, "need at least one class");
  PSD_REQUIRE(mean_size > 0.0, "mean size must be positive");
  PSD_REQUIRE(capacity > 0.0, "capacity must be positive");
  PSD_REQUIRE(threshold > 0.0 && threshold < 1.0, "threshold in (0,1)");
  admit_.assign(num_classes, true);
}

void UtilizationGate::update(const std::vector<double>& lambda_hat) {
  PSD_REQUIRE(lambda_hat.size() == admit_.size(), "estimate size mismatch");
  admit_.assign(admit_.size(), true);
  double demand = 0.0;
  for (double l : lambda_hat) demand += l * mean_size_;
  // Shed lowest classes (largest index) until under threshold.
  for (std::size_t i = admit_.size(); i-- > 1;) {
    if (demand <= threshold_ * capacity_) break;
    demand -= lambda_hat[i] * mean_size_;
    admit_[i] = false;
  }
}

bool UtilizationGate::admit(ClassId cls) const {
  PSD_REQUIRE(cls < admit_.size(), "class id out of range");
  return admit_[cls];
}

SlowdownBudgetGate::SlowdownBudgetGate(std::vector<double> delta,
                                       SamplerVariant dist, double capacity,
                                       double max_unit_slowdown)
    : delta_(std::move(delta)),
      dist_(std::move(dist)),
      capacity_(capacity),
      budget_(max_unit_slowdown) {
  PSD_REQUIRE(!delta_.empty(), "need at least one class");
  PSD_REQUIRE(capacity > 0.0, "capacity must be positive");
  PSD_REQUIRE(max_unit_slowdown > 0.0, "budget must be positive");
  admit_.assign(delta_.size(), true);
}

double SlowdownBudgetGate::predicted_unit_slowdown(
    const std::vector<double>& lambda_hat,
    const std::vector<bool>& mask) const {
  // eq. 18 restricted to admitted classes: unit slowdown (E[S_i]/delta_i) is
  // the class-independent factor sum(lambda_j/delta_j) E[X^2]E[1/X] /
  // (2 (C - demand)).
  const double ex = dist_.mean();
  double demand = 0.0, denom = 0.0;
  for (std::size_t j = 0; j < lambda_hat.size(); ++j) {
    if (!mask[j]) continue;
    demand += lambda_hat[j] * ex;
    denom += lambda_hat[j] / delta_[j];
  }
  if (demand >= capacity_) return kInf;
  if (denom <= 0.0) return 0.0;
  return denom * dist_.second_moment() * dist_.mean_inverse() /
         (2.0 * (capacity_ - demand));
}

void SlowdownBudgetGate::update(const std::vector<double>& lambda_hat) {
  PSD_REQUIRE(lambda_hat.size() == delta_.size(), "estimate size mismatch");
  admit_.assign(delta_.size(), true);
  // Shed lowest classes until eq. 18 predicts the budget holds.
  for (std::size_t i = delta_.size(); i-- > 1;) {
    if (predicted_unit_slowdown(lambda_hat, admit_) <= budget_) return;
    admit_[i] = false;
  }
}

bool SlowdownBudgetGate::admit(ClassId cls) const {
  PSD_REQUIRE(cls < admit_.size(), "class id out of range");
  return admit_[cls];
}

ProportionalShedGate::ProportionalShedGate(std::vector<double> delta,
                                           double mean_size, double capacity,
                                           double threshold)
    : delta_(std::move(delta)),
      mean_size_(mean_size),
      capacity_(capacity),
      threshold_(threshold) {
  PSD_REQUIRE(!delta_.empty(), "need at least one class");
  PSD_REQUIRE(mean_size > 0.0, "mean size must be positive");
  PSD_REQUIRE(capacity > 0.0, "capacity must be positive");
  PSD_REQUIRE(threshold > 0.0 && threshold < 1.0, "threshold in (0,1)");
  for (double d : delta_) PSD_REQUIRE(d > 0.0, "deltas must be positive");
  keep_.assign(delta_.size(), 1.0);
  credit_.assign(delta_.size(), 0.0);
}

void ProportionalShedGate::update(const std::vector<double>& lambda_hat) {
  PSD_REQUIRE(lambda_hat.size() == delta_.size(), "estimate size mismatch");
  const double target = threshold_ * capacity_;
  double demand = 0.0;
  for (double l : lambda_hat) demand += l * mean_size_;
  if (demand <= target) {
    keep_.assign(delta_.size(), 1.0);
    return;
  }
  // Shed S = demand - target work, split over classes in proportion to
  // delta_c * demand_c (lower classes shed more).  A class asked to shed
  // more than its own demand is clamped to zero keep and the excess is
  // redistributed over the classes still above zero — repeat until the
  // requested shed fits (terminates: each pass zeroes >= 1 class).
  std::vector<double> dem(delta_.size()), shed(delta_.size(), 0.0);
  for (std::size_t c = 0; c < delta_.size(); ++c) {
    dem[c] = lambda_hat[c] * mean_size_;
  }
  double excess = demand - target;
  std::vector<bool> open(delta_.size(), true);
  while (excess > 0.0) {
    double weight = 0.0;
    for (std::size_t c = 0; c < delta_.size(); ++c) {
      if (open[c]) weight += delta_[c] * dem[c];
    }
    if (weight <= 0.0) break;  // nothing left to shed; admit the floor
    bool clamped = false;
    double granted = 0.0;
    for (std::size_t c = 0; c < delta_.size(); ++c) {
      if (!open[c]) continue;
      const double want = excess * delta_[c] * dem[c] / weight;
      const double room = dem[c] - shed[c];
      if (want >= room) {
        shed[c] = dem[c];
        open[c] = false;
        clamped = true;
        granted += room;
      } else {
        shed[c] += want;
        granted += want;
      }
    }
    excess -= granted;
    if (!clamped) break;  // everyone took their full share: done
    if (excess <= 1e-12 * demand) break;
  }
  for (std::size_t c = 0; c < delta_.size(); ++c) {
    keep_[c] = dem[c] > 0.0 ? (dem[c] - shed[c]) / dem[c] : 1.0;
  }
}

bool ProportionalShedGate::admit(ClassId cls) const {
  PSD_REQUIRE(cls < keep_.size(), "class id out of range");
  return keep_[cls] > 0.0;
}

bool ProportionalShedGate::admit_request(ClassId cls, Time /*now*/,
                                         double /*size*/) {
  PSD_REQUIRE(cls < keep_.size(), "class id out of range");
  credit_[cls] += keep_[cls];
  if (credit_[cls] >= 1.0) {
    credit_[cls] -= 1.0;
    return true;
  }
  return false;
}

TokenBucketGate::TokenBucketGate(std::size_t num_classes, double mean_size,
                                 double capacity, double threshold,
                                 double burst_tu) {
  PSD_REQUIRE(num_classes > 0, "need at least one class");
  PSD_REQUIRE(mean_size > 0.0, "mean size must be positive");
  PSD_REQUIRE(capacity > 0.0, "capacity must be positive");
  PSD_REQUIRE(threshold > 0.0 && threshold < 1.0, "threshold in (0,1)");
  PSD_REQUIRE(burst_tu > 0.0, "burst must be positive");
  const double rate =
      threshold * capacity / static_cast<double>(num_classes);
  const double burst = rate * burst_tu * mean_size / capacity;
  class_bucket_.reserve(num_classes);
  for (std::size_t c = 0; c < num_classes; ++c) {
    class_bucket_.emplace_back(rate, burst, 0.0);
  }
}

bool TokenBucketGate::admit_request(ClassId cls, Time now, double size) {
  PSD_REQUIRE(cls < class_bucket_.size(), "class id out of range");
  return class_bucket_[cls].try_consume(size, now);
}

void AdmissionSpec::validate() const {
  if (kind == Kind::kNone || kind == Kind::kAdmitAll) return;
  if (kind == Kind::kSlowdownBudget) {
    PSD_REQUIRE(budget > 0.0, "admission budget must be positive");
    return;
  }
  PSD_REQUIRE(threshold > 0.0 && threshold < 1.0,
              "admission threshold in (0,1)");
  if (kind == Kind::kTokenBucket) {
    PSD_REQUIRE(burst_tu > 0.0, "admission burst must be positive");
  }
}

std::string AdmissionSpec::name() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kAdmitAll:
      return "admit-all";
    case Kind::kUtilization:
      return "util:" + format_g(threshold);
    case Kind::kSlowdownBudget:
      return "slowdown-budget:" + format_g(budget);
    case Kind::kDeltaAware:
      return "delta-aware:" + format_g(threshold);
    case Kind::kTokenBucket:
      return "token-bucket:" + format_g(threshold) + "," + format_g(burst_tu);
  }
  return "none";
}

AdmissionSpec AdmissionSpec::parse(const std::string& spec) {
  AdmissionSpec out;
  const auto colon = spec.find(':');
  const std::string head = spec.substr(0, colon);
  std::vector<double> params;
  if (colon != std::string::npos) {
    std::string rest = spec.substr(colon + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
      const auto comma = rest.find(',', pos);
      const std::string tok =
          rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                      : comma - pos);
      char* end = nullptr;
      const double v = std::strtod(tok.c_str(), &end);
      PSD_REQUIRE(end != tok.c_str() && *end == '\0' && !tok.empty(),
                  "bad admission parameter: " + spec);
      params.push_back(v);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  PSD_REQUIRE(params.size() <= 2, "too many admission parameters: " + spec);
  if (head == "none") {
    PSD_REQUIRE(params.empty(), "'none' takes no parameters");
    out.kind = Kind::kNone;
  } else if (head == "admit-all") {
    PSD_REQUIRE(params.empty(), "'admit-all' takes no parameters");
    out.kind = Kind::kAdmitAll;
  } else if (head == "util") {
    out.kind = Kind::kUtilization;
    if (!params.empty()) out.threshold = params[0];
  } else if (head == "slowdown-budget") {
    out.kind = Kind::kSlowdownBudget;
    if (!params.empty()) out.budget = params[0];
  } else if (head == "delta-aware") {
    out.kind = Kind::kDeltaAware;
    if (!params.empty()) out.threshold = params[0];
  } else if (head == "token-bucket") {
    out.kind = Kind::kTokenBucket;
    if (!params.empty()) out.threshold = params[0];
    if (params.size() > 1) out.burst_tu = params[1];
  } else {
    PSD_REQUIRE(false, "unknown admission policy: " + spec);
  }
  out.validate();
  return out;
}

std::unique_ptr<AdmissionController> make_admission(
    const AdmissionSpec& spec, const std::vector<double>& delta,
    const SamplerVariant& dist, double capacity) {
  spec.validate();
  switch (spec.kind) {
    case AdmissionSpec::Kind::kNone:
      return nullptr;
    case AdmissionSpec::Kind::kAdmitAll:
      return std::make_unique<AdmitAll>();
    case AdmissionSpec::Kind::kUtilization:
      return std::make_unique<UtilizationGate>(delta.size(), dist.mean(),
                                               capacity, spec.threshold);
    case AdmissionSpec::Kind::kSlowdownBudget:
      return std::make_unique<SlowdownBudgetGate>(delta, dist, capacity,
                                                  spec.budget);
    case AdmissionSpec::Kind::kDeltaAware:
      return std::make_unique<ProportionalShedGate>(delta, dist.mean(),
                                                    capacity, spec.threshold);
    case AdmissionSpec::Kind::kTokenBucket:
      return std::make_unique<TokenBucketGate>(delta.size(), dist.mean(),
                                               capacity, spec.threshold,
                                               spec.burst_tu);
  }
  return nullptr;
}

}  // namespace psd
