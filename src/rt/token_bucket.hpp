// Deficit token bucket: per-class work-rate metering.
//
// Its one user is the `token-bucket` admission gate (admission/
// admission.hpp TokenBucketGate), which admits a request of size s only
// while its class bucket is non-negative, then debits s — the bucket may go
// into deficit, which it pays off at `rate`, so a single request larger
// than the burst allowance delays its class instead of deadlocking it (the
// classic strict-bucket failure with heavy-tailed sizes, where one
// Bounded-Pareto giant can exceed any reasonable burst).
//
// Long-run admitted work rate converges to `rate`; `burst` bounds how much
// unused allowance a quiet class can bank.  Owned and used by exactly one
// shard thread — no synchronization here.
#pragma once

#include <algorithm>

#include "common/error.hpp"
#include "common/types.hpp"

namespace psd::rt {

class TokenBucket {
 public:
  TokenBucket() = default;

  /// `rate`: tokens (work units) accrued per second.  `burst`: cap on banked
  /// tokens.  Starts full so an idle class serves its first burst instantly.
  TokenBucket(double rate, double burst, Time now)
      : rate_(rate), burst_(burst), tokens_(burst), last_(now) {
    PSD_REQUIRE(rate >= 0.0, "token rate must be non-negative");
    PSD_REQUIRE(burst > 0.0, "burst must be positive");
  }

  /// Release `amount` units of work if the bucket is currently non-negative
  /// (deficit semantics: the debit itself may push the level below zero).
  bool try_consume(double amount, Time now) {
    refill(now);
    if (tokens_ < 0.0) return false;
    tokens_ -= amount;
    return true;
  }

  double level(Time now) {
    refill(now);
    return tokens_;
  }

  double rate() const { return rate_; }

 private:
  void refill(Time now) {
    if (now <= last_) return;
    tokens_ = std::min(burst_, tokens_ + rate_ * (now - last_));
    last_ = now;
  }

  double rate_ = 0.0;
  double burst_ = 1.0;
  double tokens_ = 1.0;
  Time last_ = 0.0;
};

}  // namespace psd::rt
