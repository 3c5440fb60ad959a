// Value-type distribution specification + factory.
//
// Configs (ScenarioConfig, SessionState, ClassSpec) need a copyable,
// comparable description of a service-time law that can cross thread and
// serialization boundaries; the sampler is built from it on demand with
// make_sampler() (dist/sampler.hpp).
#pragma once

#include <cstddef>
#include <string>

namespace psd {

struct DistSpec {
  enum class Kind {
    kBoundedPareto,        ///< a = alpha, b = k, c = p.
    kDeterministic,        ///< a = value.
    kExponential,          ///< a = mean.
    kBoundedExponential,   ///< a = mean, b = lo, c = hi.
    kLognormal,            ///< a = mean, b = scv.
    kUniform,              ///< a = lo, b = hi.
  };

  Kind kind = Kind::kBoundedPareto;
  double a = 1.5, b = 0.1, c = 100.0;

  static DistSpec bounded_pareto(double alpha, double k, double p) {
    return {Kind::kBoundedPareto, alpha, k, p};
  }
  static DistSpec deterministic(double value) {
    return {Kind::kDeterministic, value, 0.0, 0.0};
  }
  static DistSpec exponential(double mean) {
    return {Kind::kExponential, mean, 0.0, 0.0};
  }
  static DistSpec bounded_exponential(double mean, double lo, double hi) {
    return {Kind::kBoundedExponential, mean, lo, hi};
  }
  /// Parameterized by target mean and squared coefficient of variation.
  static DistSpec lognormal(double mean, double scv) {
    return {Kind::kLognormal, mean, scv, 0.0};
  }
  static DistSpec uniform(double lo, double hi) {
    return {Kind::kUniform, lo, hi, 0.0};
  }

  /// Short kind token ("bp", "det", ... — the CLI grammar's head).
  const char* kind_name() const;
  /// Parameter count the kind reads from {a, b, c}.
  std::size_t arity() const;

  /// Canonical parsable form, e.g. "bp:1.5,0.1,100" (%g-rendered params —
  /// the exact string sweep labels and JSONL records carry).
  std::string name() const;

  /// Inverse of name().  Accepted grammar: bp:alpha,k,p | det:c | exp:m |
  /// bexp:m,lo,hi | lognormal:m,scv | uniform:a,b.  Throws
  /// std::invalid_argument on malformed input, including parameters outside
  /// the law's domain (the sampler constructor's checks).
  static DistSpec parse(const std::string& spec);

  friend bool operator==(const DistSpec& x, const DistSpec& y) {
    return x.kind == y.kind && x.a == y.a && x.b == y.b && x.c == y.c;
  }
  friend bool operator!=(const DistSpec& x, const DistSpec& y) {
    return !(x == y);
  }
};

}  // namespace psd
