#include "workload/load_profile.hpp"

#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/format.hpp"

namespace psd {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

// Factors may never reach 0: the thinning loop in ModulatedArrivals draws
// base candidates until one is accepted, and a zero-rate stretch of
// unbounded length would spin forever.  1% of nominal is low enough to model
// an idle valley.
constexpr double kMinFactor = 0.01;

std::vector<double> parse_params(const std::string& spec,
                                 const std::string& kind, std::size_t n) {
  const auto colon = spec.find(':');
  PSD_REQUIRE(colon != std::string::npos,
              "profile '" + kind + "' needs ':' parameters (" + spec + ")");
  std::vector<double> out;
  std::stringstream ss(spec.substr(colon + 1));
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(item, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    PSD_REQUIRE(used == item.size() && !item.empty(),
                "profile parameter '" + item + "' is not a number (" + spec +
                    ")");
    out.push_back(v);
  }
  PSD_REQUIRE(out.size() == n, "profile '" + kind + "' needs " +
                                   std::to_string(n) + " parameters (" +
                                   spec + ")");
  return out;
}

}  // namespace

double LoadProfile::factor(Time t) const {
  switch (kind) {
    case Kind::kNone:
      return 1.0;
    case Kind::kRamp: {
      if (t <= a) return c;
      if (t >= b) return d;
      return c + (d - c) * (t - a) / (b - a);
    }
    case Kind::kSin:
      return 1.0 + b * std::sin(kTwoPi * t / a);
    case Kind::kSpike:
      return (t >= a && t < a + b) ? c : 1.0;
  }
  PSD_UNREACHABLE("unknown profile kind");
}

double LoadProfile::peak_factor() const {
  switch (kind) {
    case Kind::kNone:
      return 1.0;
    case Kind::kRamp:
      return std::max(c, d);
    case Kind::kSin:
      return 1.0 + b;
    case Kind::kSpike:
      return std::max(c, 1.0);
  }
  PSD_UNREACHABLE("unknown profile kind");
}

double LoadProfile::step_time() const {
  switch (kind) {
    case Kind::kNone:
    case Kind::kSin:
      return kNaN;  // no settling point: nothing to re-converge after
    case Kind::kRamp:
      return b;
    case Kind::kSpike:
      return a + b;
  }
  PSD_UNREACHABLE("unknown profile kind");
}

LoadProfile LoadProfile::scaled_time(double s) const {
  PSD_REQUIRE(s > 0.0, "profile time scale must be positive");
  LoadProfile out = *this;
  switch (kind) {
    case Kind::kNone:
      break;
    case Kind::kRamp:
      out.a *= s;
      out.b *= s;
      break;
    case Kind::kSin:
      out.a *= s;
      break;
    case Kind::kSpike:
      out.a *= s;
      out.b *= s;
      break;
  }
  return out;
}

void LoadProfile::validate() const {
  switch (kind) {
    case Kind::kNone:
      return;
    case Kind::kRamp:
      PSD_REQUIRE(a >= 0.0 && b > a, "ramp needs 0 <= t0 < t1");
      PSD_REQUIRE(c >= kMinFactor && d >= kMinFactor,
                  "ramp factors must be >= 0.01");
      return;
    case Kind::kSin:
      PSD_REQUIRE(a > 0.0, "sin period must be positive");
      PSD_REQUIRE(b >= 0.0 && b <= 1.0 - kMinFactor,
                  "sin amplitude must be in [0, 0.99]");
      return;
    case Kind::kSpike:
      PSD_REQUIRE(a >= 0.0 && b > 0.0, "spike needs t0 >= 0 and duration > 0");
      PSD_REQUIRE(c >= kMinFactor, "spike magnitude must be >= 0.01");
      return;
  }
  PSD_UNREACHABLE("unknown profile kind");
}

std::string LoadProfile::name() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kRamp:
      return "ramp:" + format_g(a) + ',' + format_g(b) + ',' + format_g(c) +
             ',' + format_g(d);
    case Kind::kSin:
      return "sin:" + format_g(a) + ',' + format_g(b);
    case Kind::kSpike:
      return "spike:" + format_g(a) + ',' + format_g(b) + ',' + format_g(c);
  }
  PSD_UNREACHABLE("unknown profile kind");
}

LoadProfile LoadProfile::parse(const std::string& spec) {
  const std::string kind = spec.substr(0, spec.find(':'));
  LoadProfile out;
  if (kind == "none") {
    PSD_REQUIRE(spec == "none", "profile 'none' takes no parameters");
    return out;
  }
  if (kind == "ramp") {
    const auto p = parse_params(spec, kind, 4);
    out = ramp(p[0], p[1], p[2], p[3]);
  } else if (kind == "sin") {
    const auto p = parse_params(spec, kind, 2);
    out = sinusoid(p[0], p[1]);
  } else if (kind == "spike") {
    const auto p = parse_params(spec, kind, 3);
    out = spike(p[0], p[1], p[2]);
  } else {
    PSD_REQUIRE(false, "unknown profile '" + spec +
                           "' (expected none | ramp:t0,t1,f0,f1 | "
                           "sin:period,amp | spike:t0,dur,mag)");
  }
  out.validate();
  return out;
}

}  // namespace psd
