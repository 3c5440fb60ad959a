#include "cluster/assignment.hpp"

#include <cstdlib>

#include "common/error.hpp"

namespace psd {

namespace {

const char* policy_token(AssignmentPolicy p) {
  switch (p) {
    case AssignmentPolicy::kRandom: return "random";
    case AssignmentPolicy::kRoundRobin: return "rr";
    case AssignmentPolicy::kLeastWorkLeft: return "lwl";
    case AssignmentPolicy::kSizeInterval: return "sita";
    case AssignmentPolicy::kJsq: return "jsq";
  }
  PSD_UNREACHABLE("unknown assignment policy");
}

/// Strict non-negative integer: the whole token must be digits.
bool parse_size(const std::string& s, std::size_t* out) {
  if (s.empty()) return false;
  std::size_t v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return false;
    v = v * 10 + static_cast<std::size_t>(ch - '0');
  }
  *out = v;
  return true;
}

}  // namespace

void AssignmentSpec::validate() const {
  if (policy == AssignmentPolicy::kJsq) {
    PSD_REQUIRE(d >= 1, "jsq sample size d must be >= 1");
  }
}

std::string AssignmentSpec::name() const {
  if (policy == AssignmentPolicy::kJsq) {
    return "jsq" + std::to_string(d);
  }
  return policy_token(policy);
}

AssignmentSpec AssignmentSpec::parse(const std::string& spec) {
  AssignmentSpec out;
  bool known = false;
  for (auto p : {AssignmentPolicy::kRandom, AssignmentPolicy::kRoundRobin,
                 AssignmentPolicy::kLeastWorkLeft,
                 AssignmentPolicy::kSizeInterval}) {
    if (spec == policy_token(p)) {
      out = AssignmentSpec(p);
      known = true;
    }
  }
  if (!known && spec.rfind("jsq", 0) == 0) {
    out = AssignmentSpec(AssignmentPolicy::kJsq);
    const std::string arg = spec.substr(3);
    if (!arg.empty()) {
      PSD_REQUIRE(parse_size(arg, &out.d),
                  "jsq sample size must be a number ('jsq2')");
    }
    known = true;
  }
  PSD_REQUIRE(known, "unknown assignment policy '" + spec +
                         "' (expected random | rr | lwl | sita | jsq[d])");
  out.validate();
  return out;
}

}  // namespace psd
