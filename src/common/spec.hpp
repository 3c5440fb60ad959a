// The spec registry: one parse()/name() contract over every value-type
// configuration spec in the system.
//
// A "spec" is a small copyable, comparable struct describing one
// configurable axis — a service-time law (DistSpec), an arrival process
// (ArrivalSpec), a nonstationary load shape (LoadProfile), an admission
// policy (AdmissionSpec), a task-assignment policy (AssignmentSpec).  Each
// exposes the same surface:
//
//   static S S::parse(const std::string&)  — inverse of name(); throws
//                                            std::invalid_argument
//                                            (PSD_REQUIRE) on bad input,
//   std::string name() const               — canonical parsable rendering,
//   operator==                             — value comparison.
//
// so `S::parse(s.name()) == s` round-trips for every spec type, and one
// grammar string works identically in psdsim, psdsweep, psdserved,
// campaign specs, and JSONL records.  The CLIs layer their
// error formatting on top (tools/cli_util.hpp parse_spec<S>); everything
// below the tools speaks the library grammar directly.
//
// spec::hint<S>() names the accepted grammar for use in error messages and
// --help text — registered here so a new CLI cannot forget a flag's
// vocabulary when a new spec type appears.
#pragma once

#include <concepts>
#include <string>

#include "admission/admission.hpp"
#include "cluster/assignment.hpp"
#include "dist/factory.hpp"
#include "workload/class_spec.hpp"
#include "workload/load_profile.hpp"

namespace psd::spec {

template <typename S>
concept Spec = std::equality_comparable<S> &&
    requires(const S s, const std::string& text) {
      { s.name() } -> std::convertible_to<std::string>;
      { S::parse(text) } -> std::same_as<S>;
    };

/// Generic front door: spec::parse<DistSpec>("bp:1.5,0.1,100").
template <Spec S>
S parse(const std::string& text) {
  return S::parse(text);
}

/// Generic rendering (symmetry with parse; s.name() works too).
template <Spec S>
std::string name(const S& s) {
  return s.name();
}

/// One-line grammar for error hints and --help text.
template <Spec S>
const char* hint() = delete;

template <>
inline const char* hint<DistSpec>() {
  return "bp:1.5,0.1,100 | det:1 | exp:1 | bexp:1,0.1,10 | "
         "lognormal:1,4 | uniform:0.5,1.5";
}
template <>
inline const char* hint<ArrivalSpec>() {
  return "poisson | det | mmpp:4 | mmpp:8,20,0.2";
}
template <>
inline const char* hint<LoadProfile>() {
  return "ramp:t0,t1,f0,f1 | sin:period,amp | spike:t0,dur,mag | none";
}
template <>
inline const char* hint<AdmissionSpec>() {
  return "none | admit-all | util[:thresh] | slowdown-budget[:budget] | "
         "delta-aware[:thresh] | token-bucket[:thresh[,burst]]";
}
template <>
inline const char* hint<AssignmentSpec>() {
  return "random | rr | lwl | sita | jsq[d]";
}

// The registry's reason to exist: every spec type satisfies the one
// contract, checked at compile time right here.
static_assert(Spec<DistSpec>);
static_assert(Spec<ArrivalSpec>);
static_assert(Spec<LoadProfile>);
static_assert(Spec<AdmissionSpec>);
static_assert(Spec<AssignmentSpec>);

}  // namespace psd::spec
