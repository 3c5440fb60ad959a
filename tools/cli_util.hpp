// Shared command-line parsing for the psd tools (psdsim, psdsweep,
// psdserved, psdcluster).
//
// Every numeric conversion validates its input and throws CliError with a
// one-line message plus a usage hint — a typo'd `--dist bp:x,y,z` or
// `--classes a,b` must print one helpful line, not terminate() on an
// unhandled std::invalid_argument from a bare std::stod.
//
// Spec-valued flags (--dist, --arrivals, --profile, --admission, --policy,
// --cluster) all route through the common/spec.hpp registry: parse_spec<S>
// wraps S::parse with CLI error formatting, so every tool accepts exactly
// the library grammar and a new spec type needs no per-tool parser.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/spec.hpp"
#include "experiment/scenario.hpp"
#include "sweep/grid.hpp"

namespace psd::cli {

struct CliError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] inline void fail(const std::string& what, const std::string& got,
                              const std::string& hint) {
  throw CliError(what + ", got '" + got + "' (hint: " + hint + ")");
}

/// Rejects a flag that was given without the partner it acts through: such
/// a flag would parse and then change nothing.
inline void require_partner(bool given, const std::string& flag,
                            bool partner_given, const std::string& partner) {
  if (given && !partner_given) {
    throw CliError(flag + " has no effect without " + partner);
  }
}

/// Strict double: the whole token must parse (no trailing junk).
inline double parse_double(const std::string& opt, const std::string& s,
                           const std::string& hint) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    fail(opt + " expects a number", s, hint);
  }
}

inline std::uint64_t parse_uint(const std::string& opt, const std::string& s,
                                const std::string& hint) {
  try {
    std::size_t used = 0;
    if (!s.empty() && s[0] == '-') throw std::invalid_argument("negative");
    const unsigned long long v = std::stoull(s, &used);
    if (used != s.size()) throw std::invalid_argument("trailing junk");
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    fail(opt + " expects a non-negative integer", s, hint);
  }
}

/// Comma-separated doubles; rejects empty items ("1,,2") and junk.
inline std::vector<double> parse_list(const std::string& opt,
                                      const std::string& s,
                                      const std::string& hint) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(parse_double(opt, item, hint));
  }
  if (out.empty()) fail(opt + " expects a comma-separated list", s, hint);
  return out;
}

/// The human half of a library error: strips the PSD_REQUIRE
/// "precondition failed: (...) at file:line — " prefix.
inline std::string human_message(const std::exception& e) {
  const std::string what = e.what();
  const auto dash = what.rfind(" — ");
  return dash == std::string::npos
             ? what
             : what.substr(dash + sizeof(" — ") - sizeof(""));
}

/// Spec-valued flag -> spec type S via the common/spec.hpp registry
/// (library grammar, CliError on typos, human half of the message only).
template <spec::Spec S>
S parse_spec(const std::string& opt, const std::string& s) {
  try {
    return S::parse(s);
  } catch (const std::exception& e) {
    fail(opt + ": " + human_message(e), s, spec::hint<S>());
  }
}

/// Runs a library validate() step at parse time, so a value out of range
/// exits 2 with the human half of the precondition's message instead of
/// failing once the run has started.
template <typename F>
void validate_config(F&& validate) {
  try {
    validate();
  } catch (const std::exception& e) {
    throw CliError("invalid configuration: " + human_message(e));
  }
}

/// Every replication set needs at least one run.
inline void require_runs(std::uint64_t runs) {
  if (runs == 0) throw CliError("--runs must be at least 1, got '0'");
}

inline DistSpec parse_dist(const std::string& opt, const std::string& s) {
  return parse_spec<DistSpec>(opt, s);
}

// Enum parsers invert the canonical *_name tables from sweep/grid.cpp, so a
// value printable in JSONL/labels is by construction also parsable here.
inline BackendKind parse_backend(const std::string& opt,
                                 const std::string& s) {
  for (auto k : {BackendKind::kDedicated, BackendKind::kSfq,
                 BackendKind::kLottery, BackendKind::kWtp, BackendKind::kPad,
                 BackendKind::kHpd, BackendKind::kStrict}) {
    if (s == backend_name(k)) return k;
  }
  fail(opt + ": unknown backend", s,
       "dedicated | sfq | lottery | wtp | pad | hpd | strict");
}

inline AllocatorKind parse_allocator(const std::string& opt,
                                     const std::string& s) {
  for (auto k : {AllocatorKind::kPsd, AllocatorKind::kAdaptivePsd,
                 AllocatorKind::kEqualShare, AllocatorKind::kLoadProportional,
                 AllocatorKind::kNone}) {
    if (s == allocator_name(k)) return k;
  }
  fail(opt + ": unknown allocator", s,
       "psd | adaptive | equal | loadprop | none");
}

inline RateChangePolicy parse_rate_change(const std::string& opt,
                                          const std::string& s) {
  for (auto p : {RateChangePolicy::kRescaleRemaining,
                 RateChangePolicy::kFinishAtOldRate}) {
    if (s == rate_change_name(p)) return p;
  }
  fail(opt + ": unknown rate-change policy", s, "rescale | finish");
}

/// Load-profile spec -> LoadProfile (library grammar, CliError on typos).
inline LoadProfile parse_profile(const std::string& opt,
                                 const std::string& s) {
  return parse_spec<LoadProfile>(opt, s);
}

/// Admission spec -> AdmissionSpec (library grammar, CliError on typos).
inline AdmissionSpec parse_admission(const std::string& opt,
                                     const std::string& s) {
  return parse_spec<AdmissionSpec>(opt, s);
}

/// Arrival-process spec: poisson | det | mmpp:burst[,sojourn[,duty]].
/// `burst` = high-phase rate over the mean (>= 1), `sojourn` = mean
/// high-phase length in mean interarrivals, `duty` = high-phase time
/// fraction (small duty -> ON-OFF).
inline ArrivalSpec parse_arrival_spec(const std::string& opt,
                                      const std::string& s) {
  return parse_spec<ArrivalSpec>(opt, s);
}

/// Assignment spec: random | rr | lwl | sita | jsq[d] (e.g. jsq2).
inline AssignmentSpec parse_assignment(const std::string& opt,
                                       const std::string& s) {
  return parse_spec<AssignmentSpec>(opt, s);
}

/// Cluster topology spec: nodes[:policy] (e.g. 4 | 4:jsq2 | 8:sita).
inline ClusterSpec parse_cluster(const std::string& opt,
                                 const std::string& s) {
  return parse_spec<ClusterSpec>(opt, s);
}

/// Loads may be given as fractions (0.6) or percents (60); anything > 1 is
/// percent.  Exactly 1 is rejected rather than guessed at: as a fraction it
/// is an unstable utilization, and silently reading it as 1% would run the
/// campaign at the wrong operating point.
inline double normalize_load(const std::string& opt, double v) {
  if (v == 1.0) {
    fail(opt + ": load 1 is ambiguous (1.0 = unstable, 1% = write 0.01)",
         "1", "--loads 30,60,90 (percent) or --loads 0.3,0.6,0.9");
  }
  return v < 1.0 ? v : v / 100.0;
}

/// Split on `sep`, trimming ASCII whitespace around items; empty items are
/// dropped ("a, b," -> {"a","b"}).
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) {
    const auto b = item.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    const auto e = item.find_last_not_of(" \t");
    out.push_back(item.substr(b, e - b + 1));
  }
  return out;
}

}  // namespace psd::cli
