// The spec registry contract (common/spec.hpp): every spec type round-trips
// parse(name()) == value, keeps accepting the historical CLI spellings, and
// rejects malformed input with std::invalid_argument.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/spec.hpp"

namespace psd {
namespace {

// ------------------------------------------------------------- round-trips

template <spec::Spec S>
void expect_roundtrip(const S& s) {
  EXPECT_EQ(spec::parse<S>(spec::name(s)), s) << spec::name(s);
}

TEST(SpecRegistry, DistSpecRoundTrips) {
  expect_roundtrip(DistSpec::bounded_pareto(1.5, 0.1, 100.0));
  expect_roundtrip(DistSpec::deterministic(2.0));
  expect_roundtrip(DistSpec::exponential(0.25));
  expect_roundtrip(DistSpec::bounded_exponential(1.0, 0.1, 10.0));
  expect_roundtrip(DistSpec::lognormal(1.0, 4.0));
  expect_roundtrip(DistSpec::uniform(0.5, 1.5));
}

TEST(SpecRegistry, ArrivalSpecRoundTrips) {
  ArrivalSpec poisson;
  expect_roundtrip(poisson);
  ArrivalSpec det;
  det.kind = ArrivalKind::kDeterministic;
  expect_roundtrip(det);
  ArrivalSpec mmpp;
  mmpp.kind = ArrivalKind::kBursty;
  mmpp.burstiness = 8.0;
  mmpp.sojourn = 20.0;
  mmpp.duty = 0.2;
  expect_roundtrip(mmpp);
}

TEST(SpecRegistry, LoadProfileRoundTrips) {
  expect_roundtrip(LoadProfile::none());
  expect_roundtrip(LoadProfile::ramp(0.0, 100.0, 1.0, 2.0));
  expect_roundtrip(LoadProfile::sinusoid(200.0, 0.5));
  expect_roundtrip(LoadProfile::spike(100.0, 20.0, 3.0));
}

TEST(SpecRegistry, AdmissionSpecRoundTrips) {
  AdmissionSpec none;
  expect_roundtrip(none);
  AdmissionSpec util;
  util.kind = AdmissionSpec::Kind::kUtilization;
  util.threshold = 0.85;
  expect_roundtrip(util);
  AdmissionSpec budget;
  budget.kind = AdmissionSpec::Kind::kSlowdownBudget;
  budget.budget = 12.5;
  expect_roundtrip(budget);
  AdmissionSpec bucket;
  bucket.kind = AdmissionSpec::Kind::kTokenBucket;
  bucket.threshold = 0.9;
  bucket.burst_tu = 2.0;
  expect_roundtrip(bucket);
}

TEST(SpecRegistry, AssignmentSpecRoundTrips) {
  expect_roundtrip(AssignmentSpec{AssignmentPolicy::kRandom});
  expect_roundtrip(AssignmentSpec{AssignmentPolicy::kRoundRobin});
  expect_roundtrip(AssignmentSpec{AssignmentPolicy::kLeastWorkLeft});
  expect_roundtrip(AssignmentSpec{AssignmentPolicy::kSizeInterval});
  expect_roundtrip(AssignmentSpec{AssignmentPolicy::kJsq, 2});
  expect_roundtrip(AssignmentSpec{AssignmentPolicy::kJsq, 5});
}

// ----------------------------------------------- historical CLI spellings

TEST(SpecRegistry, AcceptsHistoricalSpellings) {
  // The exact strings the CLIs documented before the registry existed must
  // keep parsing to the same values (byte-compat contract).
  EXPECT_EQ(spec::parse<DistSpec>("bp:1.5,0.1,100"),
            DistSpec::bounded_pareto(1.5, 0.1, 100.0));
  EXPECT_EQ(spec::parse<DistSpec>("uniform:0.5,1.5"),
            DistSpec::uniform(0.5, 1.5));

  EXPECT_EQ(spec::parse<ArrivalSpec>("deterministic").kind,
            ArrivalKind::kDeterministic);
  EXPECT_EQ(spec::parse<ArrivalSpec>("det").kind,
            ArrivalKind::kDeterministic);
  EXPECT_EQ(spec::parse<ArrivalSpec>("mmpp:4").burstiness, 4.0);

  EXPECT_EQ(spec::parse<LoadProfile>("none"), LoadProfile::none());
  EXPECT_EQ(spec::parse<LoadProfile>("spike:100,20,3"),
            LoadProfile::spike(100.0, 20.0, 3.0));

  EXPECT_EQ(spec::parse<AdmissionSpec>("util").kind,
            AdmissionSpec::Kind::kUtilization);
  EXPECT_EQ(spec::parse<AdmissionSpec>("delta-aware:0.95").threshold, 0.95);

  // Bare "jsq" defaults d = 2.
  EXPECT_EQ(spec::parse<AssignmentSpec>("jsq"),
            (AssignmentSpec{AssignmentPolicy::kJsq, 2}));
}

// ------------------------------------------------------------- rejections

TEST(SpecRegistry, RejectsMalformedInput) {
  EXPECT_THROW(spec::parse<DistSpec>("pareto:1.5"), std::invalid_argument);
  EXPECT_THROW(spec::parse<DistSpec>("bp:1.5"), std::invalid_argument);
  // Well-formed but outside the law's domain: rejected at parse time.
  EXPECT_THROW(spec::parse<DistSpec>("bp:1.5,100,0.1"), std::invalid_argument);
  EXPECT_THROW(spec::parse<DistSpec>("bexp:1,0,10"), std::invalid_argument);
  EXPECT_THROW(spec::parse<DistSpec>("uniform:0,1"), std::invalid_argument);
  EXPECT_THROW(spec::parse<DistSpec>("det:0"), std::invalid_argument);
  EXPECT_THROW(spec::parse<ArrivalSpec>("mmpp:0.5"), std::invalid_argument);
  EXPECT_THROW(spec::parse<ArrivalSpec>("burst"), std::invalid_argument);
  EXPECT_THROW(spec::parse<LoadProfile>("ramp:1,2"), std::invalid_argument);
  EXPECT_THROW(spec::parse<AdmissionSpec>("tokens"), std::invalid_argument);
  EXPECT_THROW(spec::parse<AssignmentSpec>("jsq0"), std::invalid_argument);
  EXPECT_THROW(spec::parse<AssignmentSpec>("sjf"), std::invalid_argument);
}

TEST(SpecRegistry, HintsNameEveryGrammar) {
  EXPECT_NE(std::string(spec::hint<DistSpec>()).find("bp:"),
            std::string::npos);
  EXPECT_NE(std::string(spec::hint<ArrivalSpec>()).find("mmpp"),
            std::string::npos);
  EXPECT_NE(std::string(spec::hint<LoadProfile>()).find("spike"),
            std::string::npos);
  EXPECT_NE(std::string(spec::hint<AdmissionSpec>()).find("token-bucket"),
            std::string::npos);
  EXPECT_NE(std::string(spec::hint<AssignmentSpec>()).find("jsq"),
            std::string::npos);
}

}  // namespace
}  // namespace psd
