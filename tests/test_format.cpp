// The number formatter (common/format.hpp) against its reference: glibc's
// snprintf("%.17g") and snprintf("%g") must produce the same bytes on random
// bit patterns, rounded decimals, integers and every special value, since
// content keys, point seeds and campaign artifacts hash or store them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "sweep/jsonl.hpp"

namespace psd {
namespace {

std::string printf_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string printf_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Checks both formats on `v`; returns the number of mismatches (0 or more)
/// and reports the first few.
int mismatches(double v, int& reported) {
  int bad = 0;
  std::string g17;
  append_g17(g17, v);
  if (g17 != printf_g17(v)) {
    ++bad;
    if (reported++ < 5) {
      ADD_FAILURE() << "%.17g of " << printf_g17(v) << ": got " << g17;
    }
  }
  if (format_g(v) != printf_g(v)) {
    ++bad;
    if (reported++ < 5) {
      ADD_FAILURE() << "%g of " << printf_g17(v) << ": got " << format_g(v);
    }
  }
  return bad;
}

TEST(Format, MatchesPrintfOnSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {
      0.0, -0.0, kInf, -kInf, kNan, -kNan,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(), 1.0, -1.0, 0.1, 0.3, 1e-5,
      1e-4, 99999.5, 999999.0, 1e6, 123456.5, 1e15, 1e16, 1e17, 1e21, 1e22,
      9007199254740992.0, 9007199254740993.0, 0.5e-308, 1.7976931348623157e308};
  int reported = 0;
  int bad = 0;
  for (const double v : values) bad += mismatches(v, reported);
  EXPECT_EQ(bad, 0);
}

TEST(Format, NonFiniteValuesRenderAsPrintfDoes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(format_g17(kInf), "inf");
  EXPECT_EQ(format_g17(-kInf), "-inf");
  EXPECT_EQ(format_g17(nan), "nan");
  EXPECT_EQ(format_g17(-nan), "-nan");
  EXPECT_EQ(format_g(kInf), "inf");
  EXPECT_EQ(format_g(-nan), "-nan");
  // JSON cannot carry them: the artifact side writes null instead.
  EXPECT_EQ(json_number(kInf), "null");
  EXPECT_EQ(json_number(nan), "null");
}

TEST(Format, AppendsAfterExistingBytes) {
  std::string out = "load=";
  append_g17(out, 0.3);
  out += ';';
  append_g(out, 0.3);
  EXPECT_EQ(out, "load=0.29999999999999999;0.3");
}

TEST(Format, MatchesPrintfOnRandomBitPatterns) {
  // Every exponent and mantissa, NaN payloads and subnormals included.
  SplitMix64 bits(0xF0F0'1234'5678'9ABCULL);
  int reported = 0;
  int bad = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    bad += mismatches(from_bits(bits.next()), reported);
  }
  EXPECT_EQ(bad, 0);
}

TEST(Format, MatchesPrintfOnRoundedDecimalsAndIntegers) {
  // The values configs actually hold: short decimals (0.3, 1.6, 0.001) and
  // whole numbers (10000, 60000), where the 17th digit rounds.
  SplitMix64 draws(77);
  int reported = 0;
  int bad = 0;
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t r = draws.next();
    const double mantissa = static_cast<double>(r % 2'000'001) - 1e6;
    const int scale = static_cast<int>((r >> 32) % 25) - 12;
    bad += mismatches(mantissa * std::pow(10.0, scale), reported);
    bad += mismatches(static_cast<double>(r >> 11), reported);
  }
  EXPECT_EQ(bad, 0);
}

}  // namespace
}  // namespace psd
