#include "common/format.hpp"

#include <charconv>

#include "common/error.hpp"

namespace psd {

namespace {

void append_general(std::string& out, double v, int precision) {
  // "%.17g" needs at most 24 characters: sign, 17 digits, the point and an
  // exponent such as "e-308".
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, precision);
  PSD_CHECK(r.ec == std::errc{}, "number does not fit the format buffer");
  out.append(buf, r.ptr);
}

}  // namespace

void append_g17(std::string& out, double v) { append_general(out, v, 17); }

void append_g(std::string& out, double v) { append_general(out, v, 6); }

std::string format_g17(double v) {
  std::string out;
  append_g17(out, v);
  return out;
}

std::string format_g(double v) {
  std::string out;
  append_g(out, v);
  return out;
}

}  // namespace psd
