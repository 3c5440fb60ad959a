// The one number formatter behind every byte the repository writes: content
// keys and campaign artifacts ("%.17g"), labels and spec names ("%g").
//
// Built on std::to_chars(..., std::chars_format::general, precision), which
// the C++ standard defines to produce printf's "%.<precision>g" output in the
// C locale.  libstdc++ implements it with Ryu printf (Adams, "Ryu revisited:
// printf floating point conversion", OOPSLA 2019): the same digits as glibc's
// snprintf at a fraction of the cost, and independent of the process locale
// (snprintf under a comma-decimal locale would change every content key and
// write invalid JSON).  Non-finite values render as printf renders them:
// "inf", "-inf", "nan", "-nan".
#pragma once

#include <string>

namespace psd {

/// Appends `v` as printf("%.17g") renders it: 17 significant digits, enough
/// for every double to round-trip (not the shortest such form).
void append_g17(std::string& out, double v);

/// Appends `v` as printf("%g") renders it: 6 significant digits.
void append_g(std::string& out, double v);

/// append_g17 / append_g into a new string.
std::string format_g17(double v);
std::string format_g(double v);

}  // namespace psd
