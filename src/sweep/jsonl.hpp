// Minimal JSON rendering + JSONL scanning for campaign artifacts.
//
// Writing: campaign records must be byte-identical for identical inputs
// regardless of thread count, so doubles are rendered as "%.17g" renders
// them (common/format.hpp): 17 significant digits, enough to round-trip but
// not the shortest form, and frozen because content keys hash these bytes.
// Non-finite values become null (JSON has no NaN/inf).  Reading: resume
// only needs two fields per line ("key", "master_seed"), so the loader is a
// tolerant string scan rather than a full parser — foreign, malformed and
// torn lines are skipped.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

namespace psd {

/// "%.17g" for finite values, "null" otherwise.
std::string json_number(double v);
/// json_number(v), appended to `out`.
void append_json_number(std::string& out, double v);

/// Escape and quote a string for JSON (control chars, quote, backslash).
std::string json_string(const std::string& s);

/// Incremental single-object builder: field() in call order, no nesting
/// helper needed beyond raw() for pre-rendered arrays/objects.
class JsonObject {
 public:
  JsonObject& field(const std::string& name, double v);
  /// Any unsigned integer type.  A std::uint64_t-only overload would leave
  /// std::size_t callers ambiguous on targets where size_t is a distinct
  /// type (unsigned long vs unsigned long long on LP64 macOS): both the
  /// uint64_t and double conversions then rank equally.
  template <typename T,
            std::enable_if_t<std::is_unsigned_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonObject& field(const std::string& name, T v) {
    key(name);
    body_ += std::to_string(static_cast<unsigned long long>(v));
    return *this;
  }
  JsonObject& field(const std::string& name, const std::string& v);
  JsonObject& field(const std::string& name, const char* v);
  JsonObject& field_bool(const std::string& name, bool v);
  /// `rendered` is inserted verbatim (already-valid JSON).
  JsonObject& raw(const std::string& name, const std::string& rendered);

  /// "{...}" — no trailing newline.
  std::string str() const;

 private:
  void key(const std::string& name);
  std::string body_;
};

/// Render a numeric array: "[1,2.5,null]".
std::string json_array(const std::vector<double>& v);
/// The same for the `n` values at `v`.
std::string json_array(const double* v, std::size_t n);
/// Render an unsigned integer array: "[0,17,3]".
std::string json_array(const std::uint64_t* v, std::size_t n);
/// json_array(v), appended to `out`.
void append_json_array(std::string& out, const std::vector<double>& v);

/// Scan a JSONL file for records carrying `"master_seed":<seed>` and return
/// the set of their `"key"` values.  A final line without its '\n' is a
/// record torn by a killed writer and does not count.  Missing file =>
/// empty set.
std::unordered_set<std::string> load_completed_keys(const std::string& path,
                                                    std::uint64_t master_seed);

/// Cut the file at `path` back to just after its last '\n', dropping a torn
/// final line so that the next appended record starts on a line of its own.
/// A missing file or one that ends in '\n' is left as it is.
void trim_torn_tail(const std::string& path);

}  // namespace psd
