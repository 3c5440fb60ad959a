#include "sweep/jsonl.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "common/error.hpp"

namespace psd {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonObject::key(const std::string& name) {
  if (!body_.empty()) body_ += ',';
  body_ += json_string(name);
  body_ += ':';
}

JsonObject& JsonObject::field(const std::string& name, double v) {
  key(name);
  body_ += json_number(v);
  return *this;
}

JsonObject& JsonObject::field(const std::string& name, const std::string& v) {
  key(name);
  body_ += json_string(v);
  return *this;
}

JsonObject& JsonObject::field(const std::string& name, const char* v) {
  return field(name, std::string(v));
}

JsonObject& JsonObject::field_bool(const std::string& name, bool v) {
  key(name);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(const std::string& name,
                            const std::string& rendered) {
  key(name);
  body_ += rendered;
  return *this;
}

std::string JsonObject::str() const { return "{" + body_ + "}"; }

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(v[i]);
  }
  out += ']';
  return out;
}

std::unordered_set<std::string> load_completed_keys(
    const std::string& path, std::uint64_t master_seed) {
  std::unordered_set<std::string> keys;
  std::ifstream in(path);
  if (!in) return keys;
  const std::string seed_marker =
      "\"master_seed\":" + std::to_string(master_seed);
  const std::string key_marker = "\"key\":\"";
  std::string line;
  while (std::getline(in, line)) {
    // getline stops at end of file without failing when the last line has
    // no '\n': that line is torn, not a completed record.
    if (in.eof()) break;
    // The seed match must not be a prefix of a longer number (seed 4 vs 42).
    const auto sp = line.find(seed_marker);
    if (sp == std::string::npos) continue;
    const auto after = sp + seed_marker.size();
    if (after < line.size() && line[after] >= '0' && line[after] <= '9') {
      continue;
    }
    const auto kp = line.find(key_marker);
    if (kp == std::string::npos) continue;
    const auto start = kp + key_marker.size();
    const auto end = line.find('"', start);
    if (end == std::string::npos || end == start) continue;
    keys.insert(line.substr(start, end - start));
  }
  return keys;
}

void trim_torn_tail(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return;
  std::ifstream in(path, std::ios::binary);
  PSD_REQUIRE(static_cast<bool>(in), "cannot read campaign JSONL: " + path);
  // Scan back from the end, one block at a time, for the last newline.
  char block[4096];
  std::uintmax_t keep = size;
  while (keep > 0) {
    const std::uintmax_t n = std::min<std::uintmax_t>(keep, sizeof(block));
    in.seekg(static_cast<std::streamoff>(keep - n));
    in.read(block, static_cast<std::streamsize>(n));
    PSD_REQUIRE(static_cast<bool>(in), "cannot read campaign JSONL: " + path);
    const auto nl =
        std::string_view(block, static_cast<std::size_t>(n)).rfind('\n');
    keep -= n;
    if (nl != std::string_view::npos) {
      keep += nl + 1;
      break;
    }
  }
  if (keep == size) return;
  in.close();
  std::filesystem::resize_file(path, keep);
}

}  // namespace psd
