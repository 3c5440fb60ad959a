// Minimal self-contained microbench harness (no external dependency), after
// the warmup + volatile-sink discipline of the wg21-p0493 bench runner:
// run the op under test in a tight loop against a `volatile` data sink the
// compiler cannot elide, after a warmup pass that faults in caches and
// brings vectors to their steady-state capacity.
//
// Results land as one JSON object per line in a records file (JSONL —
// trivially machine-readable, and several binaries can share one file
// without a merge step).  A record REPLACES any earlier record with the
// same (suite, bench, impl) key — re-running a bench refreshes its line in
// place instead of appending a duplicate (the committed baselines stay
// deduplicated by construction; bench_gate.py's last-wins keying remains
// correct either way).  The rewrite goes through a temp file + rename so a
// crash mid-write never truncates the shared records file.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

namespace psd::bench {

inline const char* kDefaultRecordsPath = "BENCH_event_core.json";
inline const char* kHotPathRecordsPath = "BENCH_hot_path.json";

/// Min-of-k repetition: one warmup pass, then `k` independently timed blocks
/// of `iters` iterations; report the fastest block.  The minimum estimates
/// the noise-free cost of the op — means drift with scheduler jitter and
/// frequency scaling, which made single-shot BENCH_*.json numbers too shaky
/// to compare across PRs.  `fn` must feed its observable result into a
/// volatile sink itself or return a value, which the harness accumulates.
template <typename F>
double min_ns_per_op(std::uint64_t warmup, std::uint64_t iters, int k,
                     F&& fn) {
  volatile double sink = 0.0;
  for (std::uint64_t i = 0; i < warmup; ++i) sink = sink + fn();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < k; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) sink = sink + fn();
    const auto done = std::chrono::steady_clock::now();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(done - start)
            .count();
    best = std::min(best,
                    static_cast<double>(ns) / static_cast<double>(iters));
  }
  (void)sink;
  return best;
}

/// Render a double as a JSON number, or null when non-finite — a literal
/// "nan"/"inf" in one record line breaks every JSONL consumer of the whole
/// file (tools/bench_gate.py aborts in load_records).
inline std::string json_num(double v) {
  if (!(v == v) || v == std::numeric_limits<double>::infinity() ||
      v == -std::numeric_limits<double>::infinity()) {
    return "null";
  }
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Value of a string field in a rendered JSONL record line, or "" when the
/// field is absent.  Enough JSON for the records this header itself writes
/// (keys/values without escaped quotes).
inline std::string record_field(const std::string& line,
                                const std::string& field) {
  const std::string needle = "\"" + field + "\":\"";
  const auto at = line.find(needle);
  if (at == std::string::npos) return "";
  const auto start = at + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return "";
  return line.substr(start, end - start);
}

/// Write the record `line` of (suite, bench): replaces any existing record
/// with the same (suite, bench, impl); all other lines are preserved.
inline void write_record(const std::string& path, const std::string& suite,
                         const std::string& bench, const std::string& line) {
  const std::string impl = record_field(line, "impl");

  std::string kept;  // every line whose key differs from the new record's
  {
    std::ifstream in(path);
    std::string old;
    while (std::getline(in, old)) {
      if (old.empty()) continue;
      if (record_field(old, "suite") == suite &&
          record_field(old, "bench") == bench &&
          record_field(old, "impl") == impl) {
        continue;  // superseded
      }
      kept += old;
      kept += '\n';
    }
  }

  const std::string tmp = path + ".tmp";
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (out) {
      out << kept << line << '\n';
      out.flush();
      ok = static_cast<bool>(out);
    }
  }
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::cerr << "warning: could not write record to " << path << '\n';
  }
  std::cout << line << '\n';
}

/// "{"suite":...,"bench":...[,extra]" — an open record line.
inline std::string record_head(const std::string& suite,
                               const std::string& bench,
                               const std::string& extra) {
  std::string head =
      "{\"suite\":\"" + suite + "\",\"bench\":\"" + bench + "\"";
  if (!extra.empty()) head += "," + extra;
  return head;
}

/// One benchmark record gated on ns_per_op, lower is better; `extra` is
/// pre-rendered JSON key/values, e.g. "\"impl\":\"pooled\",\"backlog\":4096".
inline void emit_record(const std::string& path, const std::string& suite,
                        const std::string& bench, const std::string& extra,
                        double ns_per_op, std::uint64_t iters) {
  std::ostringstream os;
  os << record_head(suite, bench, extra)
     << ",\"ns_per_op\":" << json_num(ns_per_op)
     << ",\"ops_per_sec\":" << json_num(1e9 / ns_per_op)
     << ",\"iters\":" << iters << "}";
  write_record(path, suite, bench, os.str());
}

/// One record gated on its own field: `metric` names the field carrying
/// `value`, and `better` ("lower" or "higher") is the direction
/// tools/bench_gate.py gates it in.
inline void emit_metric_record(const std::string& path,
                               const std::string& suite,
                               const std::string& bench,
                               const std::string& extra,
                               const std::string& metric, double value,
                               const std::string& better,
                               std::uint64_t iters) {
  std::ostringstream os;
  os << record_head(suite, bench, extra) << ",\"metric\":\"" << metric
     << "\",\"better\":\"" << better << "\",\"" << metric
     << "\":" << json_num(value) << ",\"iters\":" << iters << "}";
  write_record(path, suite, bench, os.str());
}

}  // namespace psd::bench
