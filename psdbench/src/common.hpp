// Shared plumbing of psdbench: the metric catalogue, the result
// record every workload fills, CPU clocks and order statistics.
//
// The catalogue below is the one place a metric's name and unit live in
// code; psdbench/run.py checks it against BENCHMARK.json on every run, so
// the two cannot drift apart silently.
#pragma once

#include <pthread.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace psdbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for files a run leaves behind (span traces).
  std::string out_dir = ".";
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, printed by each untraced run.
const std::vector<MetricDef>& end_to_end_metrics();
/// Every per-layer metric, printed by each traced run.  A layer a workload
/// does not run reads 0 there (its work count is zero).
const std::vector<MetricDef>& per_layer_metrics();

/// What one invocation prints: notes, then the one-line JSON
/// object {"correct", "attempted", "failed", "metrics"} as the last line.
class Result {
 public:
  /// Set a catalogued metric (the unit comes from the catalogue).
  void set(const std::string& name, double value);
  /// Record a correctness check; a failed one makes the output incorrect.
  void check(bool ok, const std::string& what);
  /// A line printed above the JSON result.
  void note(const std::string& line);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Fill unset per-layer metrics with 0 (traced runs) and flag any metric
  /// of the mode's set that is still missing or not finite.
  void finalize(bool trace);
  bool correct() const { return problems_.empty(); }
  void print(bool trace) const;

 private:
  struct Entry {
    std::string name;
    double value;
  };
  std::vector<Entry> values_;
  std::vector<std::string> problems_;
  std::vector<std::string> notes_;
};

// --- clocks ---

double process_cpu_seconds();
double this_thread_cpu_seconds();
/// CPU seconds consumed so far by another (live) thread of this process.
double thread_cpu_seconds(pthread_t thread);
double wall_seconds();  ///< steady_clock, arbitrary origin.

// --- statistics ---

/// Linear-interpolated quantile (q in [0,1]); NaN when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// min(r/t, t/r): 1 when the achieved ratio r hits the target t exactly,
/// falling toward 0 as it misses by a growing factor either way.  NaN when
/// r is not a positive finite number.
double attainment(double ratio, double target);

// --- set-up timing ---

/// Set-ups timed per run; setup_s is their median.
inline constexpr int kSetups = 15;

struct SetupTiming {
  double median_s = 0.0;    ///< Median construction time.
  double last_start = 0.0;  ///< wall_seconds() when the kept object began.
};

/// Construct kSetups objects with `make`, one after another, timing each;
/// `out` keeps the last one.  Earlier objects stay alive until all are
/// built, so every construction allocates and touches fresh memory, as in
/// a new process.  Reusing freed memory instead makes the figure depend on
/// the allocator's state: it moved between 0.3 and 1.1 ms from one set of
/// runs to the next.
template <typename T, typename Make>
SetupTiming timed_setups(std::unique_ptr<T>& out, Make&& make) {
  std::vector<double> times;
  std::vector<std::unique_ptr<T>> built;
  SetupTiming t;
  for (int i = 0; i < kSetups; ++i) {
    if (out) built.push_back(std::move(out));
    t.last_start = wall_seconds();
    out = make();
    times.push_back(wall_seconds() - t.last_start);
  }
  t.median_s = median(times);
  return t;
}

}  // namespace psdbench
