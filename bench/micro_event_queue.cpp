// Microbenchmark M2: event-queue throughput of the pooled core (slab payload
// pool, 4-ary heap of 24-byte keys, generation-counted handles, zero
// steady-state allocations).
//
// Benches:
//   schedule_pop_empty      captureless payloads — isolates the heap/layout
//                           cost.
//   schedule_pop_completion 24-byte captures, the size of a real completion
//                           callback ([this, cls, ran]).
//   cancellable             completion-sized capture + cancellation token.
//   cancel_heavy            a cancellable + a fast event per op, the first
//                           cancelled: the reallocation churn.
//   hot_path_mix            the per-request pattern of the real simulator at
//                           a realistic pending-set size: one cancellable
//                           arrival, one cancellable completion that gets
//                           cancelled and rescheduled (the reallocation
//                           pattern), one fast event, two pops.  This is the
//                           headline number.
//
// Appends machine-readable records to BENCH_event_core.json (JSONL).  The
// records keep impl "pooled" so they stay keyed like the committed baseline.
#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "json_bench.hpp"
#include "sim/event_queue.hpp"

namespace {

using psd::bench::emit_record;
using psd::bench::min_ns_per_op;

// Per timed block; each bench reports the min over kRepeats blocks after a
// warmup pass, so records stay comparable across PRs.
constexpr std::uint64_t kIters = 500'000;
constexpr int kRepeats = 5;

// One op: schedule one captureless event, pop the earliest.
double bench_schedule_pop_empty(const std::string& path,
                                std::size_t backlog) {
  psd::EventQueue q;
  psd::Rng rng(1);
  double t = 0.0;
  for (std::size_t i = 0; i < backlog; ++i) {
    q.schedule_fast(t + rng.uniform01() * 100.0, [] {});
  }
  const double ns = min_ns_per_op(kIters / 5, kIters, kRepeats, [&] {
    q.schedule_fast(t + rng.uniform01() * 100.0, [] {});
    t = q.pop_and_run();
    return t;
  });
  emit_record(path, "event_queue", "schedule_pop_empty",
              "\"impl\":\"pooled\",\"backlog\":" + std::to_string(backlog),
              ns, kIters);
  return ns;
}

// One op: schedule an event whose payload captures 24 bytes (pointer + two
// scalars — a completion callback), pop the earliest.
double bench_schedule_pop_completion(const std::string& path,
                                     std::size_t backlog) {
  psd::EventQueue q;
  psd::Rng rng(2);
  double t = 0.0, acc = 0.0;
  double* sink = &acc;
  for (std::size_t i = 0; i < backlog; ++i) {
    const double sz = rng.uniform01();
    q.schedule_fast(t + rng.uniform01() * 100.0,
                    [sink, sz, t] { *sink += sz + t; });
  }
  const double ns = min_ns_per_op(kIters / 5, kIters, kRepeats, [&] {
    const double sz = rng.uniform01();
    q.schedule_fast(t + rng.uniform01() * 100.0,
                    [sink, sz, t] { *sink += sz + t; });
    t = q.pop_and_run();
    return t;
  });
  emit_record(path, "event_queue", "schedule_pop_completion",
              "\"impl\":\"pooled\",\"backlog\":" + std::to_string(backlog),
              ns, kIters);
  return ns;
}

// One op: cancellable schedule (a slab slot) with a completion-sized
// capture, then pop.
double bench_cancellable(const std::string& path, std::size_t backlog) {
  psd::EventQueue q;
  psd::Rng rng(3);
  double t = 0.0, acc = 0.0;
  double* sink = &acc;
  for (std::size_t i = 0; i < backlog; ++i) {
    const double sz = rng.uniform01();
    q.schedule(t + rng.uniform01() * 100.0, [sink, sz, t] { *sink += sz; });
  }
  const double ns = min_ns_per_op(kIters / 5, kIters, kRepeats, [&] {
    const double sz = rng.uniform01();
    auto h =
        q.schedule(t + rng.uniform01() * 100.0, [sink, sz, t] { *sink += sz; });
    const double alive = h.pending() ? 1.0 : 0.0;
    t = q.pop_and_run();
    return t + alive;
  });
  emit_record(path, "event_queue", "cancellable",
              "\"impl\":\"pooled\",\"backlog\":" + std::to_string(backlog),
              ns, kIters);
  return ns;
}

// One op: schedule a cancellable + a fast event (completion-sized captures),
// cancel the first, pop one.  Half of all scheduled events die before firing
// — the dedicated-rate backend's reallocation churn.
double bench_cancel_heavy(const std::string& path) {
  psd::EventQueue q;
  psd::Rng rng(5);
  double t = 0.0, acc = 0.0;
  double* sink = &acc;
  const double ns = min_ns_per_op(kIters / 5, kIters, kRepeats, [&] {
    const double sz = rng.uniform01();
    auto h =
        q.schedule(t + rng.uniform01() * 10.0, [sink, sz, t] { *sink += sz; });
    q.schedule_fast(t + rng.uniform01() * 10.0,
                    [sink, sz, t] { *sink += sz + t; });
    h.cancel();
    t = q.pop_and_run();
    return t;
  });
  emit_record(path, "event_queue", "cancel_heavy",
              "\"impl\":\"pooled\"", ns, kIters);
  return ns;
}

// One op = one simulated "request" at a realistic pending-set size (a real
// run keeps ~tens of events pending: per-class completions, next arrivals,
// the reallocation timer):
//   1. cancellable arrival event (generator pattern),
//   2. cancellable completion event, immediately cancelled and rescheduled
//      (the dedicated-rate backend's set_rates pattern),
//   3. one fast event (timer tick),
//   4. pop three events to keep the set in steady state.
double bench_hot_path_mix(const std::string& path, std::size_t backlog) {
  psd::EventQueue q;
  psd::Rng rng(4);
  double t = 0.0, acc = 0.0;
  double* sink = &acc;
  for (std::size_t i = 0; i < backlog; ++i) {
    q.schedule_fast(t + rng.uniform01() * 8.0, [] {});
  }
  const double ns = min_ns_per_op(kIters / 5, kIters, kRepeats, [&] {
    const double sz = rng.uniform01();
    q.schedule(t + rng.uniform01() * 8.0, [sink, sz, t] { *sink += sz + t; });
    auto completion =
        q.schedule(t + rng.uniform01() * 8.0, [sink, sz, t] { *sink += sz; });
    completion.cancel();
    q.schedule(t + 0.5 + rng.uniform01() * 8.0,
               [sink, sz, t] { *sink += 2.0 * sz; });
    q.schedule_fast(t + rng.uniform01() * 8.0, [sink, t] { *sink += t; });
    t = q.pop_and_run();
    t = q.pop_and_run();
    t = q.pop_and_run();
    return t;
  });
  emit_record(path, "event_queue", "hot_path_mix",
              "\"impl\":\"pooled\",\"backlog\":" + std::to_string(backlog),
              ns, kIters);
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : psd::bench::kDefaultRecordsPath;

  for (std::size_t backlog : {std::size_t{64}, std::size_t{4096},
                              std::size_t{32768}}) {
    bench_schedule_pop_empty(path, backlog);
  }
  for (std::size_t backlog : {std::size_t{32}, std::size_t{1024}}) {
    bench_schedule_pop_completion(path, backlog);
  }
  bench_cancellable(path, 1024);
  const double churn = bench_cancel_heavy(path);
  const double mix = bench_hot_path_mix(path, 32);

  std::printf("cancel-churn: %.1f ns/op\n", churn);
  std::printf("hot-path-mix: %.1f ns/request\n", mix);
  return 0;
}
