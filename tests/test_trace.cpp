// Trace record / replay and CSV round-trip.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "dist/sampler.hpp"
#include "experiment/runner.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace psd {
namespace {

class CollectingSink final : public RequestSink {
 public:
  void submit(const Request& req) override { requests.push_back(req); }
  std::vector<Request> requests;
};

TEST(RecordingSink, CapturesAndForwards) {
  CollectingSink down;
  RecordingSink rec(&down);
  Request r;
  r.cls = 2;
  r.arrival = 5.0;
  r.size = 1.5;
  rec.submit(r);
  ASSERT_EQ(rec.trace().size(), 1u);
  EXPECT_DOUBLE_EQ(rec.trace()[0].time, 5.0);
  EXPECT_EQ(rec.trace()[0].cls, 2u);
  EXPECT_DOUBLE_EQ(rec.trace()[0].size, 1.5);
  EXPECT_EQ(down.requests.size(), 1u);
}

TEST(RecordingSink, WorksWithoutDownstream) {
  RecordingSink rec;
  Request r;
  r.arrival = 1.0;
  r.size = 1.0;
  rec.submit(r);
  EXPECT_EQ(rec.trace().size(), 1u);
}

TEST(TracePlayer, ReplaysAtShiftedTimes) {
  Trace t = {{10.0, 0, 1.0}, {12.0, 1, 2.0}, {15.0, 0, 3.0}};
  Simulator sim;
  CollectingSink sink;
  TracePlayer player(sim, t, sink);
  player.start(100.0);
  sim.run_until(1000.0);
  ASSERT_EQ(sink.requests.size(), 3u);
  EXPECT_DOUBLE_EQ(sink.requests[0].arrival, 100.0);
  EXPECT_DOUBLE_EQ(sink.requests[1].arrival, 102.0);
  EXPECT_DOUBLE_EQ(sink.requests[2].arrival, 105.0);
  EXPECT_EQ(sink.requests[1].cls, 1u);
  EXPECT_DOUBLE_EQ(sink.requests[2].size, 3.0);
}

TEST(TracePlayer, RejectsUnorderedTrace) {
  Trace t = {{10.0, 0, 1.0}, {5.0, 0, 1.0}};
  Simulator sim;
  CollectingSink sink;
  EXPECT_THROW(TracePlayer(sim, t, sink), std::invalid_argument);
}

TEST(TracePlayer, EmptyTraceIsNoop) {
  Simulator sim;
  CollectingSink sink;
  TracePlayer player(sim, {}, sink);
  player.start(0.0);
  sim.run_until(10.0);
  EXPECT_TRUE(sink.requests.empty());
}

TEST(TraceCsv, RoundTrip) {
  Trace t = {{1.5, 0, 0.25}, {2.75, 3, 17.0}};
  std::stringstream ss;
  write_trace(ss, t);
  const auto back = read_trace(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back[0].time, 1.5);
  EXPECT_EQ(back[1].cls, 3u);
  EXPECT_DOUBLE_EQ(back[1].size, 17.0);
}

TEST(TraceCsv, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# header\n\n1.0,0,2.0\n# mid\n2.0,1,3.0\n");
  const auto t = read_trace(ss);
  ASSERT_EQ(t.size(), 2u);
}

TEST(TraceCsv, RejectsMalformedLine) {
  std::stringstream ss("1.0;0;2.0\n");
  EXPECT_THROW(read_trace(ss), std::invalid_argument);
}

TEST(TraceCsv, RoundTripIsExactForArbitraryDoubles) {
  // Full-precision round-trip: replayed arrivals must hit the server at
  // bit-identical times, so the text format cannot truncate.
  Trace t = {{0.1 + 0.2, 0, 1.0 / 3.0}, {12345.6789012345678, 1, 9.87e-7}};
  std::stringstream ss;
  write_trace(ss, t);
  const auto back = read_trace(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].time, t[0].time);    // bitwise, not NEAR
  EXPECT_EQ(back[0].size, t[0].size);
  EXPECT_EQ(back[1].time, t[1].time);
  EXPECT_EQ(back[1].size, t[1].size);
}

TEST(TraceScenario, RecordedScenarioReplaysToIdenticalResults) {
  // The runner-level round trip psdsim's --record-trace/--replay-trace use:
  // a replication recorded through the tee, then replayed through the same
  // measurement protocol, must reproduce every statistic exactly (the
  // arrivals — the only stochastic input the dedicated backend consumes —
  // are pinned by the trace).
  ScenarioConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = 0.6;
  cfg.warmup_tu = 500.0;
  cfg.measure_tu = 3000.0;
  cfg.seed = 13;

  Trace trace;
  const RunResult recorded = run_scenario_recorded(cfg, trace);
  ASSERT_GT(trace.size(), 100u);
  ASSERT_EQ(recorded.submitted, trace.size());

  // Round-trip through the text format, as the CLI does.
  std::stringstream ss;
  write_trace(ss, trace);
  const Trace reloaded = read_trace(ss);

  const RunResult replayed = run_scenario_replayed(cfg, reloaded);
  ASSERT_EQ(replayed.cls.size(), recorded.cls.size());
  EXPECT_EQ(replayed.submitted, recorded.submitted);
  for (std::size_t c = 0; c < recorded.cls.size(); ++c) {
    EXPECT_EQ(replayed.cls[c].completed, recorded.cls[c].completed);
    EXPECT_DOUBLE_EQ(replayed.cls[c].mean_slowdown,
                     recorded.cls[c].mean_slowdown);
    EXPECT_DOUBLE_EQ(replayed.cls[c].mean_delay, recorded.cls[c].mean_delay);
  }
  EXPECT_DOUBLE_EQ(replayed.system_slowdown, recorded.system_slowdown);
}

TEST(TraceEndToEnd, RecordedWorkloadReplaysIdentically) {
  // Record a Poisson/BoundedPareto stream, replay it, and compare.
  Simulator sim1;
  RecordingSink rec;
  RequestGenerator gen(sim1, Rng(9), 1, PoissonArrivals(3.0),
                       make_sampler(DistSpec::bounded_pareto(1.5, 0.1, 100.0)),
                       rec);
  gen.start(0.0);
  sim1.run_until(100.0);
  const Trace trace = rec.trace();
  ASSERT_GT(trace.size(), 100u);

  Simulator sim2;
  CollectingSink sink;
  TracePlayer player(sim2, trace, sink);
  player.start(trace.front().time);
  sim2.run_until(1000.0);
  ASSERT_EQ(sink.requests.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NEAR(sink.requests[i].arrival, trace[i].time, 1e-12);
    EXPECT_DOUBLE_EQ(sink.requests[i].size, trace[i].size);
    EXPECT_EQ(sink.requests[i].cls, trace[i].cls);
  }
}

}  // namespace
}  // namespace psd
