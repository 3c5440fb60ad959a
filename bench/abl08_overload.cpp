// Ablation A8: overload survival at 1.2x / 1.5x / 2x capacity.
//
// The delta-aware proportional shedder thins every class so admitted demand
// fits under 0.8 of capacity; the adaptive eq.-17 allocator then holds the
// slowdown ratios among the (thinned) survivors.  admit-all is the
// degradation baseline: the gate is installed but sheds nothing, so every
// queue diverges together and differentiation collapses toward 1.0.
//
// Gate records (suite "overload", BENCH_overload.json) carry each metric
// under its own name and tools/bench_gate.py gates it in its own direction:
//   overload_goodput_<load>    goodput_tu, higher is better
//   overload_ratio_err_<load>  survivor_ratio_err, lower is better
// Replication count is a fixed 8 (not PSD_RUNS-sensitive): the committed
// baseline is deterministic at the default seed, so the CI gate compares
// like against like.
#include <cmath>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace {

// The canonical overload operating point (src/admission/README.md): bexp
// sizes keep E[1/X] finite with a light tail; the adaptive allocator's
// feedback closes the model-mismatch gap that error-diffusion thinning
// opens (thinned streams are no longer Poisson, so static eq. 17 drifts).
psd::ScenarioConfig overload_point(double load, const std::string& adm) {
  psd::ScenarioConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = load;
  cfg.size_dist = psd::DistSpec::bounded_exponential(1.0, 0.1, 10.0);
  cfg.allocator = psd::AllocatorKind::kAdaptivePsd;
  cfg.warmup_tu = 20000.0;
  cfg.measure_tu = 40000.0;
  cfg.admission = psd::AdmissionSpec::parse(adm);
  return cfg;
}

double shed_fraction(const psd::ReplicatedResult& r) {
  double frac = 0.0;
  for (double s : r.shed_rate) frac = std::max(frac, s);
  return frac;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psd;
  const std::string records =
      argc > 1 ? argv[1] : std::string("BENCH_overload.json");
  const std::size_t runs = 8;

  bench::header("Ablation A8 — overload survival",
                "deltas (1,2); bexp(1,0.1,10); adaptive eq. 17; "
                "delta-aware:0.8 vs admit-all",
                runs);

  Table t({"load", "policy", "goodput/tu", "worst shed%", "ratio err%"});
  for (double load : {1.2, 1.5, 2.0}) {
    ReplicatedResult gated;
    for (const char* adm : {"delta-aware:0.8", "admit-all"}) {
      const auto r = run_replications(overload_point(load, adm), runs);
      t.add_row({Table::fmt(load, 1), adm, Table::fmt(r.goodput_tu, 3),
                 Table::fmt(100.0 * shed_fraction(r), 1),
                 Table::fmt(100.0 * r.survivor_ratio_err, 1)});
      if (adm[0] == 'd') gated = r;
    }
    const std::string pct = std::to_string(static_cast<int>(load * 100));
    bench::emit_metric_record(records, "overload", "overload_goodput_" + pct,
                              "\"impl\":\"delta-aware\"", "goodput_tu",
                              gated.goodput_tu, "higher", runs);
    bench::emit_metric_record(
        records, "overload", "overload_ratio_err_" + pct,
        "\"impl\":\"delta-aware\"", "survivor_ratio_err",
        gated.survivor_ratio_err, "lower", runs);
  }
  t.print(std::cout);
  std::cout << "\nGoodput holds near the 0.8 admission target at every "
               "overload factor while\nadmit-all's ratio integrity "
               "collapses; see src/admission/README.md.\n";
  return 0;
}
