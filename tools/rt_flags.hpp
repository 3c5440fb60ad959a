// Shared RtConfig flag block for the serving CLIs.
//
// psdserved and psdcluster configure the same per-node runtime (classes,
// load, distributions, topology, control loop, observability); this header
// holds that flag grammar ONCE so the two front ends cannot drift.  Each
// CLI keeps its own usage text and its own tool-specific flags (replay /
// checks for psdserved, cluster topology / kill schedule for psdcluster)
// and falls through to parse_rt_flag() for everything shared.  The flag
// spellings here are psdserved's originals, unchanged.  psdcluster rejects
// the observability flags its threaded runtime does not honour before
// falling through.
#pragma once

#include <functional>
#include <string>

#include "cli_util.hpp"
#include "rt/runtime.hpp"

namespace psd::cli {

/// Apply one shared RtConfig flag.  `value` consumes the flag's argument
/// (throwing CliError when it is missing).  Returns false when `arg` is not
/// a shared flag — the caller then tries its tool-specific spellings.
inline bool parse_rt_flag(const std::string& arg,
                          const std::function<std::string()>& value,
                          rt::RtConfig& cfg) {
  if (arg == "--classes")
    cfg.delta = parse_list(arg, value(), "--classes 1,2,4");
  else if (arg == "--load")
    cfg.load = normalize_load(arg, parse_double(arg, value(), "--load 0.6"));
  else if (arg == "--shares")
    cfg.load_share = parse_list(arg, value(), "--shares 0.7,0.3");
  else if (arg == "--dist")
    cfg.size_dist = parse_dist(arg, value());
  else if (arg == "--arrivals")
    cfg.arrivals = parse_arrival_spec(arg, value());
  else if (arg == "--profile")
    cfg.profile = parse_profile(arg, value());
  else if (arg == "--admission")
    cfg.admission = parse_admission(arg, value());
  else if (arg == "--converge-tol")
    cfg.converge_tol = parse_double(arg, value(), "--converge-tol 0.25");
  else if (arg == "--shards")
    cfg.shards =
        static_cast<std::size_t>(parse_uint(arg, value(), "--shards 2"));
  else if (arg == "--loadgens")
    cfg.loadgens =
        static_cast<std::size_t>(parse_uint(arg, value(), "--loadgens 2"));
  else if (arg == "--duration")
    cfg.duration = parse_double(arg, value(), "--duration 3");
  else if (arg == "--warmup")
    cfg.warmup = parse_double(arg, value(), "--warmup 0.5");
  else if (arg == "--mean-service-us")
    cfg.mean_service_seconds =
        parse_double(arg, value(), "--mean-service-us 100") * 1e-6;
  else if (arg == "--period-ms")
    cfg.controller_period =
        parse_double(arg, value(), "--period-ms 50") * 1e-3;
  else if (arg == "--allocator")
    cfg.allocator = parse_allocator(arg, value());
  else if (arg == "--burst")
    cfg.bucket_burst_seconds = parse_double(arg, value(), "--burst 0.1");
  else if (arg == "--seed")
    cfg.seed = parse_uint(arg, value(), "--seed 42");
  else if (arg == "--pin")
    cfg.pin_threads = true;
  else if (arg == "--telemetry")
    cfg.obs.enabled = true;
  else if (arg == "--stats-interval")
    cfg.obs.stats_interval =
        parse_double(arg, value(), "--stats-interval 0.5");
  else if (arg == "--metrics-port") {
    cfg.obs.metrics_port =
        static_cast<int>(parse_uint(arg, value(), "--metrics-port 9464"));
    cfg.obs.enabled = true;
  } else if (arg == "--obs-profile") {
    cfg.obs.profile = true;
    cfg.obs.enabled = true;
  } else if (arg == "--trace-sample") {
    cfg.obs.trace_sample_period = static_cast<unsigned>(
        parse_uint(arg, value(), "--trace-sample 64"));
  } else if (arg == "--slo") {
    cfg.obs.slo_rules = value();
    cfg.obs.enabled = true;
  } else if (arg == "--slo-dump") {
    cfg.obs.flight_prefix = value();
  } else {
    return false;
  }
  return true;
}

}  // namespace psd::cli
