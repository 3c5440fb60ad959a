#include "sweep/grid.hpp"

#include <initializer_list>
#include <string_view>
#include <unordered_set>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "sweep/jsonl.hpp"

namespace psd {

namespace {

// Labels are for people: "%g" (6 significant digits).  The canonical,
// hashed form renders exactly instead (json_number).
std::string delta_label(const std::vector<double>& delta) {
  std::string out;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    if (i > 0) out += ':';
    append_g(out, delta[i]);
  }
  return out;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;  // FNV prime
  }
  return h;
}

std::string hex_key(std::uint64_t h) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; h >>= 4) out[i] = kDigits[h & 0xF];
  return out;
}

}  // namespace

const char* backend_name(BackendKind k) {
  switch (k) {
    case BackendKind::kDedicated: return "dedicated";
    case BackendKind::kSfq: return "sfq";
    case BackendKind::kLottery: return "lottery";
    case BackendKind::kWtp: return "wtp";
    case BackendKind::kPad: return "pad";
    case BackendKind::kHpd: return "hpd";
    case BackendKind::kStrict: return "strict";
  }
  PSD_UNREACHABLE("unknown backend kind");
}

const char* allocator_name(AllocatorKind k) {
  switch (k) {
    case AllocatorKind::kPsd: return "psd";
    case AllocatorKind::kAdaptivePsd: return "adaptive";
    case AllocatorKind::kEqualShare: return "equal";
    case AllocatorKind::kLoadProportional: return "loadprop";
    case AllocatorKind::kNone: return "none";
  }
  PSD_UNREACHABLE("unknown allocator kind");
}

const char* rate_change_name(RateChangePolicy p) {
  switch (p) {
    case RateChangePolicy::kRescaleRemaining: return "rescale";
    case RateChangePolicy::kFinishAtOldRate: return "finish";
  }
  PSD_UNREACHABLE("unknown rate-change policy");
}

const char* assignment_policy_name(AssignmentPolicy p) {
  switch (p) {
    case AssignmentPolicy::kRandom: return "random";
    case AssignmentPolicy::kRoundRobin: return "rr";
    case AssignmentPolicy::kLeastWorkLeft: return "lwl";
    case AssignmentPolicy::kSizeInterval: return "sita";
    case AssignmentPolicy::kJsq: return "jsq";
  }
  PSD_UNREACHABLE("unknown assignment policy");
}

std::string dist_name(const DistSpec& spec) { return spec.name(); }

std::string config_canonical(const ScenarioConfig& in) {
  // Normalize away fields the selected machinery never reads (see header).
  ScenarioConfig cfg = in;
  const ScenarioConfig defaults;
  if (cfg.backend != BackendKind::kLottery) {
    cfg.lottery_quantum_tu = defaults.lottery_quantum_tu;
  }
  if (cfg.backend != BackendKind::kDedicated) {
    cfg.rate_change = defaults.rate_change;
  }
  if (cfg.allocator != AllocatorKind::kAdaptivePsd) {
    cfg.adaptive = AdaptiveConfig{};
  }
  if (cfg.cluster_nodes == 1) cfg.cluster_policy = defaults.cluster_policy;
  if (cfg.cluster_policy != AssignmentPolicy::kJsq) {
    cfg.cluster_jsq_d = defaults.cluster_jsq_d;
  }
  if (cfg.arrivals != ArrivalKind::kBursty) {
    cfg.burstiness = defaults.burstiness;
    cfg.mmpp_sojourn = defaults.mmpp_sojourn;
    cfg.mmpp_duty = defaults.mmpp_duty;
  }
  if (!cfg.profile.active()) cfg.converge_tol = defaults.converge_tol;
  if (!cfg.admission.active()) cfg.admission = AdmissionSpec{};
  if (!cfg.record_requests) {
    cfg.record_from_tu = defaults.record_from_tu;
    cfg.record_to_tu = defaults.record_to_tu;
  }

  std::string s;
  s.reserve(512);
  auto num = [&](const char* name, double v) {
    s += name;
    s += '=';
    append_json_number(s, v);
    s += ';';
  };
  auto vec = [&](const char* name, const std::vector<double>& v) {
    s += name;
    s += '=';
    append_json_array(s, v);
    s += ';';
  };
  auto uns = [&](const char* name, std::uint64_t v) {
    s += name;
    s += '=';
    s += std::to_string(v);
    s += ';';
  };
  // "(a,b,...);" — the parameter list of the size law and the profile.
  auto params = [&](std::initializer_list<double> vs) {
    char sep = '(';
    for (const double v : vs) {
      s += sep;
      append_json_number(s, v);
      sep = ',';
    }
    s += ");";
  };
  vec("delta", cfg.delta);
  num("load", cfg.load);
  vec("load_share", cfg.load_share);
  s += "dist=";
  s += cfg.size_dist.kind_name();
  params({cfg.size_dist.a, cfg.size_dist.b, cfg.size_dist.c});
  uns("arrivals", static_cast<std::uint64_t>(cfg.arrivals));
  num("burstiness", cfg.burstiness);
  // Nonstationary fields append only when off their defaults, so every
  // pre-existing (stationary, symmetric-MMPP) config keeps its canonical
  // string — and with it its content key, resume identity, and derived
  // point seed — byte-for-byte.
  if (cfg.mmpp_sojourn != defaults.mmpp_sojourn) {
    num("mmpp_sojourn", cfg.mmpp_sojourn);
  }
  if (cfg.mmpp_duty != defaults.mmpp_duty) num("mmpp_duty", cfg.mmpp_duty);
  if (cfg.profile.active()) {
    s += "profile=";
    s += std::to_string(static_cast<int>(cfg.profile.kind));
    params({cfg.profile.a, cfg.profile.b, cfg.profile.c, cfg.profile.d});
    num("converge_tol", cfg.converge_tol);
  }
  if (cfg.admission != AdmissionSpec{}) {
    // name() round-trips through AdmissionSpec::parse and renders params
    // canonically, so it is safe to hash.
    s += "admission=";
    s += cfg.admission.name();
    s += ';';
  }
  num("capacity", cfg.capacity);
  num("warmup_tu", cfg.warmup_tu);
  num("measure_tu", cfg.measure_tu);
  num("window_tu", cfg.window_tu);
  num("realloc_tu", cfg.realloc_tu);
  uns("estimator_history", cfg.estimator_history);
  s += "backend=";
  s += backend_name(cfg.backend);
  s += ';';
  s += "allocator=";
  s += allocator_name(cfg.allocator);
  s += ';';
  num("adaptive.gain", cfg.adaptive.gain);
  num("adaptive.max_correction", cfg.adaptive.max_correction);
  num("adaptive.smoothing", cfg.adaptive.smoothing);
  num("lottery_quantum_tu", cfg.lottery_quantum_tu);
  s += "rate_change=";
  s += rate_change_name(cfg.rate_change);
  s += ';';
  num("rho_max", cfg.rho_max);
  num("min_residual_share", cfg.min_residual_share);
  uns("cluster_nodes", cfg.cluster_nodes);
  s += "cluster_policy=";
  s += assignment_policy_name(cfg.cluster_policy);
  s += ';';
  // Appended only under kJsq (a policy no pre-existing config could name),
  // so every other config keeps its canonical string — and with it its
  // content key, resume identity, and derived point seed — byte-for-byte.
  if (cfg.cluster_policy == AssignmentPolicy::kJsq) {
    uns("cluster_jsq_d", cfg.cluster_jsq_d);
  }
  uns("record_requests", cfg.record_requests ? 1 : 0);
  num("record_from_tu", cfg.record_from_tu);
  num("record_to_tu", cfg.record_to_tu);
  return s;
}

std::uint64_t config_hash(const ScenarioConfig& cfg) {
  return fnv1a(config_canonical(cfg));
}

std::string config_key(const ScenarioConfig& cfg) {
  return hex_key(config_hash(cfg));
}

std::uint64_t derive_point_seed(std::uint64_t master_seed,
                                const ScenarioConfig& cfg) {
  return derive_point_seed(master_seed, config_hash(cfg));
}

std::uint64_t derive_point_seed(std::uint64_t master_seed,
                                std::uint64_t hash) {
  // SplitMix64 over (master ^ content hash): any change to either yields an
  // unrelated stream, and the result depends on nothing else.
  SplitMix64 sm(master_seed ^ (hash * 0x9E3779B97F4A7C15ULL));
  return sm.next();
}

std::vector<CampaignPoint> expand_grid(const GridSpec& grid) {
  // Defaulted axes: one value taken from the base config.
  const auto deltas =
      grid.deltas.empty() ? std::vector<std::vector<double>>{grid.base.delta}
                          : grid.deltas;
  const auto dists = grid.dists.empty() ? std::vector<DistSpec>{grid.base.size_dist}
                                        : grid.dists;
  const auto backends = grid.backends.empty()
                            ? std::vector<BackendKind>{grid.base.backend}
                            : grid.backends;
  const auto allocators =
      grid.allocators.empty() ? std::vector<AllocatorKind>{grid.base.allocator}
                              : grid.allocators;
  const auto rate_changes =
      grid.rate_changes.empty()
          ? std::vector<RateChangePolicy>{grid.base.rate_change}
          : grid.rate_changes;
  const auto nodes = grid.cluster_nodes.empty()
                         ? std::vector<std::size_t>{grid.base.cluster_nodes}
                         : grid.cluster_nodes;
  const auto policies =
      grid.cluster_policies.empty()
          ? std::vector<AssignmentPolicy>{grid.base.cluster_policy}
          : grid.cluster_policies;
  const auto loads =
      grid.loads.empty() ? std::vector<double>{grid.base.load} : grid.loads;
  const auto profiles = grid.profiles.empty()
                            ? std::vector<LoadProfile>{grid.base.profile}
                            : grid.profiles;
  const auto admissions = grid.admissions.empty()
                              ? std::vector<AdmissionSpec>{grid.base.admission}
                              : grid.admissions;

  std::vector<CampaignPoint> points;
  points.reserve(deltas.size() * dists.size() * backends.size() *
                 allocators.size() * rate_changes.size() * nodes.size() *
                 policies.size() * profiles.size() * admissions.size() *
                 loads.size());
  std::unordered_set<std::string> seen;
  for (const auto& delta : deltas) {
    const std::string delta_text = delta_label(delta);
    for (const auto& dist : dists) {
      const std::string dist_text = dist_name(dist);
      for (const auto backend : backends) {
        for (const auto allocator : allocators) {
          for (const auto rate_change : rate_changes) {
            for (const auto node_count : nodes) {
              for (const auto policy : policies) {
                for (const auto& profile : profiles) {
                  for (const auto& admission : admissions) {
                    for (const double load : loads) {
                      ScenarioConfig cfg = grid.base;
                      cfg.delta = delta;
                      cfg.size_dist = dist;
                      cfg.backend = backend;
                      cfg.allocator = allocator;
                      cfg.rate_change = rate_change;
                      cfg.cluster_nodes = node_count;
                      cfg.cluster_policy = policy;
                      cfg.profile = profile;
                      cfg.admission = admission;
                      cfg.load = load;
                      cfg.validate();
                      // Dedup on the full canonical form, not the 64-bit
                      // key, so a hash collision can never silently drop a
                      // point.
                      const auto [canon, fresh] =
                          seen.insert(config_canonical(cfg));
                      if (!fresh) continue;
                      CampaignPoint p;
                      p.hash = fnv1a(*canon);
                      p.key = hex_key(p.hash);
                      p.label = "delta=" + delta_text +
                                " load=" + format_g(load) +
                                " backend=" + backend_name(backend) +
                                " alloc=" + allocator_name(allocator) +
                                " dist=" + dist_text;
                      if (rate_change != RateChangePolicy::kRescaleRemaining) {
                        p.label += std::string(" rate_change=") +
                                   rate_change_name(rate_change);
                      }
                      if (node_count > 1) {
                        p.label +=
                            " nodes=" + std::to_string(node_count) +
                            " policy=" +
                            AssignmentSpec(policy, cfg.cluster_jsq_d).name();
                      }
                      if (profile.active()) {
                        p.label += " profile=" + profile.name();
                      }
                      if (admission.active()) {
                        p.label += " admission=" + admission.name();
                      }
                      p.cfg = std::move(cfg);
                      points.push_back(std::move(p));
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return points;
}

}  // namespace psd
