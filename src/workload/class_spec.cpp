#include "workload/class_spec.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "common/format.hpp"

namespace psd {

namespace {

constexpr const char* kArrivalGrammar =
    "poisson | det | mmpp:burst[,sojourn[,duty]]";

}  // namespace

void ArrivalSpec::validate() const {
  if (kind == ArrivalKind::kBursty) {
    PSD_REQUIRE(burstiness >= 1.0, "mmpp burst must be >= 1");
    PSD_REQUIRE(sojourn > 0.0, "mmpp sojourn must be positive");
    PSD_REQUIRE(duty > 0.0 && duty < 1.0, "mmpp duty must be in (0,1)");
  }
}

std::string ArrivalSpec::name() const {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kDeterministic:
      return "det";
    case ArrivalKind::kBursty:
      return "mmpp:" + format_g(burstiness) + ',' + format_g(sojourn) + ',' +
             format_g(duty);
  }
  PSD_UNREACHABLE("unknown arrival kind");
}

ArrivalSpec ArrivalSpec::parse(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  ArrivalSpec out;
  if (kind == "poisson" || kind == "det" || kind == "deterministic") {
    PSD_REQUIRE(colon == std::string::npos,
                "arrival process '" + kind + "' takes no parameters");
    out.kind = kind == "poisson" ? ArrivalKind::kPoisson
                                 : ArrivalKind::kDeterministic;
    return out;
  }
  PSD_REQUIRE(kind == "mmpp", "unknown arrival process '" + spec +
                                  "' (expected " + kArrivalGrammar + ")");
  std::vector<double> args;
  if (colon != std::string::npos) {
    std::stringstream ss(spec.substr(colon + 1));
    std::string item;
    while (std::getline(ss, item, ',')) {
      try {
        std::size_t used = 0;
        const double v = std::stod(item, &used);
        PSD_REQUIRE(used == item.size(), "");
        args.push_back(v);
      } catch (const std::exception&) {
        PSD_REQUIRE(false, "mmpp has a malformed parameter (expected " +
                               std::string(kArrivalGrammar) + ")");
      }
    }
  }
  PSD_REQUIRE(!args.empty() && args.size() <= 3,
              "mmpp needs 1-3 parameters (burst[,sojourn[,duty]])");
  out.kind = ArrivalKind::kBursty;
  out.burstiness = args[0];
  if (args.size() >= 2) out.sojourn = args[1];
  if (args.size() >= 3) out.duty = args[2];
  out.validate();
  return out;
}

std::vector<double> rates_for_load(double load, double capacity,
                                   double mean_size,
                                   const std::vector<double>& share) {
  PSD_REQUIRE(load > 0.0, "load must be positive");
  PSD_REQUIRE(capacity > 0.0, "capacity must be positive");
  PSD_REQUIRE(mean_size > 0.0, "mean size must be positive");
  PSD_REQUIRE(!share.empty(), "need at least one class");
  const double total = std::accumulate(share.begin(), share.end(), 0.0);
  PSD_REQUIRE(std::abs(total - 1.0) < 1e-6, "load shares must sum to 1");
  std::vector<double> rates(share.size());
  for (std::size_t i = 0; i < share.size(); ++i) {
    PSD_REQUIRE(share[i] > 0.0, "each class share must be positive");
    rates[i] = share[i] * load * capacity / mean_size;
  }
  return rates;
}

std::vector<double> rates_for_equal_load(double load, double capacity,
                                         double mean_size,
                                         std::size_t num_classes) {
  PSD_REQUIRE(num_classes > 0, "need at least one class");
  const std::vector<double> share(num_classes,
                                  1.0 / static_cast<double>(num_classes));
  return rates_for_load(load, capacity, mean_size, share);
}

}  // namespace psd
