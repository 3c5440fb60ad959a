#include "dist/factory.hpp"

#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/format.hpp"
#include "dist/sampler.hpp"

namespace psd {

namespace {

constexpr const char* kDistGrammar =
    "bp:alpha,k,p | det:c | exp:m | bexp:m,lo,hi | lognormal:m,scv | "
    "uniform:a,b";

/// Strict comma-separated doubles (whole tokens must parse).
std::vector<double> parse_params(const std::string& spec,
                                 const std::string& body) {
  std::vector<double> out;
  std::stringstream ss(body);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      std::size_t used = 0;
      const double v = std::stod(item, &used);
      PSD_REQUIRE(used == item.size(), "");
      out.push_back(v);
    } catch (const std::exception&) {
      PSD_REQUIRE(false, "distribution '" + spec +
                             "' has a malformed parameter (expected " +
                             kDistGrammar + ")");
    }
  }
  return out;
}

}  // namespace

const char* DistSpec::kind_name() const {
  switch (kind) {
    case Kind::kBoundedPareto: return "bp";
    case Kind::kDeterministic: return "det";
    case Kind::kExponential: return "exp";
    case Kind::kBoundedExponential: return "bexp";
    case Kind::kLognormal: return "lognormal";
    case Kind::kUniform: return "uniform";
  }
  PSD_UNREACHABLE("unknown distribution kind");
}

std::size_t DistSpec::arity() const {
  switch (kind) {
    case Kind::kDeterministic:
    case Kind::kExponential:
      return 1;
    case Kind::kLognormal:
    case Kind::kUniform:
      return 2;
    case Kind::kBoundedPareto:
    case Kind::kBoundedExponential:
      return 3;
  }
  PSD_UNREACHABLE("unknown distribution kind");
}

std::string DistSpec::name() const {
  std::string out = kind_name();
  const double params[] = {a, b, c};
  const std::size_t n = arity();
  for (std::size_t i = 0; i < n; ++i) {
    out += i == 0 ? ':' : ',';
    append_g(out, params[i]);
  }
  return out;
}

DistSpec DistSpec::parse(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const auto args = colon == std::string::npos
                        ? std::vector<double>{}
                        : parse_params(spec, spec.substr(colon + 1));
  DistSpec out;
  bool known = false;
  auto match = [&](const char* token, Kind k) {
    if (kind != token) return;
    out.kind = k;
    PSD_REQUIRE(args.size() == out.arity(),
                "distribution '" + kind + "' needs " +
                    std::to_string(out.arity()) + " parameters (" +
                    kDistGrammar + ")");
    double p[3] = {0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < args.size(); ++i) p[i] = args[i];
    out.a = p[0];
    out.b = p[1];
    out.c = p[2];
    known = true;
  };
  match("bp", Kind::kBoundedPareto);
  match("det", Kind::kDeterministic);
  match("exp", Kind::kExponential);
  match("bexp", Kind::kBoundedExponential);
  match("lognormal", Kind::kLognormal);
  match("uniform", Kind::kUniform);
  PSD_REQUIRE(known, "unknown distribution '" + spec + "' (expected " +
                         kDistGrammar + ")");
  make_sampler(out);  // the sampler constructor checks the law's domain
  return out;
}

}  // namespace psd
