#include "dist/sampler.hpp"

#include <algorithm>
#include <sstream>

#include "common/math.hpp"

namespace psd {

namespace {

std::string render(const char* head, std::initializer_list<double> params) {
  std::ostringstream os;
  os << head << '(';
  bool first = true;
  for (double p : params) {
    if (!first) os << ',';
    os << p;
    first = false;
  }
  os << ')';
  return os.str();
}

}  // namespace

// ---- DeterministicSampler --------------------------------------------------

DeterministicSampler DeterministicSampler::scaled_by_rate(double rate) const {
  PSD_REQUIRE(rate > 0.0, "rate must be positive");
  return DeterministicSampler(v_ / rate);
}

std::string DeterministicSampler::name() const { return render("det", {v_}); }

// ---- ExponentialSampler ----------------------------------------------------

ExponentialSampler ExponentialSampler::scaled_by_rate(double rate) const {
  PSD_REQUIRE(rate > 0.0, "rate must be positive");
  return ExponentialSampler(mean_ / rate);
}

std::string ExponentialSampler::name() const { return render("exp", {mean_}); }

// ---- UniformSampler --------------------------------------------------------

UniformSampler UniformSampler::scaled_by_rate(double rate) const {
  PSD_REQUIRE(rate > 0.0, "rate must be positive");
  return UniformSampler(lo_ / rate, hi_ / rate);
}

std::string UniformSampler::name() const {
  return render("uniform", {lo_, hi_});
}

// ---- BoundedParetoSampler --------------------------------------------------

BoundedParetoSampler::BoundedParetoSampler(double alpha, double k, double p)
    : alpha_(alpha), k_(k), p_(p) {
  PSD_REQUIRE(alpha > 0.0, "alpha must be positive");
  PSD_REQUIRE(k > 0.0, "lower bound k must be positive");
  PSD_REQUIRE(k < p, "need k < p");
  one_minus_kp_ = 1.0 - std::pow(k_ / p_, alpha_);
  neg_inv_alpha_ = -1.0 / alpha_;
  mean_ = moment(1.0);
  m2_ = moment(2.0);
  mean_inv_ = moment(-1.0);
  pow_ = alpha == 1.0   ? Pow::kInv
         : alpha == 2.0 ? Pow::kInvSqrt
         : alpha == 1.5 ? Pow::kInvCbrtSq
                        : Pow::kGeneral;
}

double BoundedParetoSampler::moment(double n) const {
  // E[X^n] = g \int_k^p x^{n-alpha-1} dx; the antiderivative switches to a
  // logarithm when the exponent n-alpha-1 hits -1.
  const double g = normalizer();
  const double d = n - alpha_;
  if (std::abs(d) < 1e-12) return g * std::log(p_ / k_);
  return g * (std::pow(p_, d) - std::pow(k_, d)) / d;
}

void BoundedParetoSampler::sample_n(Rng& rng, double* out,
                                    std::size_t n) const {
  // Locals, so the stores into `out` cannot alias the parameters.
  const double k = k_;
  const double one_minus_kp = one_minus_kp_;
  constexpr std::size_t kBlock = 64;
  double seed[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    double* t = out + base;
    // Pass 1: the block's uniforms in stream order, as sample()'s t.
    for (std::size_t i = 0; i < m; ++i) {
      t[i] = 1.0 - rng.uniform01() * one_minus_kp;
    }
    switch (pow_) {
      case Pow::kInv:
        for (std::size_t i = 0; i < m; ++i) t[i] = k / t[i];
        break;
      case Pow::kInvSqrt:
        for (std::size_t i = 0; i < m; ++i) t[i] = k / std::sqrt(t[i]);
        break;
      case Pow::kInvCbrtSq:
        // Pass 2: the integer seeds (a 64-bit division by 3 each).
        for (std::size_t i = 0; i < m; ++i) seed[i] = detail::rcbrt_seed(t[i]);
        // Pass 3: Newton steps and k y^2, no RNG and no integer ops.
        for (std::size_t i = 0; i < m; ++i) {
          const double y = detail::rcbrt_refine(t[i], seed[i]);
          t[i] = k * y * y;
        }
        break;
      case Pow::kGeneral:
        for (std::size_t i = 0; i < m; ++i) {
          t[i] = k * std::pow(t[i], neg_inv_alpha_);
        }
        break;
    }
  }
}

BoundedParetoSampler BoundedParetoSampler::scaled_by_rate(double rate) const {
  PSD_REQUIRE(rate > 0.0, "rate must be positive");
  // X/r ~ BP(alpha, k/r, p/r).
  return BoundedParetoSampler(alpha_, k_ / rate, p_ / rate);
}

std::string BoundedParetoSampler::name() const {
  return render("bp", {alpha_, k_, p_});
}

// ---- BoundedExponentialSampler ---------------------------------------------

BoundedExponentialSampler::BoundedExponentialSampler(double mean, double lo,
                                                     double hi)
    : m_(mean), lo_(lo), hi_(hi) {
  PSD_REQUIRE(mean > 0.0, "mean must be positive");
  PSD_REQUIRE(lo > 0.0, "lower bound must be positive");
  PSD_REQUIRE(lo < hi, "need lo < hi");
  elo_ = std::exp(-lo_ / m_);
  const double ehi = std::exp(-hi_ / m_);
  z_ = elo_ - ehi;
  neg_m_ = -m_;
  // Antiderivatives of x (1/m) e^{-x/m} and x^2 (1/m) e^{-x/m}:
  //   -(x + m) e^{-x/m}   and   -(x^2 + 2 m x + 2 m^2) e^{-x/m}.
  mean_ = ((lo_ + m_) * elo_ - (hi_ + m_) * ehi) / z_;
  m2_ = ((lo_ * lo_ + 2.0 * m_ * lo_ + 2.0 * m_ * m_) * elo_ -
         (hi_ * hi_ + 2.0 * m_ * hi_ + 2.0 * m_ * m_) * ehi) /
        z_;
  mean_inv_ = integrate(
      [this](double x) { return std::exp(-x / m_) / (m_ * z_) / x; }, lo_,
      hi_, 1e-12);
}

BoundedExponentialSampler BoundedExponentialSampler::scaled_by_rate(
    double rate) const {
  PSD_REQUIRE(rate > 0.0, "rate must be positive");
  return BoundedExponentialSampler(m_ / rate, lo_ / rate, hi_ / rate);
}

std::string BoundedExponentialSampler::name() const {
  return render("bexp", {m_, lo_, hi_});
}

// ---- LognormalSampler ------------------------------------------------------

LognormalSampler LognormalSampler::from_mean_scv(double mean, double scv) {
  PSD_REQUIRE(mean > 0.0, "mean must be positive");
  PSD_REQUIRE(scv > 0.0, "scv must be positive");
  const double s2 = std::log(1.0 + scv);
  return LognormalSampler(std::log(mean) - 0.5 * s2, std::sqrt(s2));
}

LognormalSampler LognormalSampler::scaled_by_rate(double rate) const {
  PSD_REQUIRE(rate > 0.0, "rate must be positive");
  return LognormalSampler(mu_ - std::log(rate), sigma_);
}

std::string LognormalSampler::name() const {
  std::ostringstream os;
  os << "lognormal(mu=" << mu_ << ",sigma=" << sigma_ << ')';
  return os.str();
}

// ---- MixtureSampler --------------------------------------------------------

MixtureSampler::MixtureSampler(std::vector<MixtureComponent> components) {
  PSD_REQUIRE(!components.empty(), "mixture needs at least one component");
  double total = 0.0;
  for (const auto& c : components) {
    PSD_REQUIRE(c.weight > 0.0, "component weights must be positive");
    total += c.weight;
  }
  std::vector<double> weights;
  weights.reserve(components.size());
  for (auto& c : components) {
    c.weight /= total;
    weights.push_back(c.weight);
  }
  data_ = std::make_shared<const Data>(std::move(components),
                                       std::move(weights));
}

double MixtureSampler::mean() const {
  double s = 0.0;
  for (const auto& c : data_->comps) s += c.weight * c.dist.mean();
  return s;
}

double MixtureSampler::second_moment() const {
  double s = 0.0;
  for (const auto& c : data_->comps) s += c.weight * c.dist.second_moment();
  return s;
}

double MixtureSampler::mean_inverse() const {
  double s = 0.0;
  for (const auto& c : data_->comps) s += c.weight * c.dist.mean_inverse();
  return s;
}

double MixtureSampler::min_value() const {
  double m = data_->comps.front().dist.min_value();
  for (const auto& c : data_->comps) m = std::min(m, c.dist.min_value());
  return m;
}

double MixtureSampler::max_value() const {
  double m = data_->comps.front().dist.max_value();
  for (const auto& c : data_->comps) m = std::max(m, c.dist.max_value());
  return m;
}

MixtureSampler MixtureSampler::scaled_by_rate(double rate) const {
  PSD_REQUIRE(rate > 0.0, "rate must be positive");
  std::vector<MixtureComponent> scaled;
  scaled.reserve(data_->comps.size());
  for (const auto& c : data_->comps) {
    scaled.push_back(MixtureComponent{c.weight, c.dist.scaled_by_rate(rate)});
  }
  return MixtureSampler(std::move(scaled));
}

std::string MixtureSampler::name() const {
  std::ostringstream os;
  os << "mixture(" << data_->comps.size() << " components)";
  return os.str();
}

// ---- factory ---------------------------------------------------------------

SamplerVariant make_sampler(const DistSpec& spec) {
  switch (spec.kind) {
    case DistSpec::Kind::kBoundedPareto:
      return BoundedParetoSampler(spec.a, spec.b, spec.c);
    case DistSpec::Kind::kDeterministic:
      return DeterministicSampler(spec.a);
    case DistSpec::Kind::kExponential:
      return ExponentialSampler(spec.a);
    case DistSpec::Kind::kBoundedExponential:
      return BoundedExponentialSampler(spec.a, spec.b, spec.c);
    case DistSpec::Kind::kLognormal:
      return LognormalSampler::from_mean_scv(spec.a, spec.b);
    case DistSpec::Kind::kUniform:
      return UniformSampler(spec.a, spec.b);
  }
  PSD_UNREACHABLE("unknown distribution kind");
}

}  // namespace psd
