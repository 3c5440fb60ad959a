// Service-time ("request size") laws as sealed, value-semantic samplers.
//
// The paper's analysis (Lemma 1, Theorem 1, eqs. 17-18) needs exactly three
// scalars from the service-time law: E[X], E[X^2] and E[1/X].  The last one
// is the slowdown-specific moment: it exists for every law bounded away from
// zero but diverges for, e.g., the unbounded exponential, which is the
// paper's argument for the Bounded Pareto model.  Each sampler carries those
// closed forms next to its draw, and mean_inverse() reports divergence by
// throwing std::domain_error.
//
// Each law is a plain value type with an *inline* sample(), and
// SamplerVariant is the std::variant over all of them: one std::visit
// dispatch per draw, copies are memcpy (Mixture shares its immutable
// component table via shared_ptr, so even it copies without allocating), and
// scaled_by_rate (paper Lemma 2) is a value transform.
//
// Fast paths:
//   * Exponential draws via the 256-layer ziggurat (dist/ziggurat.hpp),
//   * Mixture picks its component via a Walker alias table (O(1), one draw),
//   * BoundedPareto caches 1 - (k/p)^alpha and -1/alpha, and lowers the
//     pow() to a reciprocal / rsqrt / rcbrt for the common alpha 1, 2, 1.5;
//     its sample_n draws a block's uniforms first, so the rcbrt Newton
//     steps run as a vectorized pass.
//
// To add a new distribution: write a sampler struct with the methods below,
// append it to SamplerVariant::Alternatives, and extend make_sampler — the
// compiler then enforces exhaustiveness everywhere a visit switches on the
// set.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dist/alias_table.hpp"
#include "dist/factory.hpp"
#include "dist/ziggurat.hpp"

namespace psd {

class SamplerVariant;
struct MixtureComponent;

namespace detail {

/// Bit-hack first guess at t^(-1/3): exponent and mantissa bits divided by
/// three and subtracted from a magic constant (integer ops only).
inline double rcbrt_seed(double t) {
  std::uint64_t i;
  __builtin_memcpy(&i, &t, sizeof(i));
  i = 0x553ef0ff289dd796ULL - i / 3;
  double y;
  __builtin_memcpy(&y, &i, sizeof(y));
  return y;
}

/// Four Newton steps y <- y (4 - t y^3) / 3 from the seed toward t^(-1/3).
/// Pure double arithmetic, so a loop of these vectorizes.
inline double rcbrt_refine(double t, double y) {
  for (int k = 0; k < 4; ++k) {
    y = y * (4.0 - t * y * y * y) * (1.0 / 3.0);
  }
  return y;
}

/// t^(-1/3) by bit-hack seed + 4 Newton steps: ~2x faster than libm pow/cbrt
/// and within 1 ulp of pow(t, -1/3) over the inverse-CDF range (t in (0, 1]).
/// Backs the alpha == 1.5 Bounded Pareto fast path: t^(-2/3) = rcbrt(t)^2.
inline double rcbrt(double t) { return rcbrt_refine(t, rcbrt_seed(t)); }

}  // namespace detail

/// Point mass at v.
class DeterministicSampler {
 public:
  explicit DeterministicSampler(double value) : v_(value) {
    PSD_REQUIRE(value > 0.0, "deterministic size must be positive");
  }
  double sample(Rng&) const { return v_; }
  double mean() const { return v_; }
  double second_moment() const { return v_ * v_; }
  double mean_inverse() const { return 1.0 / v_; }
  double min_value() const { return v_; }
  double max_value() const { return v_; }
  DeterministicSampler scaled_by_rate(double rate) const;
  std::string name() const;

 private:
  double v_;
};

/// Exponential of mean m; draws through the ziggurat.
class ExponentialSampler {
 public:
  explicit ExponentialSampler(double mean) : mean_(mean) {
    PSD_REQUIRE(mean > 0.0, "mean must be positive");
  }
  double sample(Rng& rng) const { return mean_ * ziggurat_exponential(rng); }
  double mean() const { return mean_; }
  double second_moment() const { return 2.0 * mean_ * mean_; }
  [[noreturn]] double mean_inverse() const {
    throw std::domain_error(
        "E[1/X] diverges for the (unbounded) exponential distribution");
  }
  double min_value() const { return 0.0; }
  double max_value() const { return kInf; }
  ExponentialSampler scaled_by_rate(double rate) const;
  std::string name() const;

 private:
  double mean_;
};

/// Uniform on [lo, hi], lo > 0.
class UniformSampler {
 public:
  UniformSampler(double lo, double hi) : lo_(lo), span_(hi - lo), hi_(hi) {
    PSD_REQUIRE(lo > 0.0, "lower bound must be positive");
    PSD_REQUIRE(lo < hi, "need lo < hi");
  }
  double sample(Rng& rng) const { return lo_ + span_ * rng.uniform01(); }
  double mean() const { return 0.5 * (lo_ + hi_); }
  double second_moment() const {
    return (lo_ * lo_ + lo_ * hi_ + hi_ * hi_) / 3.0;
  }
  double mean_inverse() const { return std::log(hi_ / lo_) / span_; }
  double min_value() const { return lo_; }
  double max_value() const { return hi_; }
  UniformSampler scaled_by_rate(double rate) const;
  std::string name() const;

 private:
  double lo_, span_, hi_;
};

/// Bounded Pareto BP(alpha, k, p) — the paper's service-time model (§4.1):
/// heavy-tailed like real web object sizes, yet with finite E[X^2] and
/// E[1/X] because the support is the bounded interval [k, p].
///
///   pdf(x) = g x^{-alpha-1} on [k, p],  g = alpha k^alpha / (1 - (k/p)^alpha)
///   E[X^n] = g (p^{n-alpha} - k^{n-alpha}) / (n - alpha)   (n != alpha)
///          = g ln(p/k)                                     (n == alpha)
///
/// Draws by a cached-parameter inverse transform.
class BoundedParetoSampler {
 public:
  /// alpha > 0, 0 < k < p.
  BoundedParetoSampler(double alpha, double k, double p);

  double sample(Rng& rng) const {
    // Invert u = (1 - (k/x)^a) / (1 - (k/p)^a): x = k t^{-1/alpha} with
    // t = 1 - u (1 - (k/p)^a).  The pow() lowers to cheaper primitives for
    // the alphas every paper scenario uses (1, 1.5, 2).
    const double t = 1.0 - rng.uniform01() * one_minus_kp_;
    switch (pow_) {
      case Pow::kInv:
        return k_ / t;  // alpha == 1
      case Pow::kInvSqrt:
        return k_ / std::sqrt(t);  // alpha == 2
      case Pow::kInvCbrtSq: {      // alpha == 1.5: t^{-2/3} = rcbrt(t)^2
        const double y = detail::rcbrt(t);
        return k_ * y * y;
      }
      case Pow::kGeneral:
        break;
    }
    return k_ * std::pow(t, neg_inv_alpha_);
  }
  /// Batch draw, bit-identical to n sample() calls on the same stream.
  /// Split into passes over blocks of up to 64 draws: every uniform first,
  /// then the lowered pow.  At alpha == 1.5 the integer rcbrt seeds get a
  /// pass of their own, which leaves the Newton steps a loop of plain
  /// double arithmetic that the compiler vectorizes.
  void sample_n(Rng& rng, double* out, std::size_t n) const;
  double mean() const { return mean_; }
  double second_moment() const { return m2_; }
  double mean_inverse() const { return mean_inv_; }
  double min_value() const { return k_; }
  double max_value() const { return p_; }
  BoundedParetoSampler scaled_by_rate(double rate) const;
  std::string name() const;

  /// E[X^n] for any real n (closed form; log form at n == alpha).
  double moment(double n) const;
  double alpha() const { return alpha_; }
  /// The pdf prefactor g (pdf(x) = g x^{-alpha-1}).
  double normalizer() const {
    return alpha_ * std::pow(k_, alpha_) / one_minus_kp_;
  }

 private:
  enum class Pow : std::uint8_t { kGeneral, kInv, kInvSqrt, kInvCbrtSq };
  double alpha_, k_, p_;
  double one_minus_kp_, neg_inv_alpha_;
  double mean_, m2_, mean_inv_;
  Pow pow_;
};

/// Exponential of mean m truncated to [lo, hi], lo > 0: the minimal fix that
/// makes E[1/X] finite for an exponential-shaped law.
///
///   pdf(x) = (1/m) e^{-x/m} / Z on [lo, hi],  Z = e^{-lo/m} - e^{-hi/m}.
///
/// E[X] and E[X^2] are elementary; E[1/X] is an exponential integral,
/// evaluated once by adaptive quadrature at construction.  Draws by a cached
/// inverse transform.
class BoundedExponentialSampler {
 public:
  /// `mean` is the mean of the *untruncated* exponential.
  BoundedExponentialSampler(double mean, double lo, double hi);

  double sample(Rng& rng) const {
    // F(x) = (e^{-lo/m} - e^{-x/m}) / Z, so x = -m log(e^{-lo/m} - u Z).
    return neg_m_ * std::log(elo_ - rng.uniform01() * z_);
  }
  double mean() const { return mean_; }
  double second_moment() const { return m2_; }
  double mean_inverse() const { return mean_inv_; }
  double min_value() const { return lo_; }
  double max_value() const { return hi_; }
  BoundedExponentialSampler scaled_by_rate(double rate) const;
  std::string name() const;

 private:
  double m_, lo_, hi_;
  double elo_, z_, neg_m_;
  double mean_, m2_, mean_inv_;
};

/// Lognormal(mu, sigma), ln X ~ N(mu, sigma^2), via Box-Muller.  Every
/// moment is closed-form: E[X^n] = exp(n mu + n^2 sigma^2 / 2).
class LognormalSampler {
 public:
  LognormalSampler(double mu, double sigma) : mu_(mu), sigma_(sigma) {
    PSD_REQUIRE(sigma > 0.0, "sigma must be positive");
  }
  static LognormalSampler from_mean_scv(double mean, double scv);

  double sample(Rng& rng) const {
    const double u1 = rng.uniform01_open_low();
    const double u2 = rng.uniform01();
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    return std::exp(mu_ + sigma_ * z);
  }
  double mean() const { return std::exp(mu_ + 0.5 * sigma_ * sigma_); }
  double second_moment() const {
    return std::exp(2.0 * mu_ + 2.0 * sigma_ * sigma_);
  }
  double mean_inverse() const { return std::exp(-mu_ + 0.5 * sigma_ * sigma_); }
  double min_value() const { return 0.0; }
  double max_value() const { return kInf; }
  LognormalSampler scaled_by_rate(double rate) const;
  std::string name() const;

 private:
  double mu_, sigma_;
};

/// Finite mixture of samplers; component picked by alias table.  Copies share
/// the immutable component set.
class MixtureSampler {
 public:
  explicit MixtureSampler(std::vector<MixtureComponent> components);

  double sample(Rng& rng) const;  // inline below (needs SamplerVariant)
  /// Batched draw with the component pick hoisted out of the per-draw
  /// dispatch: alias-pick a block of components first, then draw each
  /// component's positions in one grouped pass — one inner variant dispatch
  /// per component per block instead of one per sample.  Consumes the rng
  /// stream in (picks..., component-0 draws..., component-1 draws...) order
  /// per block, which differs from n repeated sample() calls; scalar
  /// sample() is unchanged.
  void sample_n(Rng& rng, double* out, std::size_t n) const;
  double mean() const;
  double second_moment() const;
  double mean_inverse() const;
  double min_value() const;
  double max_value() const;
  MixtureSampler scaled_by_rate(double rate) const;
  std::string name() const;

 private:
  struct Data;
  explicit MixtureSampler(std::shared_ptr<const Data> data)
      : data_(std::move(data)) {}
  std::shared_ptr<const Data> data_;
};

/// The sealed set.  Copy/assign never allocate; sample() is one visit with
/// every alternative's draw inlined at the call site.
class SamplerVariant {
 public:
  using Alternatives =
      std::variant<BoundedParetoSampler, DeterministicSampler,
                   ExponentialSampler, BoundedExponentialSampler,
                   LognormalSampler, UniformSampler, MixtureSampler>;

  // Implicit from any alternative: call sites pass the concrete sampler.
  template <typename S,
            typename = std::enable_if_t<
                std::is_constructible_v<Alternatives, S&&> &&
                !std::is_same_v<std::decay_t<S>, SamplerVariant>>>
  SamplerVariant(S&& sampler) : alt_(std::forward<S>(sampler)) {}

  double sample(Rng& rng) const {
    return std::visit([&rng](const auto& s) { return s.sample(rng); }, alt_);
  }

  /// Batch draw: one dispatch for n samples — the generator refill path.
  /// Alternatives with their own sample_n (the Bounded Pareto pass split,
  /// the mixture's alias-pick-then-grouped-draws block) take it; the rest
  /// loop their inlined sample().
  void sample_n(Rng& rng, double* out, std::size_t n) const {
    std::visit(
        [&](const auto& s) {
          if constexpr (requires { s.sample_n(rng, out, n); }) {
            s.sample_n(rng, out, n);
          } else {
            for (std::size_t i = 0; i < n; ++i) out[i] = s.sample(rng);
          }
        },
        alt_);
  }

  double mean() const {
    return std::visit([](const auto& s) { return s.mean(); }, alt_);
  }
  double second_moment() const {
    return std::visit([](const auto& s) { return s.second_moment(); }, alt_);
  }
  /// Throws std::domain_error when E[1/X] diverges.
  double mean_inverse() const {
    return std::visit([](const auto& s) { return s.mean_inverse(); }, alt_);
  }
  double min_value() const {
    return std::visit([](const auto& s) { return s.min_value(); }, alt_);
  }
  double max_value() const {
    return std::visit([](const auto& s) { return s.max_value(); }, alt_);
  }
  double scv() const {
    const double m = mean();
    return (second_moment() - m * m) / (m * m);
  }

  /// Lemma-2 rate scaling as a value transform (no heap round-trip).
  SamplerVariant scaled_by_rate(double rate) const {
    PSD_REQUIRE(rate > 0.0, "rate must be positive");
    return std::visit(
        [rate](const auto& s) { return SamplerVariant(s.scaled_by_rate(rate)); },
        alt_);
  }

  std::string name() const {
    return std::visit([](const auto& s) { return s.name(); }, alt_);
  }

  template <typename F>
  decltype(auto) visit(F&& f) const {
    return std::visit(std::forward<F>(f), alt_);
  }

  template <typename S>
  const S* get_if() const {
    return std::get_if<S>(&alt_);
  }

 private:
  Alternatives alt_;
};

struct MixtureComponent {
  double weight = 0.0;  ///< Relative weight (> 0); normalized internally.
  SamplerVariant dist;
};

/// Mixture payload: components + alias table over their weights.  Defined
/// here (not in the .cpp) so sample() inlines the alias pick and the inner
/// component visit at the call site.
struct MixtureSampler::Data {
  std::vector<MixtureComponent> comps;  ///< Weights normalized to sum 1.
  AliasTable alias;

  Data(std::vector<MixtureComponent> components, std::vector<double> weights)
      : comps(std::move(components)), alias(weights) {}
};

inline double MixtureSampler::sample(Rng& rng) const {
  const Data& d = *data_;
  return d.comps[d.alias.pick(rng)].dist.sample(rng);
}

inline void MixtureSampler::sample_n(Rng& rng, double* out,
                                     std::size_t n) const {
  const Data& d = *data_;
  const std::size_t num_comps = d.comps.size();
  // Fixed-size pick block keeps this allocation-free at any n (the steady
  // state of a campaign must not touch the heap — see
  // SteadyStateSamplingIsAllocationFree).
  constexpr std::size_t kBlock = 256;
  std::uint32_t pick[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    for (std::size_t i = 0; i < m; ++i) {
      pick[i] = static_cast<std::uint32_t>(d.alias.pick(rng));
    }
    for (std::size_t c = 0; c < num_comps; ++c) {
      d.comps[c].dist.visit([&](const auto& s) {
        for (std::size_t i = 0; i < m; ++i) {
          if (pick[i] == c) out[base + i] = s.sample(rng);
        }
      });
    }
  }
}

/// Instantiate the sampler a DistSpec describes.
SamplerVariant make_sampler(const DistSpec& spec);

}  // namespace psd
