// The sealed sampler layer: ziggurat exactness, alias-table correctness,
// cached inverse transforms vs their textbook formulas, value-copy
// determinism, and zero heap allocations per sample on the steady-state
// path.
//
// Like tests/test_event_core.cpp, this binary overrides global operator
// new/delete with a counting hook armed only inside explicit regions.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dist/alias_table.hpp"
#include "dist/sampler.hpp"
#include "dist/ziggurat.hpp"
#include "stats/online.hpp"
#include "workload/arrival.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

struct AllocationCounter {
  AllocationCounter() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationCounter() { g_counting.store(false, std::memory_order_relaxed); }
  std::uint64_t count() const {
    return g_allocs.load(std::memory_order_relaxed);
  }
};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace psd {
namespace {

// ---- ziggurat exponential --------------------------------------------------

TEST(Ziggurat, MomentsMatchExpOne) {
  Rng rng(101);
  OnlineMoments m, m2;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double x = ziggurat_exponential(rng);
    ASSERT_GE(x, 0.0);
    m.add(x);
    m2.add(x * x);
  }
  // Exp(1): E[X] = 1 (se ~ 1/sqrt(n) = 1.6e-3), E[X^2] = 2
  // (se = sqrt(E[X^4]-4)/sqrt(n) = sqrt(20)/632 ~ 7e-3); 5-sigma bounds.
  EXPECT_NEAR(m.mean(), 1.0, 0.008);
  EXPECT_NEAR(m2.mean(), 2.0, 0.036);
  EXPECT_NEAR(m.variance(), 1.0, 0.05);  // scv == 1
}

TEST(Ziggurat, QuantilesMatchExpOneIncludingTail) {
  // CDF spot checks, including the rare tail branch beyond R ~ 7.697.
  Rng rng(102);
  const int n = 1000000;
  int below_ln2 = 0, below_one = 0, beyond_r = 0;
  const double r = 7.69711747013104972;
  for (int i = 0; i < n; ++i) {
    const double x = ziggurat_exponential(rng);
    below_ln2 += (x < 0.6931471805599453);
    below_one += (x < 1.0);
    beyond_r += (x > r);
  }
  EXPECT_NEAR(below_ln2 / static_cast<double>(n), 0.5, 0.003);
  EXPECT_NEAR(below_one / static_cast<double>(n), 1.0 - std::exp(-1.0), 0.003);
  // P(X > R) = e^-R ~ 4.53e-4: expect ~453 hits, 5 sigma ~ 107.
  EXPECT_NEAR(beyond_r / static_cast<double>(n), std::exp(-r), 1.1e-4);
  EXPECT_GT(beyond_r, 0);  // the tail branch actually runs
}

TEST(Ziggurat, RateScalingGivesRequestedMean) {
  Rng rng(103);
  OnlineMoments m;
  for (int i = 0; i < 200000; ++i) m.add(ziggurat_exponential(rng, 4.0));
  EXPECT_NEAR(m.mean(), 0.25, 0.005);
}

TEST(ZigguratSampler, MatchesExponentialMoments) {
  const ExponentialSampler fast(2.0);
  EXPECT_DOUBLE_EQ(fast.mean(), 2.0);
  EXPECT_DOUBLE_EQ(fast.second_moment(), 8.0);
  EXPECT_THROW(fast.mean_inverse(), std::domain_error);
  Rng rng(104);
  OnlineMoments m;
  for (int i = 0; i < 300000; ++i) m.add(fast.sample(rng));
  EXPECT_NEAR(m.mean(), 2.0, 0.02);
  EXPECT_NEAR(m.variance(), 4.0, 0.15);
}

// ---- alias table -----------------------------------------------------------

TEST(AliasTable, FrequenciesMatchWeights) {
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  AliasTable t(w);
  Rng rng(105);
  std::vector<int> hits(w.size(), 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++hits[t.pick(rng)];
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(hits[i] / static_cast<double>(n), w[i] / 10.0, 0.005)
        << "bucket " << i;
  }
}

TEST(AliasTable, ZeroWeightBucketsNeverDrawn) {
  AliasTable t({0.0, 1.0, 0.0, 3.0});
  Rng rng(106);
  for (int i = 0; i < 100000; ++i) {
    const std::size_t k = t.pick(rng);
    EXPECT_TRUE(k == 1 || k == 3);
  }
}

TEST(AliasTable, RejectsDegenerateWeights) {
  EXPECT_THROW(AliasTable({}), std::invalid_argument);
  EXPECT_THROW(AliasTable({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable({1.0, -1.0}), std::invalid_argument);
}

// ---- mixture sampler -------------------------------------------------------

TEST(MixtureSampler, MomentsAndPickFrequencies) {
  std::vector<MixtureComponent> comps;
  comps.push_back({1.0, DeterministicSampler(1.0)});
  comps.push_back({3.0, DeterministicSampler(2.0)});
  const MixtureSampler m{std::move(comps)};
  EXPECT_DOUBLE_EQ(m.mean(), 0.25 * 1.0 + 0.75 * 2.0);
  EXPECT_DOUBLE_EQ(m.second_moment(), 0.25 * 1.0 + 0.75 * 4.0);
  EXPECT_DOUBLE_EQ(m.mean_inverse(), 0.25 * 1.0 + 0.75 * 0.5);
  Rng rng(110);
  int ones = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ones += (m.sample(rng) == 1.0);
  EXPECT_NEAR(ones / static_cast<double>(n), 0.25, 0.01);
}

// ---- cached inverse transforms vs their formulas ---------------------------

TEST(BoundedParetoSampler, MatchesPowInverseTransformOnSameStream) {
  // The same uniform stream through the sampler and the textbook pow()
  // inverse CDF x = k (1 - u (1 - (k/p)^alpha))^{-1/alpha}: the cached fast
  // paths (reciprocal / rsqrt / rcbrt for alpha 1, 2, 1.5) must agree to
  // floating-point rounding.
  const double k = 0.1, p = 100.0;
  for (double alpha : {1.0, 1.5, 2.0, 2.7}) {
    const BoundedParetoSampler fast(alpha, k, p);
    Rng ra(111), rb(111);
    for (int i = 0; i < 20000; ++i) {
      const double u = ra.uniform01();
      const double a = k * std::pow(1.0 - u * (1.0 - std::pow(k / p, alpha)),
                                    -1.0 / alpha);
      const double b = fast.sample(rb);
      EXPECT_NEAR(b, a, 1e-12 * a) << "alpha=" << alpha << " i=" << i;
    }
  }
}

TEST(BoundedExponentialSampler, BitIdenticalToInverseCdfOnSameStream) {
  // x = -m log(e^{-lo/m} - u Z), Z = e^{-lo/m} - e^{-hi/m}.
  const double m = 1.0, lo = 0.1, hi = 10.0;
  const BoundedExponentialSampler fast(m, lo, hi);
  const double z = std::exp(-lo / m) - std::exp(-hi / m);
  Rng ra(112), rb(112);
  for (int i = 0; i < 20000; ++i) {
    const double u = ra.uniform01();
    EXPECT_DOUBLE_EQ(fast.sample(rb), -m * std::log(std::exp(-lo / m) - u * z))
        << "i=" << i;
  }
}

// ---- support bounds --------------------------------------------------------

TEST(SamplerVariant, SupportBoundsPerKind) {
  // [min_value, max_value] is each law's support; a positive infimum is what
  // keeps E[1/X] finite, and an infinite supremum is the unbounded tail.
  const auto expect_support = [](const SamplerVariant& s, double lo,
                                 double hi) {
    EXPECT_EQ(s.min_value(), lo) << s.name();
    EXPECT_EQ(s.max_value(), hi) << s.name();
  };
  expect_support(BoundedParetoSampler(1.5, 0.1, 100.0), 0.1, 100.0);
  expect_support(ExponentialSampler(2.0), 0.0, kInf);
  expect_support(BoundedExponentialSampler(1.0, 0.1, 10.0), 0.1, 10.0);
  expect_support(LognormalSampler(0.3, 0.8), 0.0, kInf);
  expect_support(UniformSampler(1.0, 3.0), 1.0, 3.0);
  expect_support(DeterministicSampler(2.5), 2.5, 2.5);
}

// ---- determinism across copies --------------------------------------------

TEST(SamplerVariant, CopiesReproduceFixedSeedStreams) {
  const std::vector<SamplerVariant> originals = {
      BoundedParetoSampler(1.5, 0.1, 100.0),
      ExponentialSampler(1.0),
      BoundedExponentialSampler(1.0, 0.1, 10.0),
      LognormalSampler(0.0, 1.0),
      UniformSampler(1.0, 3.0),
      DeterministicSampler(2.0),
      MixtureSampler({{1.0, DeterministicSampler(1.0)},
                      {1.0, BoundedParetoSampler(1.5, 0.1, 100.0)}}),
  };
  for (const auto& original : originals) {
    const SamplerVariant copy = original;  // value copy
    Rng ra(113), rb(113);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_DOUBLE_EQ(original.sample(ra), copy.sample(rb))
          << original.name();
    }
  }
}

// Exact-bit double comparison (EXPECT_DOUBLE_EQ would allow 4 ulps).
void expect_bits(double a, double b, const char* what) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

// The batch draw feeds every generator and lockstep refill, so it must
// equal n scalar draws bit for bit and leave the stream at the same place:
// each lowered pow (alpha 1, 1.5, 2) and the general path, at lengths
// around the 64-draw pass block.
TEST(SamplerVariant, SampleNMatchesRepeatedSample) {
  for (const double alpha : {1.0, 1.5, 2.0, 2.7}) {
    const SamplerVariant s = BoundedParetoSampler(alpha, 0.1, 100.0);
    for (const std::size_t n : {1, 63, 64, 65, 200}) {
      SCOPED_TRACE("alpha " + std::to_string(alpha) + " n " +
                   std::to_string(n));
      Rng ra(114), rb(114);
      std::vector<double> block(n);
      s.sample_n(ra, block.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        expect_bits(block[i], s.sample(rb), "draw");
      }
      EXPECT_EQ(ra.bits(), rb.bits()) << "streams stand apart";
    }
  }
}

TEST(ArrivalVariant, FillMatchesRepeatedNext) {
  ArrivalVariant a = PoissonArrivals(2.0);
  ArrivalVariant b = PoissonArrivals(2.0);
  Rng ra(115), rb(115);
  double block[128];
  a.fill_interarrivals(ra, block, 128);
  for (int i = 0; i < 128; ++i) {
    EXPECT_DOUBLE_EQ(block[i], b.next_interarrival(rb)) << "i=" << i;
  }
}

// ---- Lemma-2 scaling as a value transform ----------------------------------

TEST(SamplerVariant, ScaledByRateTransformsMomentsForEveryKind) {
  const std::vector<SamplerVariant> samplers = {
      BoundedParetoSampler(1.5, 0.1, 100.0),
      BoundedExponentialSampler(1.0, 0.1, 10.0),
      LognormalSampler(0.0, 1.0),
      UniformSampler(1.0, 3.0),
      DeterministicSampler(2.0),
      MixtureSampler({{1.0, DeterministicSampler(1.0)},
                      {3.0, DeterministicSampler(2.0)}}),
  };
  for (const auto& s : samplers) {
    for (double r : {0.5, 2.0, 7.5}) {
      const SamplerVariant scaled = s.scaled_by_rate(r);
      EXPECT_NEAR(scaled.mean(), s.mean() / r, 1e-9 * s.mean() / r)
          << s.name();
      if (std::isfinite(s.second_moment())) {
        EXPECT_NEAR(scaled.second_moment(), s.second_moment() / (r * r),
                    1e-9 * s.second_moment() / (r * r))
            << s.name();
      }
      EXPECT_NEAR(scaled.mean_inverse(), r * s.mean_inverse(),
                  1e-6 * r * s.mean_inverse())
          << s.name();
    }
  }
}

// ---- allocation freedom ----------------------------------------------------

TEST(SamplerVariant, SteadyStateSamplingIsAllocationFree) {
  // Every alternative — including the shared-table Mixture — must draw
  // without touching the heap.
  std::vector<SamplerVariant> samplers = {
      BoundedParetoSampler(1.5, 0.1, 100.0),
      ExponentialSampler(1.0),
      BoundedExponentialSampler(1.0, 0.1, 10.0),
      LognormalSampler(0.0, 1.0),
      UniformSampler(1.0, 3.0),
      DeterministicSampler(2.0),
      MixtureSampler({{1.0, DeterministicSampler(1.0)},
                      {1.0, BoundedParetoSampler(1.5, 0.1, 100.0)}}),
  };
  Rng rng(116);
  double block[512];
  volatile double sink = 0.0;
  // Warm pass outside the counter faults everything in.
  for (const auto& s : samplers) {
    sink = sink + s.sample(rng);
    s.sample_n(rng, block, 512);
  }
  {
    AllocationCounter counter;
    for (const auto& s : samplers) {
      for (int i = 0; i < 10000; ++i) sink = sink + s.sample(rng);
      for (int i = 0; i < 20; ++i) {
        s.sample_n(rng, block, 512);
        sink = sink + block[0];
      }
    }
    EXPECT_EQ(counter.count(), 0u);
  }
}

TEST(SamplerVariant, CopiesAreAllocationFree) {
  // Copy = memcpy for parametric samplers, refcount bump for the mixture's
  // shared table: either way the heap is never touched.
  const SamplerVariant bp = BoundedParetoSampler(1.5, 0.1, 100.0);
  const SamplerVariant mix =
      MixtureSampler({{1.0, DeterministicSampler(1.0)},
                      {1.0, BoundedParetoSampler(1.5, 0.1, 100.0)}});
  Rng rng(117);
  volatile double sink = 0.0;
  {
    AllocationCounter counter;
    for (int i = 0; i < 1000; ++i) {
      const SamplerVariant a = bp;
      const SamplerVariant b = mix;
      sink = sink + a.sample(rng) + b.sample(rng);
    }
    EXPECT_EQ(counter.count(), 0u);
  }
}

TEST(ArrivalVariant, SteadyStateDrawsAreAllocationFree) {
  std::vector<ArrivalVariant> arrivals = {
      PoissonArrivals(2.0),
      DeterministicArrivals(1.0),
      Mmpp2Arrivals(1.0, 9.0, 0.5, 0.5),
  };
  Rng rng(118);
  double block[256];
  volatile double sink = 0.0;
  for (auto& a : arrivals) a.fill_interarrivals(rng, block, 256);
  {
    AllocationCounter counter;
    for (auto& a : arrivals) {
      for (int i = 0; i < 10000; ++i) sink = sink + a.next_interarrival(rng);
      for (int i = 0; i < 20; ++i) {
        a.fill_interarrivals(rng, block, 256);
        sink = sink + block[0];
      }
      const ArrivalVariant copy = a;  // value copy, no heap
      sink = sink + copy.mean_rate();
    }
    EXPECT_EQ(counter.count(), 0u);
  }
}

}  // namespace
}  // namespace psd
