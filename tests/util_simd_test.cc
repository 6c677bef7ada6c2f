#include "util/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/math_utils.h"
#include "util/rng.h"

namespace supa {
namespace {

// The dispatched kernels promise bit-identical results to the portable
// reference on every length and alignment — that is the determinism
// contract that makes AVX2 an implementation detail. These tests sweep odd
// lengths (tail handling) and deliberately misaligned pointers (the
// embedding store hands out unaligned rows all the time). On machines
// without AVX2 the dispatch degenerates to portable-vs-portable, which is
// vacuous but harmless; run with SUPA_SIMD=portable to force that.

std::vector<float> RandomVec(size_t n, Rng& rng, double scale = 2.0) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.Uniform(-scale, scale));
  }
  return v;
}

// Lengths around the 4- and 8-wide vector boundaries plus typical dims.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                           31, 33, 63, 64, 65, 67, 128};
// Byte misalignment via element offsets into an oversized buffer.
const size_t kOffsets[] = {0, 1, 2, 3, 5};

TEST(SimdTest, DotMatchesPortableOnAllLengthsAndAlignments) {
  Rng rng(11);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto a = RandomVec(n + off, rng);
      const auto b = RandomVec(n + off, rng);
      const double got = simd::Dot(a.data() + off, b.data() + off, n);
      const double want = simd::portable::Dot(a.data() + off, b.data() + off, n);
      EXPECT_EQ(got, want) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdTest, AxpyMatchesPortable) {
  Rng rng(12);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto x = RandomVec(n + off, rng);
      auto y1 = RandomVec(n + off, rng);
      auto y2 = y1;
      const double alpha = rng.Uniform(-2.0, 2.0);
      simd::Axpy(alpha, x.data() + off, y1.data() + off, n);
      simd::portable::Axpy(alpha, x.data() + off, y2.data() + off, n);
      EXPECT_EQ(y1, y2) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdTest, ScaleMatchesPortable) {
  Rng rng(13);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      auto x1 = RandomVec(n + off, rng);
      auto x2 = x1;
      const double alpha = rng.Uniform(-1.0, 1.0);
      simd::Scale(alpha, x1.data() + off, n);
      simd::portable::Scale(alpha, x2.data() + off, n);
      EXPECT_EQ(x1, x2) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdTest, ElementwiseKernelsMatchPortable) {
  Rng rng(14);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto a = RandomVec(n + off, rng);
      const auto b = RandomVec(n + off, rng);
      std::vector<float> o1(n + off, 0.0f), o2(n + off, 0.0f);

      simd::Add(a.data() + off, b.data() + off, o1.data() + off, n);
      simd::portable::Add(a.data() + off, b.data() + off, o2.data() + off, n);
      EXPECT_EQ(o1, o2);

      auto y1 = a, y2 = a;
      simd::AddInto(b.data() + off, y1.data() + off, n);
      simd::portable::AddInto(b.data() + off, y2.data() + off, n);
      EXPECT_EQ(y1, y2);

      simd::HalfSum(a.data() + off, b.data() + off, o1.data() + off, n);
      simd::portable::HalfSum(a.data() + off, b.data() + off,
                              o2.data() + off, n);
      EXPECT_EQ(o1, o2);
    }
  }
}

TEST(SimdTest, CombineHalfMatchesPortable) {
  Rng rng(15);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto hl = RandomVec(n + off, rng);
      const auto hs = RandomVec(n + off, rng);
      const auto c = RandomVec(n + off, rng);
      for (double w : {0.0, 1.0, 0.37}) {
        std::vector<float> o1(n + off, 0.0f), o2(n + off, 0.0f);
        simd::CombineHalf(hl.data() + off, hs.data() + off, c.data() + off, w,
                          o1.data() + off, n);
        simd::portable::CombineHalf(hl.data() + off, hs.data() + off,
                                    c.data() + off, w, o2.data() + off, n);
        EXPECT_EQ(o1, o2) << "n=" << n << " off=" << off << " w=" << w;
      }
    }
  }
}

TEST(SimdTest, ScoreDotMatchesPortable) {
  Rng rng(16);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto al = RandomVec(n + off, rng), as = RandomVec(n + off, rng),
                 ac = RandomVec(n + off, rng), bl = RandomVec(n + off, rng),
                 bs = RandomVec(n + off, rng), bc = RandomVec(n + off, rng);
      for (double w : {0.0, 1.0}) {
        const double got =
            simd::ScoreDot(al.data() + off, as.data() + off, ac.data() + off,
                           bl.data() + off, bs.data() + off, bc.data() + off,
                           w, n);
        const double want = simd::portable::ScoreDot(
            al.data() + off, as.data() + off, ac.data() + off,
            bl.data() + off, bs.data() + off, bc.data() + off, w, n);
        EXPECT_EQ(got, want) << "n=" << n << " off=" << off << " w=" << w;
      }
    }
  }
}

// ScoreDot is a fused form of "materialize both final embeddings with
// CombineHalf, then Dot them". Fusion changes the rounding sequence, so
// only near-equality is promised — but it must be tight.
TEST(SimdTest, ScoreDotAgreesWithMaterializedEmbeddings) {
  Rng rng(17);
  const size_t n = 64;
  const auto al = RandomVec(n, rng), as = RandomVec(n, rng),
             ac = RandomVec(n, rng), bl = RandomVec(n, rng),
             bs = RandomVec(n, rng), bc = RandomVec(n, rng);
  std::vector<float> hu(n), hv(n);
  for (double w : {0.0, 1.0}) {
    simd::CombineHalf(al.data(), as.data(), ac.data(), w, hu.data(), n);
    simd::CombineHalf(bl.data(), bs.data(), bc.data(), w, hv.data(), n);
    const double materialized = simd::Dot(hu.data(), hv.data(), n);
    const double fused =
        simd::ScoreDot(al.data(), as.data(), ac.data(), bl.data(), bs.data(),
                       bc.data(), w, n);
    EXPECT_NEAR(fused, materialized, 1e-5);
  }
}

// math_utils routes its Dot/Axpy/Scale through the dispatched kernels; the
// aliases must stay in sync.
TEST(SimdTest, MathUtilsRoutesThroughSimd) {
  Rng rng(18);
  const size_t n = 67;
  const auto a = RandomVec(n, rng);
  const auto b = RandomVec(n, rng);
  EXPECT_EQ(Dot(a.data(), b.data(), n), simd::Dot(a.data(), b.data(), n));
  auto y1 = b, y2 = b;
  Axpy(0.75, a.data(), y1.data(), n);
  simd::Axpy(0.75, a.data(), y2.data(), n);
  EXPECT_EQ(y1, y2);
  auto x1 = a, x2 = a;
  Scale(-0.3, x1.data(), n);
  simd::Scale(-0.3, x2.data(), n);
  EXPECT_EQ(x1, x2);
}

std::vector<uint32_t> Bits(const float* p, size_t n) {
  std::vector<uint32_t> out(n);
  if (n > 0) std::memcpy(out.data(), p, n * sizeof(float));
  return out;
}

float StepUlps(float x, int k) {
  const float dir = k < 0 ? -std::numeric_limits<float>::infinity()
                          : std::numeric_limits<float>::infinity();
  for (int i = 0; i < std::abs(k); ++i) x = std::nextafter(x, dir);
  return x;
}

// Finds floats (x, y) for which float(a*x + b*y), with both products
// rounded, differs from float(fma(a, x, b*y)): y is steered so the sum
// lands on a float rounding midpoint, where the one rounding an FMA saves
// moves the stored float. x and y share a binade, since with a tiny y the
// decimal coefficients keep the sum off every midpoint. Returns false when
// the search budget runs out.
bool FindFusionWitness(double a, double b, Rng& rng, float* x_out,
                       float* y_out) {
  for (int trial = 0; trial < 100000; ++trial) {
    const float x = static_cast<float>(rng.Uniform(0.5, 2.0));
    const float y_guess = static_cast<float>(rng.Uniform(0.5, 2.0));
    const double p = a * x;
    const float f = static_cast<float>(p + b * static_cast<double>(y_guess));
    for (const float neighbour :
         {std::nextafter(f, -std::numeric_limits<float>::infinity()),
          std::nextafter(f, std::numeric_limits<float>::infinity())}) {
      const double mid = 0.5 * (static_cast<double>(f) + neighbour);
      const float y0 = static_cast<float>((mid - p) / b);
      for (int k = -8; k <= 8; ++k) {
        const float y = StepUlps(y0, k);
        const float unfused =
            static_cast<float>(a * x + b * static_cast<double>(y));
        const float fused =
            static_cast<float>(std::fma(a, x, b * static_cast<double>(y)));
        if (unfused != fused) {
          *x_out = x;
          *y_out = y;
          return true;
        }
      }
    }
  }
  return false;
}

// AdamRow's vector path must reproduce the scalar reference bit for bit on
// all three outputs, at every length (1 is the α scalar rows, 64 a typical
// dim), on misaligned rows, at both ends of the bias-correction range, and
// on the awkward values: zero, huge and tiny gradients, denormal moments.
TEST(SimdTest, AdamRowMatchesPortable) {
  Rng rng(19);
  auto coefficients = [](uint64_t step, double wd, double lr) {
    const double b1 = 0.9, b2 = 0.999;
    return simd::AdamCoefficients{
        b1, b2, 1.0 - std::pow(b1, static_cast<double>(step)),
        1.0 - std::pow(b2, static_cast<double>(step)), 1e-8, wd, lr};
  };
  const simd::AdamCoefficients kCoefficients[] = {
      coefficients(1, 0.0, 0.01),          // bc1 = 0.1, bc2 = 0.001
      coefficients(1000, 1e-4, 0.05),      // bc2 ≈ 0.63
      coefficients(1000000, 0.01, 0.001),  // bc1 = bc2 = 1 in double
  };
  const float kDenormal = std::numeric_limits<float>::denorm_min();
  enum Family { kRandom, kZeroGrad, kHugeGrad, kTinyGrad, kDenormalV };
  const Family kFamilies[] = {kRandom, kZeroGrad, kHugeGrad, kTinyGrad,
                              kDenormalV};
  const size_t kAdamOffsets[] = {0, 1, 3};
  auto log_uniform = [&rng](double lo_exp, double hi_exp) {
    return std::pow(10.0, rng.Uniform(lo_exp, hi_exp));
  };

  auto check = [](const std::vector<float>& g, const std::vector<float>& m,
                  const std::vector<float>& v, const std::vector<float>& w,
                  size_t off, size_t n, const simd::AdamCoefficients& c) {
    auto m1 = m, v1 = v, w1 = w;
    auto m2 = m, v2 = v, w2 = w;
    simd::AdamRow(g.data() + off, m1.data() + off, v1.data() + off,
                  w1.data() + off, n, c);
    simd::portable::AdamRow(g.data() + off, m2.data() + off, v2.data() + off,
                            w2.data() + off, n, c);
    EXPECT_EQ(Bits(m1.data(), m1.size()), Bits(m2.data(), m2.size()));
    EXPECT_EQ(Bits(v1.data(), v1.size()), Bits(v2.data(), v2.size()));
    EXPECT_EQ(Bits(w1.data(), w1.size()), Bits(w2.data(), w2.size()));
  };

  for (size_t n = 0; n <= 130; ++n) {
    for (size_t off : kAdamOffsets) {
      for (const simd::AdamCoefficients& c : kCoefficients) {
        for (Family family : kFamilies) {
          const size_t len = n + off;
          auto g = RandomVec(len, rng);
          auto m = RandomVec(len, rng, 1.0);
          std::vector<float> v(len);
          for (auto& x : v) x = static_cast<float>(rng.Uniform(0.0, 1.0));
          const auto w = RandomVec(len, rng);
          for (size_t i = 0; i < len; ++i) {
            const double sign = (i % 2 == 0) ? 1.0 : -1.0;
            switch (family) {
              case kRandom:
                break;
              case kZeroGrad:
                g[i] = 0.0f;
                break;
              case kHugeGrad:  // v stays finite in float
                g[i] = static_cast<float>(sign * log_uniform(15, 18));
                break;
              case kTinyGrad:  // down into float denormals
                g[i] = static_cast<float>(sign * log_uniform(-44, -30));
                break;
              case kDenormalV:
                v[i] = kDenormal * static_cast<float>(1 + rng.Uniform(0, 4000));
                m[i] = static_cast<float>(m[i] * 1e-20);
                g[i] = static_cast<float>(g[i] * 1e-20);
                break;
            }
          }
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " off=" << off << " bc1=" << c.bc1
                       << " family=" << family);
          check(g, m, v, w, off, n, c);
        }
      }
    }
  }

  // An unfused multiply-add reference must not be contracted: find inputs
  // where fusing either product of b1*m + (1-b1)*g into an FMA changes the
  // stored moment, put them inside a vector lane, and require the kernel to
  // keep the two roundings.
  const simd::AdamCoefficients& c = kCoefficients[0];
  const double b1 = c.beta1, nb1 = 1.0 - c.beta1;
  float m_a = 0, g_a = 0, g_b = 0, m_b = 0;
  ASSERT_TRUE(FindFusionWitness(b1, nb1, rng, &m_a, &g_a));  // fma(b1,m,·)
  ASSERT_TRUE(FindFusionWitness(nb1, b1, rng, &g_b, &m_b));  // fma(nb1,g,·)
  auto g = RandomVec(8, rng);
  auto m = RandomVec(8, rng, 1.0);
  std::vector<float> v(8, 0.25f);
  const auto w = RandomVec(8, rng);
  g[1] = g_a;
  m[1] = m_a;
  g[6] = g_b;
  m[6] = m_b;
  const float want_a = static_cast<float>(b1 * m_a + nb1 * g_a);
  const float want_b = static_cast<float>(b1 * m_b + nb1 * g_b);
  ASSERT_NE(want_a, static_cast<float>(std::fma(b1, m_a, nb1 * g_a)));
  ASSERT_NE(want_b, static_cast<float>(std::fma(nb1, g_b, b1 * m_b)));
  auto m_out = m, v_out = v, w_out = w;
  simd::AdamRow(g.data(), m_out.data(), v_out.data(), w_out.data(), 8, c);
  EXPECT_EQ(m_out[1], want_a);
  EXPECT_EQ(m_out[6], want_b);
  check(g, m, v, w, 0, 8, c);
}

TEST(SimdTest, BackendNameIsConsistentWithHasAvx2) {
  if (simd::HasAvx2()) {
    EXPECT_STREQ(simd::BackendName(), "avx2");
  } else {
    EXPECT_STREQ(simd::BackendName(), "portable");
  }
}

}  // namespace
}  // namespace supa
