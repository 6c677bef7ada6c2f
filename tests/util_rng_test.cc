#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace supa {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  for (uint64_t n : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBelow(n), n);
    }
  }
}

TEST(RngTest, NextBelowOneAlwaysZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(13);
  double lo = 1e9;
  double hi = -1e9;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_LT(lo, -1.8);
  EXPECT_GT(hi, 2.8);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(19);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(21);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) heads += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(23);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.Weighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ShuffleChangesOrder) {
  Rng rng(31);
  std::vector<int> v(64);
  for (int i = 0; i < 64; ++i) v[i] = i;
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(37);
  Rng b = a.Split();
  // The split stream differs from the continuation of the parent stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, IndexUniformity) {
  Rng rng(41);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Index(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}


// Golden streams, recorded from the out-of-line generator before it moved
// into the header. Any change to xoshiro256**, SplitMix64 seeding, Lemire's
// bounded draw or the double conversion shifts every sampled walk, negative
// and initial embedding, so these values are pinned exactly.
constexpr uint64_t kSeedA = 42;
constexpr uint64_t kSeedB = 0x5eed5eed5eed5eedULL;

TEST(RngGoldenTest, NextStreamIsPinned) {
  const uint64_t want_a[16] = {
      0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
      0xecb8ad4703b360a1ULL, 0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
      0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL, 0xc2e96e726e97647eULL,
      0x9556615f775fbc3dULL, 0xaeb53b340c103971ULL, 0x4a69db9873af8965ULL,
      0xcd0feda93006c6b6ULL, 0x52480865a4b42742ULL, 0xb60dec3bf2d887cdULL,
      0xe0b55a68b96677faULL};
  const uint64_t want_b[16] = {
      0x5530c1deb89725efULL, 0xa9faa1c0e3770917ULL, 0xeba5395d5d10a6f0ULL,
      0x33a8dbb7a385d6cbULL, 0xef3b4c17646a9954ULL, 0x338137c3981f661dULL,
      0xbe5eb01e9c6a22b7ULL, 0xf4ce70d2a8000053ULL, 0x9eca2f6e4ece1929ULL,
      0xd618393742d16f04ULL, 0xb4e682f9f27624b0ULL, 0x88a43006ad5005f5ULL,
      0x3d21465b861ccb22ULL, 0x7755ac680fe74015ULL, 0x4e14f2ffc72c76fbULL,
      0x24823e1a70b0b517ULL};
  Rng a(kSeedA);
  Rng b(kSeedB);
  Rng fallback;  // default seed is kSeedB
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.Next(), want_a[i]) << "seed 42, draw " << i;
    EXPECT_EQ(b.Next(), want_b[i]) << "seed 0x5eed..., draw " << i;
    EXPECT_EQ(fallback.Next(), want_b[i]) << "default seed, draw " << i;
  }
}

TEST(RngGoldenTest, NextBelowStreamIsPinned) {
  const uint64_t want_a[16] = {83,  378, 680, 924, 991, 769, 719, 850,
                               761, 583, 682, 290, 801, 321, 711, 877};
  const uint64_t want_b[16] = {332, 663, 920, 201, 934, 201, 743, 956,
                               620, 836, 706, 533, 238, 466, 305, 142};
  Rng a(kSeedA);
  Rng b(kSeedB);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.NextBelow(1000), want_a[i]) << "seed 42, draw " << i;
    EXPECT_EQ(b.NextBelow(1000), want_b[i]) << "seed 0x5eed..., draw " << i;
  }
}

TEST(RngGoldenTest, NextDoubleStreamIsPinned) {
  const double want_a[16] = {
      0x1.5780b2e0c2ecp-4,  0x1.84136619b444ep-2, 0x1.5c2ea66473c93p-1,
      0x1.d9715a8e0766cp-1, 0x1.fbcdb8ffc5d8bp-1, 0x1.8a1b4a6202f2ap-1,
      0x1.7042a90ab4cbbp-1, 0x1.b3344e87d7ccp-1,  0x1.85d2dce4dd2ecp-1,
      0x1.2aacc2beeebf7p-1, 0x1.5d6a766818207p-1, 0x1.29a76e61cebe2p-2,
      0x1.9a1fdb52600d8p-1, 0x1.4920219692d08p-2, 0x1.6c1bd877e5b1p-1,
      0x1.c16ab4d172ccep-1};
  const double want_b[16] = {
      0x1.54c3077ae25c8p-2, 0x1.53f54381c6ee1p-1, 0x1.d74a72baba214p-1,
      0x1.9d46ddbd1c2e8p-3, 0x1.de76982ec8d53p-1, 0x1.9c09be1cc0fbp-3,
      0x1.7cbd603d38d44p-1, 0x1.e99ce1a55p-1,     0x1.3d945edc9d9c3p-1,
      0x1.ac30726e85a2dp-1, 0x1.69cd05f3e4ec4p-1, 0x1.1148600d5aap-1,
      0x1.e90a32dc30e64p-3, 0x1.dd56b1a03f9dp-2,  0x1.3853cbff1cb1cp-2,
      0x1.2411f0d385858p-3};
  Rng a(kSeedA);
  Rng b(kSeedB);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.NextDouble(), want_a[i]) << "seed 42, draw " << i;
    EXPECT_EQ(b.NextDouble(), want_b[i]) << "seed 0x5eed..., draw " << i;
  }
}

// A bound of 2^63 + 1 rejects about half of all raw draws, so this pins
// Lemire's redraw loop: the accepted values and how many raw draws the 16
// calls consumed (32, read off the generator state afterwards).
TEST(RngGoldenTest, NextBelowRejectionLoopIsPinned) {
  const uint64_t n = (1ULL << 63) + 1;
  const uint64_t want[16] = {
      0x7ef36e3ff1762f32ULL, 0x6286d29880bca91cULL, 0x5c10aa42ad32eed9ULL,
      0x6174b739374bb23fULL, 0x2534edcc39d7c4b2ULL, 0x6687f6d49803635bULL,
      0x705aad345cb33bfdULL, 0x6cfa59aa761c226aULL, 0x5a9a265f210fa79dULL,
      0x0be2d6a9ceddcc6cULL, 0x16ea382d55d2ef15ULL, 0x37d548254a6294deULL,
      0x6501f2800ae0225cULL, 0x51498a27a79de9fdULL, 0x3506d440a4969dfeULL,
      0x4fb5a8e986a8159dULL};
  Rng rng(kSeedA);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng.NextBelow(n), want[i]) << "draw " << i;
  }
  const Rng::State st = rng.state();
  EXPECT_EQ(st.s[0], 0xd6a2d131b0c3e499ULL);
  EXPECT_EQ(st.s[1], 0x1059771f0df079a0ULL);
  EXPECT_EQ(st.s[2], 0xa1af124005e1ca4bULL);
  EXPECT_EQ(st.s[3], 0xdc886e915c002c4aULL);
  Rng raw(kSeedA);
  for (int i = 0; i < 32; ++i) raw.Next();
  const Rng::State raw_st = raw.state();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(raw_st.s[i], st.s[i]) << "word " << i;
}

}  // namespace
}  // namespace supa
