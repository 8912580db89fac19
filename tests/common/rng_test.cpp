#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

namespace approxiot {
namespace {

TEST(SplitMix64Test, ProducesKnownFirstValueForZeroSeed) {
  SplitMix64 sm(0);
  // Reference value from the SplitMix64 reference implementation.
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
}

TEST(SplitMix64Test, DistinctSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsProduceDifferentStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng rng(99);
  const std::uint64_t first = rng.next();
  rng.next();
  rng.reseed(99);
  EXPECT_EQ(rng.next(), first);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000003ULL}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowZeroBoundReturnsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(RngTest, NextBelowIsRoughlyUniform) {
  Rng rng(13);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(bound)];
  for (std::uint64_t k = 0; k < bound; ++k) {
    EXPECT_NEAR(counts[k], n / static_cast<int>(bound), n / 100)
        << "bucket " << k;
  }
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(17);
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_gaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(23);
  const double lambda = 4.0;
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(RngTest, PoissonSmallMeanMatches) {
  Rng rng(29);
  const double mean = 3.5;
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.next_poisson(mean));
  }
  EXPECT_NEAR(sum / n, mean, 0.05);
}

TEST(RngTest, PoissonLargeMeanMatches) {
  Rng rng(31);
  const double mean = 10000.0;
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.next_poisson(mean));
  }
  EXPECT_NEAR(sum / n / mean, 1.0, 0.005);
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(37);
  EXPECT_EQ(rng.next_poisson(0.0), 0u);
  EXPECT_EQ(rng.next_poisson(-5.0), 0u);
}

TEST(RngTest, JumpProducesNonOverlappingStream) {
  Rng base(41);
  Rng jumped = base;
  jumped.jump();
  // The jumped stream must not collide with the near future of the base
  // stream (2^128 steps apart in the sequence).
  std::set<std::uint64_t> base_values;
  for (int i = 0; i < 1000; ++i) base_values.insert(base.next());
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    if (base_values.count(jumped.next()) > 0) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

// The reference jump: Blackman & Vigna's bit-serial loop, kept here as
// an independent oracle for the table-driven Rng::jump(). It steps its
// own copy of the xoshiro256** state update so that a fault shared by
// the library's generator and table cannot cancel out.
using Words = std::array<std::uint64_t, 4>;

Words serial_jump(Words s) {
  constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0abaULL,
                                     0xd5a61266f0c9392cULL,
                                     0xa9582618e03fc9aaULL,
                                     0x39abdc4529b1661cULL};
  Words acc{};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s[i];
      }
      const std::uint64_t t = s[1] << 17;
      s[2] ^= s[0];
      s[3] ^= s[1];
      s[1] ^= s[2];
      s[0] ^= s[3];
      s[2] ^= t;
      s[3] = (s[3] << 45) | (s[3] >> 19);
    }
  }
  return acc;
}

Rng rng_at(const Words& s) {
  Rng rng;
  rng.restore_state(Rng::State{s, false, 0.0});
  return rng;
}

void expect_jump_matches_serial(const Words& s) {
  Rng jumped = rng_at(s);
  jumped.jump();
  const Words once = serial_jump(s);
  ASSERT_EQ(jumped.save_state().s, once);
  // split(n) is the state jumped n + 1 times.
  Words expected = once;
  for (unsigned n = 0; n <= 3; ++n) {
    ASSERT_EQ(rng_at(s).split(n).save_state().s, expected) << "split " << n;
    expected = serial_jump(expected);
  }
}

TEST(RngTest, JumpMatchesSerialLoopOnSeededStates) {
  SplitMix64 seeds(0x5eedULL);
  for (int k = 0; k < 1000; ++k) {
    Words s{};
    for (auto& word : s) word = seeds.next();
    ASSERT_NO_FATAL_FAILURE(expect_jump_matches_serial(s)) << "state " << k;
  }
}

TEST(RngTest, JumpMatchesSerialLoopOnSingleBitAndAllOnesStates) {
  for (std::size_t bit = 0; bit < 256; ++bit) {
    Words s{};
    s[bit / 64] = 1ULL << (bit % 64);
    ASSERT_NO_FATAL_FAILURE(expect_jump_matches_serial(s)) << "bit " << bit;
  }
  expect_jump_matches_serial(Words{~0ULL, ~0ULL, ~0ULL, ~0ULL});
}

TEST(RngTest, JumpedStreamMatchesRecordedValue) {
  // Recorded from the original bit-serial jump.
  Rng rng(41);
  rng.jump();
  EXPECT_EQ(rng.next(), 0xdf02efd0e84f3bc4ULL);
}

TEST(RngTest, JumpDropsCachedGaussian) {
  Rng rng(47);
  (void)rng.next_gaussian();  // caches the second variate of the pair
  ASSERT_TRUE(rng.save_state().has_cached_gaussian);
  rng.jump();
  EXPECT_FALSE(rng.save_state().has_cached_gaussian);
}

TEST(RngTest, SplitStreamsAreDistinct) {
  Rng base(43);
  Rng a = base.split(0);
  Rng b = base.split(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

}  // namespace
}  // namespace approxiot
