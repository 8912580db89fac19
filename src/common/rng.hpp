// Deterministic, fast pseudo-random number generation used by every
// sampling decision in ApproxIoT. We provide SplitMix64 (for seeding) and
// xoshiro256** (the workhorse generator), plus convenience distributions.
//
// All experiments in the repo are seeded so that results are reproducible
// run-to-run; parallel workers derive independent streams by jumping.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace approxiot {

/// The SplitMix64 finaliser as a standalone function: a full-avalanche
/// mix that spreads clustered integer keys uniformly. Used to expand
/// seeds (SplitMix64 below) and as the hash of the open-addressing flat
/// tables (core::WeightMap, core::StratifiedBatch's slot index) — one
/// definition, so the mixing constants cannot drift apart.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64: tiny, statistically solid generator used to expand a single
/// 64-bit seed into the larger state of xoshiro256**.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    return mix64(state_ += 0x9e3779b97f4a7c15ULL);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: public-domain generator by Blackman & Vigna. Satisfies
/// UniformRandomBitGenerator so it composes with <random> distributions,
/// but we also ship inline helpers that avoid libstdc++'s distribution
/// overhead on the sampling hot path.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x8f1bbcdc1d9f0521ULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Bernoulli trial with success probability p.
  bool next_bool(double p) noexcept { return next_double() < p; }

  /// Standard normal variate (Marsaglia polar method with caching).
  double next_gaussian() noexcept;

  /// Exponential variate with rate lambda (inverse transform).
  double next_exponential(double lambda) noexcept;

  /// Poisson variate. Uses Knuth's product method for small mean and a
  /// normal approximation (rounded, clamped at 0) for large mean.
  std::uint64_t next_poisson(double mean) noexcept;

  /// Jump function: advances the state by 2^128 steps, equivalent to
  /// generating 2^128 outputs. Used to give parallel workers
  /// non-overlapping sub-sequences of one logical random stream.
  /// The jump is linear over GF(2) in the 256-bit state, so it runs as a
  /// bit-matrix product: 64 lookups into a compile-time table of each
  /// state nibble's image, XOR-summed — the same state the reference
  /// bit-serial loop (256 generator steps) reaches, at a fraction of
  /// the cost. Drops any cached gaussian variate.
  void jump() noexcept;

  /// Convenience: a generator whose stream is this one jumped `n` + 1
  /// times (the default split() is two jumps ahead).
  [[nodiscard]] Rng split(unsigned n = 1) const noexcept {
    Rng child = *this;
    for (unsigned i = 0; i <= n; ++i) child.jump();
    return child;
  }

  /// Complete serializable generator state: the four xoshiro256** words
  /// plus the Marsaglia gaussian cache. The cache is part of the contract:
  /// without it a restored generator would skip (or repeat) the second
  /// variate of a polar-method pair and every later draw would diverge.
  struct State {
    std::array<std::uint64_t, 4> s{};
    bool has_cached_gaussian{false};
    double cached_gaussian{0.0};
  };

  [[nodiscard]] State save_state() const noexcept {
    return State{state_, has_cached_gaussian_, cached_gaussian_};
  }

  /// Restoring a saved state reproduces the exact future draw sequence —
  /// the bit-identity contract checkpoint/restore is built on.
  void restore_state(const State& state) noexcept {
    state_ = state.s;
    has_cached_gaussian_ = state.has_cached_gaussian;
    cached_gaussian_ = state.cached_gaussian;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool has_cached_gaussian_{false};
  double cached_gaussian_{0.0};
};

}  // namespace approxiot
