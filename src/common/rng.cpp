#include "common/rng.hpp"

#include <array>
#include <cmath>
#include <cstddef>

namespace approxiot {

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * next_double() - 1.0;
    v = 2.0 * next_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * mul;
  has_cached_gaussian_ = true;
  return u * mul;
}

double Rng::next_exponential(double lambda) noexcept {
  // Inverse transform; guard against log(0).
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

std::uint64_t Rng::next_poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double limit = std::exp(-mean);
    double product = next_double();
    std::uint64_t count = 0;
    while (product > limit) {
      product *= next_double();
      ++count;
    }
    return count;
  }
  // Normal approximation with continuity correction; adequate for the
  // workload generators where mean is large (1e3..1e7).
  const double sample = mean + std::sqrt(mean) * next_gaussian() + 0.5;
  if (sample < 0.0) return 0;
  return static_cast<std::uint64_t>(sample);
}

namespace {

using Words = std::array<std::uint64_t, 4>;

/// Blackman & Vigna's bit-serial jump: 256 steps of Rng::next()'s state
/// update, XOR-summing the states the jump polynomial selects. Evaluated
/// only at compile time, to build kJumpTable; it works on plain words
/// rather than an Rng so the 65,536 steps that takes stay well inside
/// the compiler's constant-evaluation budget.
constexpr Words serial_jump(const Words& start) {
  constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::uint64_t s0 = start[0], s1 = start[1], s2 = start[2], s3 = start[3];
  std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if ((word >> bit) & 1) {
        a0 ^= s0;
        a1 ^= s1;
        a2 ^= s2;
        a3 ^= s3;
      }
      const std::uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
    }
  }
  return Words{a0, a1, a2, a3};
}

/// The jump as a bit-matrix, nibble by nibble: entry [n][v] is the jump
/// of the state whose only set bits are the value v in nibble n (bits
/// 4·(n mod 16) to 4·(n mod 16)+3 of word n / 16). By linearity the jump
/// of any state is the XOR of its 64 nibbles' entries. 32 KB.
using JumpTable = std::array<std::array<Words, 16>, 64>;

constexpr JumpTable make_jump_table() {
  JumpTable table{};
  for (std::size_t n = 0; n < 64; ++n) {
    for (unsigned b = 0; b < 4; ++b) {
      Words unit{};
      unit[n / 16] = 1ULL << (4 * (n % 16) + b);
      const Words image = serial_jump(unit);
      // Values whose top set bit is b: the entry without that bit
      // (already filled) plus its image.
      const unsigned top = 1u << b;
      for (unsigned v = top; v < 2 * top; ++v) {
        for (std::size_t i = 0; i < 4; ++i) {
          table[n][v][i] = table[n][v - top][i] ^ image[i];
        }
      }
    }
  }
  return table;
}

alignas(64) constexpr JumpTable kJumpTable = make_jump_table();

}  // namespace

void Rng::jump() noexcept {
  Words acc{};
  for (std::size_t w = 0; w < 4; ++w) {
    std::uint64_t word = state_[w];
    for (std::size_t n = w * 16; n < w * 16 + 16; ++n, word >>= 4) {
      const Words& image = kJumpTable[n][word & 0xF];
      for (std::size_t i = 0; i < 4; ++i) acc[i] ^= image[i];
    }
  }
  state_ = acc;
  has_cached_gaussian_ = false;
}

}  // namespace approxiot
