#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double InputRng::gaussian(double mean, double sd) {
  // Box-Muller; u1 in (0, 1] keeps log() finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return mean + sd * std::sqrt(-2.0 * std::log(u1)) *
                    std::cos(6.283185307179586 * u2);
}

double InputRng::poisson(double lambda) {
  if (lambda < 200.0) {
    // Knuth's product-of-uniforms method: exact, cheap for small λ.
    const double limit = std::exp(-lambda);
    double product = uniform();
    double k = 0.0;
    while (product > limit) {
      product *= uniform();
      k += 1.0;
    }
    return k;
  }
  // Large λ: normal approximation, rounded and clamped at zero.
  return std::max(0.0, std::round(gaussian(lambda, std::sqrt(lambda))));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  InputRng rng(seed * 0x2545f4914f6cdd1dULL + salt);
  return rng.next();
}

double gaussian_value(InputRng& rng, std::uint64_t id) {
  static constexpr double kMean[4] = {10.0, 1e3, 1e4, 1e5};
  static constexpr double kSd[4] = {5.0, 50.0, 500.0, 5000.0};
  const std::size_t family = (id - 1) % 4;
  return rng.gaussian(kMean[family], kSd[family]);
}

std::vector<Item> gaussian_interval(InputRng& rng, std::size_t n,
                                    std::size_t substreams) {
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t id = 1 + rng.below(substreams);
    items.push_back(Item{SubStreamId{id}, gaussian_value(rng, id), 0});
  }
  return items;
}

std::vector<Item> skewed_poisson_items(InputRng& rng, std::size_t n) {
  static constexpr double kLambda[4] = {10.0, 100.0, 1000.0, 1e7};
  static constexpr double kShare[4] = {0.80, 0.1989, 0.001, 0.0001};
  std::vector<Item> items;
  items.reserve(n);
  std::size_t assigned = 0;
  for (int s = 3; s >= 1; --s) {
    const auto count = static_cast<std::size_t>(
        std::llround(kShare[s] * static_cast<double>(n)));
    for (std::size_t i = 0; i < count; ++i) {
      items.push_back(Item{SubStreamId{static_cast<std::uint64_t>(s) + 1},
                           rng.poisson(kLambda[s]), 0});
    }
    assigned += count;
  }
  for (; assigned < n; ++assigned) {
    items.push_back(Item{SubStreamId{1}, rng.poisson(kLambda[0]), 0});
  }
  // Fisher-Yates: interleave the sub-streams.
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
  return items;
}

double exact_sum(const std::vector<Item>& items) {
  double sum = 0.0;
  double carry = 0.0;
  for (const Item& item : items) {
    const double y = item.value - carry;
    const double t = sum + y;
    carry = (t - sum) - y;
    sum = t;
  }
  return sum;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double segmented_quantile(const std::vector<double>& samples, double q) {
  constexpr std::size_t kSegments = 10;
  if (samples.size() < kSegments) return quantile(samples, q);
  std::vector<double> per_segment;
  for (std::size_t s = 0; s < kSegments; ++s) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(
                                             s * samples.size() / kSegments);
    const auto end = samples.begin() + static_cast<std::ptrdiff_t>(
                                           (s + 1) * samples.size() / kSegments);
    per_segment.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return median(std::move(per_segment));
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::step() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

bool count_matches(double estimated, double pushed) {
  return std::fabs(estimated - pushed) <= 1e-9 * std::max(1.0, pushed);
}

bool sum_within_margin(double point, double margin, double truth) {
  return std::fabs(point - truth) <=
         kSumMargins * margin + 1e-9 * std::fabs(truth);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
