// perfbench: the repository benchmark. Shared helpers — clock, seeded
// input generation, sample statistics, result reporting — used by the
// three workload drivers (trees.cpp, flowqueue.cpp) and the per-layer
// replays (layers.cpp).
//
// Everything the program under test sees is generated here from the
// workload seed with the benchmark's own RNG (SplitMix64 + Box-Muller +
// Poisson), never with the library's generators, so the parent and a
// change always receive bit-identical inputs for one seed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using approxiot::Item;
using approxiot::SubStreamId;

// --- clock ------------------------------------------------------------------

/// Microseconds on the steady clock since the first call (process epoch).
/// Interval stamps, fold times and due times all share this epoch.
std::int64_t now_us();

/// Seconds since the same epoch, at the clock's full (ns) resolution: the
/// timer of every duration the benchmark reports.
double now_s();

// --- seeded generation --------------------------------------------------------

class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double gaussian(double mean, double sd);
  double poisson(double lambda);

 private:
  std::uint64_t state_;
};

/// Derives an independent sub-seed (inputs vs. tree RNG vs. processors).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// The §V-A Gaussian sub-stream family A–D: (µ, σ) = (10, 5), (1e3, 50),
/// (1e4, 500), (1e5, 5000). Sub-stream `id` (1-based) uses family
/// (id - 1) % 4, so 16 sub-streams are four interleaved copies of A–D.
double gaussian_value(InputRng& rng, std::uint64_t id);

/// One interval of `n` items over `substreams` interleaved sub-streams
/// (ids 1..substreams, uniformly mixed), Gaussian A–D values.
std::vector<Item> gaussian_interval(InputRng& rng, std::size_t n,
                                    std::size_t substreams);

/// Fig. 10(c) skewed mix: Poisson λ = 10, 100, 1000, 1e7 with arrival
/// shares 80 %, 19.89 %, 0.1 %, 0.01 %. Exactly round(share × n) items of
/// each sub-stream (ids 1..4, the rest of the rounding to λ = 10), in a
/// seeded random order.
std::vector<Item> skewed_poisson_items(InputRng& rng, std::size_t n);

/// Exact SUM of an item vector (compensated).
double exact_sum(const std::vector<Item>& items);

// --- statistics -------------------------------------------------------------

/// Linear-interpolated q-quantile (q in [0,1]); 0 for an empty set.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Robust percentile of a timing series in run order: the q-quantile of
/// each of kSegments consecutive slices, then their median. A burst of
/// outside interference (this runs on shared hosts) moves one slice, not
/// the reported value.
double segmented_quantile(const std::vector<double>& samples, double q);

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

// --- placement -----------------------------------------------------------------

/// Steps the calling thread through the CPUs it may run on, one CPU per
/// step(), and restores its affinity on destruction. On a shared VM the
/// vCPUs run at different speeds (measured: 11.6M vs 15.1M items/s for
/// flowqueue_fig4 on two vCPUs of one 4-vCPU host), so a single-threaded
/// run measures whichever vCPU the scheduler left it on; stepping through
/// all of them makes every run sample each.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step();

 private:
  std::vector<int> cpus_;
  std::size_t next_{0};
};

// --- reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports: operation counts, the metrics of its mode, and
/// free-form detail lines (workload parameters, checks) printed before the
/// final result line.
struct Report {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  /// Counts one operation; a failed check records `why`.
  void op(bool ok, const std::string& why = {}) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(why);
    }
  }
  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  [[nodiscard]] bool correct() const { return failed == 0; }
};

/// Window check shared by every workload (Eq. 8): the root's estimated
/// count equals the items pushed into the window, to 1e-9 relative.
bool count_matches(double estimated, double pushed);

/// Window check against the benchmark's own ground truth: SUM* is within
/// kSumMargins of its reported 95 % margin of the exact SUM of the inputs.
/// At ~7.8 standard errors an unbiased estimator never fails it by chance;
/// a biased one (counts still exact, margin unchanged) does.
constexpr double kSumMargins = 4.0;
bool sum_within_margin(double point, double margin, double truth);

std::string json_escape(const std::string& s);

// --- workloads ------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::size_t workers{1};  // scheduler workers for the trees (nproc - 1)
};

void run_tree421_bulk(const RunOptions& options, Report& report);
void run_tree10k_sparse(const RunOptions& options, Report& report);
void run_flowqueue_fig4(const RunOptions& options, Report& report);

/// Per-layer names that do not apply to a workload are reported as 0 so
/// every traced run carries the full per-layer set (see workloads.json
/// "per_layer_applies" for which ones are measured where).
void fill_missing_per_layer(Report& report);

}  // namespace perfbench
