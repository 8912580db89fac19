// Hot-path microbench: items/sec through one node's full interval step —
// stratify → sample (Algorithm 1) → forward (flatten for the parent) →
// encode (wire bytes) — comparing the flat zero-copy data plane against
// the seed's map-based one.
//
// The two modes compute the SAME function (the bench asserts bit-identical
// output before timing anything); they differ only in representation:
//
//   flat    StratifiedBatch::assign (counting build into a reused arena),
//           WHSampler::sample_strata over arena spans with offer_span,
//           to_bundle() && (arena move), encode straight from the sample.
//   legacy  std::map<SubStreamId, std::vector<Item>> stratify() rebuilt
//           node-by-node per interval, a fresh per-item reservoir per
//           stratum, a map-of-vectors bundle, to_bundle() copy, encode
//           from the flattened copy — the seed data plane, kept here as
//           the comparison baseline.
//
// Each (interval size, mode) cell runs `reps` times interleaved after an
// untimed warmup batch per mode; the best rep is reported for the rates
// (same methodology as bench_runtime_scaling). The stats-on overhead is
// measured separately as a median of paired per-interval ratios on one
// sampler (see measure_stats_overhead_pct) — comparing independently
// timed batches only measured machine drift and swung sign.
// Output: human table + one bench_util JSON line. `--smoke` shrinks the
// run for CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/stratified.hpp"
#include "core/whsamp.hpp"
#include "core/wire.hpp"
#include "obs/hooks.hpp"
#include "sampling/allocation.hpp"
#include "sampling/reservoir.hpp"

namespace {

using namespace approxiot;

constexpr std::uint64_t kSeed = 20180701;
constexpr std::uint64_t kStreams = 16;

std::vector<Item> make_interval(std::size_t n) {
  Rng rng(7);
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(Item{SubStreamId{1 + rng.next_below(kStreams)},
                         rng.next_double(),
                         static_cast<std::int64_t>(i)});
  }
  return items;
}

// --- Legacy data plane ------------------------------------------------------
// A faithful replica of the seed WHSampler + SampledBundle: identical RNG
// consumption (split per stratum in map order, then jump), map-of-vectors
// everywhere, flatten-then-encode. Kept inside the bench so the library
// itself carries no dead code.

struct LegacyBundle {
  std::map<SubStreamId, double> w_out;
  std::map<SubStreamId, std::vector<Item>> sample;
};

class LegacySampler {
 public:
  explicit LegacySampler(Rng rng)
      : rng_(rng), policy_(sampling::make_allocation_policy("equal")) {}

  LegacyBundle sample(const std::vector<Item>& items, std::size_t sample_size,
                      const std::map<SubStreamId, double>& w_in) {
    LegacyBundle out;
    if (items.empty()) return out;
    auto strata = core::stratify(items);

    std::vector<sampling::SubStreamInfo> infos;
    infos.reserve(strata.size());
    for (const auto& [id, stratum] : strata) {
      infos.push_back(sampling::SubStreamInfo{id, stratum.size(), 0.0, 1.0});
    }
    // The seed allocator returned a map of N_i; rebuild one so the
    // replica keeps that per-call cost.
    policy_->allocate(sample_size, infos, flat_sizes_);
    std::map<SubStreamId, std::size_t> sizes;
    for (std::size_t k = 0; k < infos.size(); ++k) {
      sizes[infos[k].id] = flat_sizes_[k];
    }

    for (auto& [id, stratum] : strata) {
      const std::uint64_t c_i = stratum.size();
      auto size_it = sizes.find(id);
      const std::size_t n_i = size_it == sizes.end() ? 0 : size_it->second;

      sampling::ReservoirSampler<Item> reservoir(n_i, rng_.split());
      rng_.jump();
      for (Item& item : stratum) reservoir.offer(std::move(item));

      auto w_it = w_in.find(id);
      const double w_in_i = w_it == w_in.end() ? 1.0 : w_it->second;
      if (c_i > n_i) {
        const double w_i =
            n_i > 0 ? static_cast<double>(c_i) / static_cast<double>(n_i)
                    : 1.0;
        out.w_out[id] = w_in_i * w_i;
      } else {
        out.w_out[id] = w_in_i;
      }
      out.sample.emplace(id, reservoir.drain());
    }
    return out;
  }

 private:
  Rng rng_;
  std::unique_ptr<sampling::AllocationPolicy> policy_;
  std::vector<std::size_t> flat_sizes_;
};

core::ItemBundle legacy_to_bundle(const LegacyBundle& bundle) {
  core::ItemBundle out;
  for (const auto& [id, w] : bundle.w_out) out.w_in.set(id, w);
  std::size_t n = 0;
  for (const auto& [_, items] : bundle.sample) n += items.size();
  out.items.reserve(n);
  for (const auto& [_, items] : bundle.sample) {
    out.items.insert(out.items.end(), items.begin(), items.end());
  }
  return out;
}

// --- One interval step per mode --------------------------------------------
// Returns a checksum so the compiler cannot drop the work.

// noinline: run_flat_obs must call this exact function, not an inlined
// private copy — otherwise the flat and stats-on modes time two
// differently-laid-out compilations of the sampler step and the
// "overhead" column picks up the codegen delta instead of the
// instrumentation cost (it repeatably read several percent NEGATIVE).
[[gnu::noinline]] std::size_t run_flat(core::WHSampler& sampler,
                                       core::StratifiedBatch& scratch,
                                       const std::vector<Item>& items,
                                       std::size_t budget) {
  scratch.assign(items);
  core::SampledBundle bundle =
      sampler.sample_strata(scratch, budget, core::WeightMap{});
  const std::vector<std::uint8_t> payload = core::encode_bundle(bundle);
  core::ItemBundle forwarded = std::move(bundle).to_bundle();
  return payload.size() + forwarded.items.size();
}

// The flat step under live instrumentation: a stage-execute span plus the
// exec_us histogram and items counter a tree node records per interval.
// Identical sampling work — the bench asserts its accumulated output
// equals the uninstrumented flat mode's bit for bit.
std::size_t run_flat_obs(core::WHSampler& sampler,
                         core::StratifiedBatch& scratch,
                         const std::vector<Item>& items, std::size_t budget,
                         obs::Histogram* exec_us, obs::Counter* items_in,
                         obs::Tracer* tracer, obs::TrackId track) {
  AIOT_OBS_SPAN(span, tracer, track, "stage-execute");
  [[maybe_unused]] std::chrono::steady_clock::time_point t0{};
  AIOT_OBS(if (exec_us != nullptr) t0 = std::chrono::steady_clock::now(););
  const std::size_t sink = run_flat(sampler, scratch, items, budget);
  AIOT_OBS(
      if (exec_us != nullptr) {
        const std::chrono::duration<double, std::micro> d =
            std::chrono::steady_clock::now() - t0;
        exec_us->record(d.count());
        items_in->increment(items.size());
      });
  (void)exec_us;
  (void)items_in;
  return sink;
}

std::size_t run_legacy(LegacySampler& sampler, const std::vector<Item>& items,
                       std::size_t budget) {
  LegacyBundle bundle = sampler.sample(items, budget, {});
  // The seed's forward/encode path: flatten once for the wire, once for
  // the parent (encode_bundle(SampledBundle) used to call to_bundle()).
  const std::vector<std::uint8_t> payload =
      core::encode_bundle(legacy_to_bundle(bundle));
  core::ItemBundle forwarded = legacy_to_bundle(bundle);
  return payload.size() + forwarded.items.size();
}

double items_per_second(std::size_t items, std::size_t intervals,
                        double seconds) {
  return static_cast<double>(items * intervals) / seconds;
}

// Instrumentation overhead, measured as paired ratios on ONE sampler: the
// live-stats cost per interval (a span, two clock reads, one histogram
// record) is far below the machine's seconds-scale throughput drift, so
// comparing two independently-timed mode batches only measures that drift
// (the column used to read several percent, either sign). Here each pair
// times one plain interval and one stats-on interval back to back — same
// sampler, same scratch, same cache footprint, shared drift — and the
// median over many pairs isolates the real cost: pairs are short enough
// that drift is constant within one, numerous enough that episodic
// stalls land in a minority the median ignores, and the arm order
// alternates to cancel any position effect.
double measure_stats_overhead_pct(const std::vector<Item>& items,
                                  std::size_t budget, std::size_t pairs,
                                  obs::Histogram* exec_us,
                                  obs::Counter* items_in, obs::Tracer* tracer,
                                  obs::TrackId track) {
  core::WHSampler sampler{Rng(kSeed)};
  core::StratifiedBatch scratch;
  std::size_t sink = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    sink += run_flat(sampler, scratch, items, budget);
  }
  std::vector<double> ratios;
  ratios.reserve(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    const bool stats_first = p % 2 == 1;
    double t_plain = 0.0, t_stats = 0.0;
    for (int arm = 0; arm < 2; ++arm) {
      const bool stats_arm = (arm == 0) == stats_first;
      const auto t0 = std::chrono::steady_clock::now();
      sink += stats_arm
                  ? run_flat_obs(sampler, scratch, items, budget, exec_us,
                                 items_in, tracer, track)
                  : run_flat(sampler, scratch, items, budget);
      const std::chrono::duration<double> d =
          std::chrono::steady_clock::now() - t0;
      (stats_arm ? t_stats : t_plain) = d.count();
    }
    ratios.push_back(t_stats / t_plain);
  }
  if (sink == 42) std::printf("unlikely\n");  // keep the work observable
  return (approxiot::bench::median(ratios) - 1.0) * 100.0;
}

void check_modes_agree(std::size_t n) {
  const auto items = make_interval(n);
  const std::size_t budget = n / 10;
  core::WHSampler flat{Rng(kSeed)};
  core::StratifiedBatch scratch;
  scratch.assign(items);
  const core::SampledBundle got =
      flat.sample_strata(scratch, budget, core::WeightMap{});
  LegacySampler legacy{Rng(kSeed)};
  const LegacyBundle expected = legacy.sample(items, budget, {});
  if (got.sample.size() != expected.sample.size()) {
    std::fprintf(stderr, "mode mismatch: stratum count\n");
    std::exit(1);
  }
  auto exp_it = expected.sample.begin();
  for (const auto& [id, span] : got.sample) {
    if (id != exp_it->first || !(span == exp_it->second)) {
      std::fprintf(stderr, "mode mismatch: stream %llu\n",
                   static_cast<unsigned long long>(id.value()));
      std::exit(1);
    }
    const auto w_it = expected.w_out.find(id);
    if (w_it == expected.w_out.end() || got.w_out.get(id) != w_it->second) {
      std::fprintf(stderr, "mode mismatch: weight\n");
      std::exit(1);
    }
    ++exp_it;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  // Keep interval buffers heap-resident: without this the per-interval
  // arena/payload alloc-free cycle page-faults every iteration.
  approxiot::bench::pin_allocator();

  // The flat plane must be a representation change only.
  check_modes_agree(smoke ? 5000 : 50000);

  const std::vector<int> interval_items =
      smoke ? std::vector<int>{2048, 16384}
            : std::vector<int>{4096, 65536, 262144};
  const std::size_t reps = smoke ? 3 : 7;
  const std::size_t intervals = smoke ? 20 : 50;

  approxiot::bench::print_header(
      "hot-path items/sec: flat arena vs legacy map data plane",
      "stratify -> WHSamp -> forward -> encode, 16 sub-streams, 10% budget");

  // The stats-on mode records into a live registry + tracer, like a node
  // lane inside an instrumented ConcurrentEdgeTree.
  obs::StatsRegistry stats;
  obs::Tracer tracer;
  obs::Histogram* exec_us = nullptr;
  obs::Counter* items_in = nullptr;
  obs::TrackId track = obs::ScopedSpan::kNoTrack;
  AIOT_OBS(obs::ScopedStats scope = stats.scope("bench/hotpath");
           exec_us = scope.histogram("exec_us");
           items_in = scope.counter("items_in");
           track = tracer.register_track("bench/hotpath"););

  std::vector<double> flat_rate, stats_rate, legacy_rate, speedup,
      stats_overhead_pct;
  for (const int n : interval_items) {
    const auto items = make_interval(static_cast<std::size_t>(n));
    const std::size_t budget = static_cast<std::size_t>(n) / 10;

    std::size_t sink_flat = 0, sink_stats = 0, sink_legacy = 0;
    // Long-lived samplers, like a node's lane: scratch buffers persist
    // across intervals. Reps interleave so machine noise hits all modes.
    core::WHSampler flat_sampler{Rng(kSeed)};
    core::StratifiedBatch scratch;
    core::WHSampler stats_sampler{Rng(kSeed)};
    core::StratifiedBatch stats_scratch;
    LegacySampler legacy_sampler{Rng(kSeed)};

    // Untimed warmup: pages in every per-mode buffer, settles the
    // allocator, and trains the branch predictors before measurement.
    // Identical interval counts per mode keep the sink cross-checks valid.
    const std::size_t warmup = smoke ? 2 : 5;
    for (std::size_t k = 0; k < warmup; ++k) {
      sink_flat += run_flat(flat_sampler, scratch, items, budget);
      sink_stats += run_flat_obs(stats_sampler, stats_scratch, items, budget,
                                 exec_us, items_in, &tracer, track);
      sink_legacy += run_legacy(legacy_sampler, items, budget);
    }

    // Each mode's timed window opens after two untimed lead-in intervals
    // of the same mode: the previous mode's batch leaves caches and
    // predictors trained for *its* footprint, and at small intervals that
    // transition dominated — flat (which always followed the map-heavy
    // legacy batch) consistently measured below the stats-on mode that
    // runs in its warm shadow.
    constexpr std::size_t kLeadIn = 2;
    std::vector<double> rep_flat, rep_stats, rep_legacy;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t k = 0; k < kLeadIn; ++k) {
        sink_flat += run_flat(flat_sampler, scratch, items, budget);
      }
      auto start = std::chrono::steady_clock::now();
      for (std::size_t k = 0; k < intervals; ++k) {
        sink_flat += run_flat(flat_sampler, scratch, items, budget);
      }
      std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      rep_flat.push_back(items_per_second(static_cast<std::size_t>(n),
                                          intervals, elapsed.count()));

      for (std::size_t k = 0; k < kLeadIn; ++k) {
        sink_stats += run_flat_obs(stats_sampler, stats_scratch, items,
                                   budget, exec_us, items_in, &tracer, track);
      }
      start = std::chrono::steady_clock::now();
      for (std::size_t k = 0; k < intervals; ++k) {
        sink_stats += run_flat_obs(stats_sampler, stats_scratch, items,
                                   budget, exec_us, items_in, &tracer, track);
      }
      elapsed = std::chrono::steady_clock::now() - start;
      rep_stats.push_back(items_per_second(static_cast<std::size_t>(n),
                                           intervals, elapsed.count()));

      for (std::size_t k = 0; k < kLeadIn; ++k) {
        sink_legacy += run_legacy(legacy_sampler, items, budget);
      }
      start = std::chrono::steady_clock::now();
      for (std::size_t k = 0; k < intervals; ++k) {
        sink_legacy += run_legacy(legacy_sampler, items, budget);
      }
      elapsed = std::chrono::steady_clock::now() - start;
      rep_legacy.push_back(items_per_second(static_cast<std::size_t>(n),
                                            intervals, elapsed.count()));
    }
    const double best_flat = *std::max_element(rep_flat.begin(),
                                               rep_flat.end());
    const double best_legacy = *std::max_element(rep_legacy.begin(),
                                                 rep_legacy.end());
    const double best_stats = *std::max_element(rep_stats.begin(),
                                                rep_stats.end());
    const double overhead_pct = measure_stats_overhead_pct(
        items, budget, smoke ? 15 : 101, exec_us, items_in, &tracer, track);
    // Instrumentation must not change what the lane computes.
    if (sink_flat != sink_stats) {
      std::fprintf(stderr, "stats-on output diverged: %zu vs %zu\n",
                   sink_flat, sink_stats);
      return 1;
    }
    if (sink_legacy == 42) std::printf("unlikely\n");  // keep observable

    flat_rate.push_back(best_flat);
    stats_rate.push_back(best_stats);
    legacy_rate.push_back(best_legacy);
    speedup.push_back(best_legacy > 0.0 ? best_flat / best_legacy : 0.0);
    stats_overhead_pct.push_back(overhead_pct);
    std::printf("%8d items/interval: flat %12.0f it/s   +stats %12.0f it/s"
                " (%+.2f%%)   legacy %12.0f it/s   speedup %.2fx\n",
                n, best_flat, best_stats, stats_overhead_pct.back(),
                best_legacy, speedup.back());
  }

  approxiot::bench::print_json_result(
      "hotpath", "ApproxIoT", "interval_items", interval_items,
      {{"flat_items_per_s", flat_rate},
       {"stats_on_items_per_s", stats_rate},
       {"stats_on_overhead_pct", stats_overhead_pct},
       {"legacy_items_per_s", legacy_rate},
       {"speedup", speedup}});
  approxiot::bench::print_stats_json("hotpath", "ApproxIoT",
                                     stats.snapshot());
  return 0;
}
