// SamplingExecutor: one execution layer for every parallel sampling path.
//
// The paper's §III-E no-coordination argument is about *where* sampling
// work runs, not *what* it computes: a sub-stream's reservoir may be
// sharded across w workers that never synchronise while items flow, and
// the merged output is indistinguishable to the estimators because the
// weight is recomputed from summed counters (Eq. 8):
//     c_i = Σ_w c_{i,w},   c̃_i = Σ_w |reservoir_w|,
//     W^out · c̃_i = W^in · c_i.
//
// Historically the repo had three divergent executions of that idea —
// WHSampler (sequential), ParallelSampler (OS threads spawned per
// sub-stream per interval), and ConcurrentEdgeTree's per-node worker
// plumbing. This header is the single abstraction they all sit on now:
//
//   SamplingExecutor — process-wide policy + resources (the thread pool).
//   SamplingLane     — one node's session: owns the node's RNG stream and
//                      its long-lived per-sub-stream shard state, so the
//                      per-interval hot path allocates no threads and
//                      reuses reservoir buffers.
//   WorkerGroup      — the reference shard/offer/merge protocol for one
//                      sub-stream (extracted from core/parallel.hpp).
//                      The pooled lane runs a slice-based variant of the
//                      same protocol tuned for zero-copy merges; the
//                      executor tests pin both to the same Eq. 8
//                      behaviour (clamp included) through the lane API.
//
// Two implementations:
//   SequentialSamplingExecutor — lanes are plain WHSampler (Algorithm 1).
//   PooledSamplingExecutor     — lanes shard items over reusable
//     runtime::ThreadPool workers. Workers are created once at executor
//     construction; the per-interval path only pushes closures into the
//     pool's queue. A 1-worker pooled lane is bit-identical to WHSampler
//     (same RNG consumption, same offers, same weights) — the regression
//     tests pin this down — and inline vs pooled dispatch of the same
//     lane produces identical samples (the shard assignment is a pure
//     function of item position), so dispatch is a performance decision
//     only.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/batch.hpp"
#include "core/whsamp.hpp"
#include "sampling/reservoir.hpp"

namespace approxiot::runtime {
class ThreadPool;  // depends only on common/ — no layering cycle
}  // namespace approxiot::runtime

namespace approxiot::obs {
class StatsRegistry;  // obs depends only on the standard library
class Tracer;
}  // namespace approxiot::obs

namespace approxiot::core {

class CheckpointWriter;
class CheckpointReader;

/// One worker's state for one sub-stream: a reservoir of at most N_i/w
/// items plus the local arrival counter. Single-threaded by itself; the
/// group shards items across workers.
class SubStreamWorker {
 public:
  SubStreamWorker(std::size_t capacity, Rng rng,
                  sampling::ReservoirAlgorithm algorithm =
                      sampling::ReservoirAlgorithm::kAlgorithmR);

  void offer(const Item& item);

  /// Re-seeds and re-sizes for a new interval, keeping the reservoir's
  /// heap buffer (the long-lived-worker fast path).
  void rearm(std::size_t capacity, const Rng& rng);

  [[nodiscard]] std::uint64_t local_count() const noexcept {
    return reservoir_.seen();
  }
  [[nodiscard]] std::size_t sample_size() const noexcept {
    return reservoir_.size();
  }
  /// Appends the kept items to `out` and resets counters; the internal
  /// buffer survives for the next interval.
  void collect_into(std::vector<Item>& out);
  [[nodiscard]] std::vector<Item> drain() { return reservoir_.drain(); }
  void set_capacity(std::size_t capacity) { reservoir_.set_capacity(capacity); }

 private:
  sampling::ReservoirSampler<Item> reservoir_;
};

/// The shard/offer/merge protocol for one sub-stream. The worker count is
/// clamped to the total capacity (a worker with a zero-slot reservoir
/// could keep nothing, risking a merged c̃ of 0 for a sub-stream that did
/// receive items); shards routed beyond the clamped count only count
/// arrivals, preserving c_i.
class WorkerGroup {
 public:
  /// `total_capacity` is N_i; each active worker gets floor(N_i/w) with
  /// the remainder spread over the first workers so Σ capacities == N_i.
  WorkerGroup(std::size_t workers, std::size_t total_capacity, Rng stream,
              sampling::ReservoirAlgorithm algorithm =
                  sampling::ReservoirAlgorithm::kAlgorithmR);

  /// Re-splits capacity and re-seeds worker RNG streams for a new
  /// interval. `stream` is the sub-stream's already-derived stream (the
  /// caller walks the jump chain; see WHSampler::sample_strata). Worker
  /// 0 draws from it as is — exactly the stream WHSampler hands its
  /// single reservoir, which is what makes a one-worker group
  /// bit-identical to the sequential path; workers beyond 0 reseed from
  /// values drawn off it. Reservoir buffers are kept.
  void rearm(std::size_t workers, std::size_t total_capacity,
             const Rng& stream);

  /// Offers items round-robin across active workers (single-threaded
  /// sharding).
  void shard(const std::vector<Item>& items);

  /// Offers one item to a specific active worker (callers doing their own
  /// sharding). `worker` must be < worker_count().
  void offer_to(std::size_t worker, const Item& item);

  /// Offers via a shard id in [0, shard_width()): shards below
  /// worker_count() feed that worker's reservoir; shards at or above it
  /// only count the arrival (capacity ran out before them). Thread-safe
  /// across *distinct* shard ids — shard t touches only slot t.
  void offer_routed(std::size_t shard, const Item& item);

  struct MergeResult {
    std::vector<Item> sample;
    std::uint64_t total_count{0};   // c_i
    double weight_multiplier{1.0};  // c_i / c̃_i when overflowed, else 1
  };

  /// Merges worker reservoirs (kept items are copied out so buffers
  /// survive), resets counters for the next interval.
  [[nodiscard]] MergeResult merge();

  /// Active (capacity-clamped) worker count.
  [[nodiscard]] std::size_t worker_count() const noexcept { return active_; }
  /// Routing width accepted by offer_routed (the requested worker count).
  [[nodiscard]] std::size_t shard_width() const noexcept {
    return overflow_seen_.size();
  }

 private:
  std::vector<SubStreamWorker> workers_;  // storage; first active_ live
  std::vector<std::uint64_t> overflow_seen_;
  std::size_t active_{0};
  sampling::ReservoirAlgorithm algorithm_;
  std::size_t next_worker_{0};
};

/// One node's sampling session. Semantically one call to sample() is one
/// invocation of Algorithm 1 on a (W^in, items) pair — the same contract
/// as WHSampler::sample — but the lane owns cross-interval state (RNG
/// stream, persistent worker groups, a stratification scratch arena) so
/// implementations can keep workers warm between intervals.
class SamplingLane {
 public:
  virtual ~SamplingLane() = default;

  /// Convenience entry point: stratifies `items` into the lane's reused
  /// scratch batch, then runs the span-based path below.
  [[nodiscard]] SampledBundle sample(const std::vector<Item>& items,
                                     std::size_t sample_size,
                                     const WeightMap& w_in) {
    if (items.empty()) return SampledBundle{};
    scratch_.assign(items);
    return sample_strata(scratch_, sample_size, w_in);
  }

  /// Span-based hot path: one invocation of Algorithm 1 on input already
  /// stratified into a flat arena. Callers that stratify once per bundle
  /// (the node layer) call this directly and skip the scratch copy.
  [[nodiscard]] virtual SampledBundle sample_strata(
      const StratifiedBatch& strata, std::size_t sample_size,
      const WeightMap& w_in) = 0;

  /// Reservoir shards per sub-stream (1 == the sequential path).
  [[nodiscard]] virtual std::size_t workers() const noexcept = 0;

  /// Serializes the lane's cross-interval state — the RNG stream plus any
  /// call counters; shard groups and scratch arenas are rearmed every
  /// call and carry nothing forward. Implementations tag their payload so
  /// a checkpoint taken on one lane type cannot be silently restored into
  /// another. Pure virtual on purpose: a lane that forgot to implement
  /// this would silently break checkpoint bit-identity.
  virtual void save_state(CheckpointWriter& writer) const = 0;
  virtual void restore_state(CheckpointReader& reader) = 0;

 private:
  StratifiedBatch scratch_;
};

/// Factory for lanes plus the shared resources (thread pool) they run on.
/// One executor is typically shared by every sampling node of a runtime
/// (e.g. all nodes of a ConcurrentEdgeTree), each holding its own lane.
class SamplingExecutor {
 public:
  virtual ~SamplingExecutor() = default;

  /// Creates an independent per-node lane. `rng` roots the lane's random
  /// stream (the node's seed); `config` carries allocation policy and
  /// reservoir algorithm. Safe to call from multiple threads.
  [[nodiscard]] virtual std::unique_ptr<SamplingLane> create_lane(
      Rng rng, WHSampConfig config) = 0;

  [[nodiscard]] virtual std::size_t workers_per_lane() const noexcept = 0;

  /// Binds observability sinks for lanes created *after* this call: each
  /// new lane gets "{scope}/lane{k}" stats (dispatch/merge timing, item
  /// counts) and, when a tracer is given, its own trace track with
  /// executor-dispatch spans. Default: no instrumentation. Timing reads
  /// clocks only — lane RNG streams and sampling output are untouched, so
  /// binding never perturbs what gets sampled.
  virtual void bind_obs(obs::StatsRegistry* stats, obs::Tracer* tracer,
                        const std::string& scope) {
    (void)stats;
    (void)tracer;
    (void)scope;
  }
};

/// Lanes are plain WHSampler instances — the reference sequential path.
class SequentialSamplingExecutor final : public SamplingExecutor {
 public:
  [[nodiscard]] std::unique_ptr<SamplingLane> create_lane(
      Rng rng, WHSampConfig config) override;
  [[nodiscard]] std::size_t workers_per_lane() const noexcept override {
    return 1;
  }
};

/// Shared stateless instance used by nodes constructed without an
/// explicit executor handle.
[[nodiscard]] SamplingExecutor& sequential_executor() noexcept;

/// Persistent-pool executor: shards every lane's sub-streams across
/// `workers_per_lane` reservoir shards executed on a long-lived
/// runtime::ThreadPool. No std::thread is constructed after the executor
/// itself — the per-interval hot path is queue pushes only.
class PooledSamplingExecutor final : public SamplingExecutor {
 public:
  struct Options {
    /// Reservoir shards per sub-stream per lane (§III-E's w). 0 -> 1.
    std::size_t workers_per_lane{2};
    /// OS threads backing shard dispatch. 0 = auto: `workers_per_lane`
    /// threads when the hardware has more than one core, otherwise no
    /// pool at all (shards then run inline on the caller — identical
    /// samples, no pointless context switching on a single core).
    std::size_t pool_threads{0};
    std::uint64_t pool_seed{0x5eed5eedULL};
    /// Intervals smaller than this run inline even when a pool exists;
    /// dispatch overhead only pays off for meaty intervals. Performance
    /// knob only — inline and pooled execution produce identical output.
    std::size_t min_items_to_dispatch{8192};
  };

  explicit PooledSamplingExecutor(Options options);
  ~PooledSamplingExecutor() override;

  /// Canonical private-pool construction used by nodes and runtimes that
  /// derive the pool seed from their own: one place for the derivation,
  /// so call sites cannot drift apart.
  [[nodiscard]] static std::shared_ptr<PooledSamplingExecutor> for_seed(
      std::size_t workers, std::uint64_t seed);

  PooledSamplingExecutor(const PooledSamplingExecutor&) = delete;
  PooledSamplingExecutor& operator=(const PooledSamplingExecutor&) = delete;

  [[nodiscard]] std::unique_ptr<SamplingLane> create_lane(
      Rng rng, WHSampConfig config) override;
  [[nodiscard]] std::size_t workers_per_lane() const noexcept override {
    return options_.workers_per_lane;
  }
  /// False when shards always run inline (single-core auto mode).
  [[nodiscard]] bool has_pool() const noexcept { return pool_ != nullptr; }

  void bind_obs(obs::StatsRegistry* stats, obs::Tracer* tracer,
                const std::string& scope) override;

 private:
  Options options_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  obs::StatsRegistry* obs_stats_{nullptr};
  obs::Tracer* obs_tracer_{nullptr};
  std::string obs_scope_;
  std::atomic<std::size_t> lane_counter_{0};
};

}  // namespace approxiot::core
