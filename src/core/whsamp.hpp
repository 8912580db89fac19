// Weighted hierarchical sampling — Algorithm 1 of the paper.
//
// WHSamp(items, sampleSize, W^in):
//   1. stratify `items` into sub-streams by source;
//   2. split `sampleSize` across the sub-streams (allocation policy —
//      the paper's getSampleSize);
//   3. reservoir-sample each sub-stream S_i to at most N_i items;
//   4. update weights:  w_i = c_i / N_i         if c_i > N_i   (Eq. 1)
//                       W^out_i = W^in_i * w_i   if c_i > N_i   (Eq. 2)
//                       W^out_i = W^in_i         otherwise.
//
// The sampler is semantically stateless between calls except for its RNG;
// the node layer owns the cross-interval weight memory (Fig. 3 rule). It
// does keep reusable buffers (the stratification arena and the reservoir)
// so steady-state intervals run without item-sized allocations — pure
// performance state, invisible to the output.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/batch.hpp"
#include "core/stratified.hpp"
#include "sampling/allocation.hpp"
#include "sampling/reservoir.hpp"

namespace approxiot::core {

struct WHSampConfig {
  sampling::ReservoirAlgorithm reservoir_algorithm{
      sampling::ReservoirAlgorithm::kAlgorithmR};
  /// Allocation policy name (see sampling::make_allocation_policy).
  std::string allocation_policy{"equal"};
};

class WHSampler {
 public:
  explicit WHSampler(Rng rng = Rng{}, WHSampConfig config = {});

  /// One invocation of Algorithm 1 on a (W^in, items) pair. `sample_size`
  /// is the node's per-call reservoir budget N. Returns (W^out, sample);
  /// W^out carries entries only for sub-streams present in `items`.
  /// Stratifies into an internal scratch batch, then runs the span path.
  [[nodiscard]] SampledBundle sample(const std::vector<Item>& items,
                                     std::size_t sample_size,
                                     const WeightMap& w_in);

  /// Span-based hot path: samples pre-stratified input directly from the
  /// batch arena — no per-stratum item copies. Callers that already hold
  /// a StratifiedBatch (the node layer) use this entry point. With the
  /// sampler's RNG at state s and n strata, stratum k (ascending id)
  /// draws from s jumped k + 2 times and the sampler leaves at s jumped
  /// n times.
  [[nodiscard]] SampledBundle sample_strata(const StratifiedBatch& strata,
                                            std::size_t sample_size,
                                            const WeightMap& w_in);

  [[nodiscard]] const WHSampConfig& config() const noexcept { return config_; }

  /// The sampler's only cross-call state is its RNG (the reservoir and
  /// scratch arenas are rearmed every call); exposing it is all a
  /// checkpoint needs to resume the exact draw sequence.
  [[nodiscard]] Rng::State rng_state() const noexcept {
    return rng_.save_state();
  }
  void set_rng_state(const Rng::State& state) noexcept {
    rng_.restore_state(state);
  }

 private:
  Rng rng_;
  WHSampConfig config_;
  std::unique_ptr<sampling::AllocationPolicy> policy_;
  /// Rearmed per stratum; its heap buffer persists across strata and
  /// intervals (rearm keeps capacity).
  sampling::ReservoirSampler<Item> reservoir_;
  /// Reused stratification arena for the vector entry point.
  StratifiedBatch scratch_;
  std::vector<sampling::SubStreamInfo> infos_;
  /// Per-interval N_i, indexed like the stratum directory.
  std::vector<std::size_t> sizes_;
  /// Per-interval W^in_i, resolved in one get_for_strata() block pass.
  std::vector<double> weights_scratch_;
};

/// Stratifies a flat item vector by source id (Algorithm 1 line 5) into a
/// map of vectors. This is the LEGACY node-based representation, kept as
/// the reference for the StratifiedBatch bit-identity tests and the
/// bench_hotpath comparison mode; the samplers themselves stratify into a
/// flat StratifiedBatch (same order, same contents, no node allocations).
[[nodiscard]] std::map<SubStreamId, std::vector<Item>> stratify(
    const std::vector<Item>& items);

}  // namespace approxiot::core
