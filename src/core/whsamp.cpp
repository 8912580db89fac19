#include "core/whsamp.hpp"

#include <algorithm>
#include <utility>

namespace approxiot::core {

std::map<SubStreamId, std::vector<Item>> stratify(
    const std::vector<Item>& items) {
  std::map<SubStreamId, std::vector<Item>> strata;
  for (const Item& item : items) {
    strata[item.source].push_back(item);
  }
  return strata;
}

WHSampler::WHSampler(Rng rng, WHSampConfig config)
    : rng_(rng), config_(std::move(config)),
      policy_(sampling::make_allocation_policy(config_.allocation_policy)),
      reservoir_(0, Rng{}, config_.reservoir_algorithm) {}

SampledBundle WHSampler::sample(const std::vector<Item>& items,
                                std::size_t sample_size,
                                const WeightMap& w_in) {
  if (items.empty()) return SampledBundle{};
  // Line 5: stratify into sub-streams (flat counting build, buffers
  // reused across calls).
  scratch_.assign(items);
  return sample_strata(scratch_, sample_size, w_in);
}

SampledBundle WHSampler::sample_strata(const StratifiedBatch& strata,
                                       std::size_t sample_size,
                                       const WeightMap& w_in) {
  SampledBundle out;
  if (strata.item_count() == 0) return out;

  // Line 7: decide each sub-stream's reservoir size N_i. The infos also
  // carry the resolved W^in_i so the merge loop below does not re-query
  // the weight map per stratum. W^in resolves for the whole ascending
  // directory in one merge pass rather than a hash probe per stratum.
  const auto& strata_dir = strata.strata();
  weights_scratch_.resize(strata_dir.size());
  w_in.get_for_strata(strata_dir, weights_scratch_.data());
  infos_.clear();
  infos_.reserve(strata.size());
  for (std::size_t k = 0; k < strata_dir.size(); ++k) {
    const Stratum& s = strata_dir[k];
    infos_.push_back(
        sampling::SubStreamInfo{s.id, s.len, 0.0, weights_scratch_[k]});
  }
  policy_->allocate(sample_size, infos_, sizes_);

  // Lines 8-19: reservoir-sample each sub-stream from its arena span and
  // update its weight. Strata are visited in ascending id order — the
  // same order the legacy map iteration used, so the RNG stream each
  // sub-stream draws from is unchanged.
  //
  // Per-stratum streams walk one jump chain from the sampler state s:
  // stratum k draws from J^(k+2)(s) and the sampler ends the call at
  // J^n(s) for n strata — n + 1 jumps per call.
  const Item* arena = strata.items().data();
  out.sample.reserve_items(std::min(sample_size, strata.item_count()));
  out.sample.reserve_strata(strata_dir.size());
  out.w_out.reserve(strata_dir.size());
  Rng stream = rng_;
  stream.jump();
  for (std::size_t k = 0; k < strata_dir.size(); ++k) {
    const Stratum& s = strata_dir[k];
    const std::uint64_t c_i = s.len;
    const std::size_t n_i = sizes_[k];

    rng_ = stream;  // J^(k+1)(s)
    stream.jump();  // J^(k+2)(s): this stratum's stream
    // Rearm instead of reconstruct: same capacity/RNG/counters as a
    // fresh reservoir, but the heap buffer survives.
    reservoir_.rearm(n_i, stream);
    reservoir_.offer_span(arena + s.offset, s.len);

    const double w_in_i = infos_[k].weight;
    if (c_i > n_i) {
      // Overflow: each kept item stands for c_i / N_i originals (Eq. 1-2).
      // A zero reservoir keeps nothing, so its weight never reaches Θ; we
      // still record it (weight unchanged) for observability.
      const double w_i = n_i > 0 ? static_cast<double>(c_i) /
                                       static_cast<double>(n_i)
                                 : 1.0;
      out.w_out.set(s.id, w_in_i * w_i);
    } else {
      out.w_out.set(s.id, w_in_i);
    }
    out.sample.append_stratum(s.id, reservoir_.contents());
  }
  return out;
}

}  // namespace approxiot::core
