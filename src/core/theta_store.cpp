#include "core/theta_store.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace approxiot::core {

const std::vector<WeightedSample> ThetaStore::kEmpty{};

void ThetaStore::add(const SampledBundle& bundle) {
  bool any = false;
  for (const Stratum& s : bundle.sample.strata()) {
    if (s.len == 0) continue;
    const ItemSpan items = bundle.sample.span(s);
    WeightedSample pair;
    pair.weight = bundle.w_out.get(s.id);
    pair.items.assign(items.begin(), items.end());
    pairs_[s.id].push_back(std::move(pair));
    any = true;
  }
  if (any) note_epoch(bundle.policy_epoch);
}

void ThetaStore::add_pair(SubStreamId id, WeightedSample pair,
                          std::uint64_t policy_epoch) {
  if (pair.items.empty()) return;
  pairs_[id].push_back(std::move(pair));
  note_epoch(policy_epoch);
}

void ThetaStore::merge(ThetaStore&& delta) {
  for (auto& [id, pairs] : delta.pairs_) {
    if (pairs.empty()) continue;
    std::vector<WeightedSample>& target = pairs_[id];
    if (target.empty() && target.capacity() < pairs.size()) {
      target.swap(pairs);  // the cold buffer leaves with delta
    } else {
      target.insert(target.end(), std::make_move_iterator(pairs.begin()),
                    std::make_move_iterator(pairs.end()));
    }
  }
  if (delta.epoch_seen_) {
    note_epoch(delta.epoch_min_);
    note_epoch(delta.epoch_max_);
  }
  delta.reset();
}

void ThetaStore::clear() noexcept {
  for (auto it = pairs_.begin(); it != pairs_.end();) {
    it = it->second.empty() ? pairs_.erase(it) : std::next(it);
  }
  reset();
}

void ThetaStore::reset() noexcept {
  for (auto& [id, pairs] : pairs_) pairs.clear();
  epoch_min_ = 0;
  epoch_max_ = 0;
  epoch_seen_ = false;
}

bool ThetaStore::empty() const noexcept {
  return std::all_of(pairs_.begin(), pairs_.end(),
                     [](const auto& entry) { return entry.second.empty(); });
}

void ThetaStore::note_epoch(std::uint64_t epoch) noexcept {
  if (!epoch_seen_) {
    epoch_min_ = epoch;
    epoch_max_ = epoch;
    epoch_seen_ = true;
    return;
  }
  if (epoch < epoch_min_) epoch_min_ = epoch;
  if (epoch > epoch_max_) epoch_max_ = epoch;
}

std::vector<SubStreamId> ThetaStore::sub_streams() const {
  std::vector<SubStreamId> out;
  out.reserve(pairs_.size());
  for (const auto& [id, pairs] : pairs_) {
    if (!pairs.empty()) out.push_back(id);
  }
  return out;
}

const std::vector<WeightedSample>& ThetaStore::pairs(SubStreamId id) const {
  auto it = pairs_.find(id);
  return it == pairs_.end() ? kEmpty : it->second;
}

std::uint64_t ThetaStore::sampled_count(SubStreamId id) const {
  std::uint64_t n = 0;
  for (const auto& pair : pairs(id)) n += pair.items.size();
  return n;
}

double ThetaStore::estimated_original_count(SubStreamId id) const {
  double c = 0.0;
  for (const auto& pair : pairs(id)) {
    c += static_cast<double>(pair.items.size()) * pair.weight;
  }
  return c;
}

std::uint64_t ThetaStore::total_sampled() const {
  std::uint64_t n = 0;
  for (const auto& [id, _] : pairs_) n += sampled_count(id);
  return n;
}

}  // namespace approxiot::core
