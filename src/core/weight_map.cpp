#include "core/weight_map.hpp"

#include <algorithm>

#include "core/stratified.hpp"

namespace approxiot::core {

namespace {

bool id_less(const WeightMap::value_type& entry, SubStreamId id) noexcept {
  return entry.first < id;
}

}  // namespace

WeightMap::const_iterator WeightMap::find(SubStreamId id) const noexcept {
  const auto it = std::lower_bound(begin(), end(), id, id_less);
  return it != end() && it->first == id ? it : end();
}

void WeightMap::get_for_strata(const std::vector<Stratum>& dir,
                               double* out) const noexcept {
  // Two-pointer merge: both sequences ascend, so each entry is visited at
  // most once across the whole directory.
  auto it = begin();
  for (std::size_t k = 0; k < dir.size(); ++k) {
    const SubStreamId id = dir[k].id;
    while (it != end() && it->first < id) ++it;
    out[k] = it != end() && it->first == id ? it->second : 1.0;
  }
}

void WeightMap::set(SubStreamId id, double weight) {
  // Ascending writers (samplers, decoders) always take the append.
  if (entries_.empty() || entries_.back().first < id) {
    entries_.emplace_back(id, weight);
    return;
  }
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), id, id_less);
  if (it->first == id) {
    it->second = weight;
  } else {
    entries_.emplace(it, id, weight);
  }
}

void WeightMap::update_from(const WeightMap& other) {
  // Forward pass: overwrite the ids both maps hold, count the ones only
  // `other` has. Steady-state callers see the same sub-streams every
  // interval and stop here.
  std::size_t added = 0;
  auto mine = entries_.begin();
  for (const value_type& theirs : other.entries_) {
    mine = std::lower_bound(mine, entries_.end(), theirs.first, id_less);
    if (mine != entries_.end() && mine->first == theirs.first) {
      mine->second = theirs.second;
    } else {
      ++added;
    }
  }
  if (added == 0) return;

  // Backward pass: grow once and merge both ascending runs from the top,
  // so every entry moves at most once. The write cursor stays ahead of
  // the unread entries; when `other` runs out, the rest are in place.
  std::size_t i = entries_.size();
  entries_.resize(i + added);
  std::size_t out = entries_.size();
  for (std::size_t j = other.entries_.size(); j > 0;) {
    const value_type& theirs = other.entries_[j - 1];
    if (i > 0 && theirs.first <= entries_[i - 1].first) {
      if (theirs.first == entries_[i - 1].first) --j;  // already updated
      entries_[--out] = entries_[--i];
    } else {
      entries_[--out] = theirs;
      --j;
    }
  }
}

std::ostream& operator<<(std::ostream& os, const WeightMap& m) {
  os << "{";
  bool first = true;
  for (const auto& [id, w] : m) {
    if (!first) os << ", ";
    os << "S" << id << ": " << w;
    first = false;
  }
  return os << "}";
}

}  // namespace approxiot::core
