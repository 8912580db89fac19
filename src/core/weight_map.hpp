// WeightMap: the per-sub-stream weight metadata that travels with sampled
// items between nodes (§III-A).
//
// A weight W_i answers "how many original items does one sampled item of
// sub-stream S_i stand for". Sources implicitly start at weight 1; each
// node that overflows its reservoir multiplies the weight by c_i / N_i
// (Eq. 2). The map also implements the paper's interval-splitting rule
// (Fig. 3): when items arrive in an interval with no accompanying weight,
// the *last known* weight for that sub-stream applies, so the map
// remembers weights across intervals.
//
// Storage is one vector of (id, weight) entries kept sorted by id. Maps
// hold one entry per sub-stream — a handful — and are built in ascending
// order almost everywhere (samplers walk the ascending stratum directory,
// decoders read ascending wire order), so set() is an append, get() a
// binary search over a cache line or two, and iteration, equality and
// printing walk the vector in the ascending order the wire format and
// every equivalence test depend on.
#pragma once

#include <cmath>
#include <cstddef>
#include <ostream>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace approxiot::core {

struct Stratum;

/// A weight every encoder can produce: finite and > 0. Decoders reject
/// anything else, since one such weight poisons every estimate in Θ.
[[nodiscard]] inline bool is_valid_weight(double weight) noexcept {
  return std::isfinite(weight) && weight > 0.0;
}

class WeightMap {
 public:
  using value_type = std::pair<SubStreamId, double>;
  using const_iterator = std::vector<value_type>::const_iterator;

  WeightMap() = default;

  /// Weight for `id`; sub-streams never seen default to 1 (the weight of
  /// raw source data, §III-C case i).
  [[nodiscard]] double get(SubStreamId id) const noexcept {
    const const_iterator it = find(id);
    return it == end() ? 1.0 : it->second;
  }

  [[nodiscard]] bool contains(SubStreamId id) const noexcept {
    return find(id) != end();
  }

  /// Weights for a whole stratum directory at once. `dir` is ascending
  /// by id (the StratifiedBatch invariant), so this merges it against the
  /// entries in a single linear pass — the samplers' per-interval block
  /// lookup. Writes dir.size() weights to `out`; absent ids get 1 (same
  /// default as get()).
  void get_for_strata(const std::vector<Stratum>& dir,
                      double* out) const noexcept;

  void set(SubStreamId id, double weight);

  /// Overwrites entries present in `other`, keeps the rest — the
  /// "remember the up-to-date weight" rule of Fig. 3. One merge of the
  /// two ascending runs; allocates only when `other` brings new ids
  /// beyond the current capacity.
  void update_from(const WeightMap& other);

  void reserve(std::size_t n) { entries_.reserve(n); }
  void clear() noexcept { entries_.clear(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Iterates (id, weight) pairs in ascending id order.
  [[nodiscard]] const_iterator begin() const noexcept {
    return entries_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }

  /// Identical (id, weight) entry sequences.
  friend bool operator==(const WeightMap& a, const WeightMap& b) noexcept {
    return a.entries_ == b.entries_;
  }

  friend std::ostream& operator<<(std::ostream& os, const WeightMap& m);

 private:
  /// The entry for `id`, or end().
  [[nodiscard]] const_iterator find(SubStreamId id) const noexcept;

  std::vector<value_type> entries_;  // ascending, unique ids
};

}  // namespace approxiot::core
