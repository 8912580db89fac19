// StratifiedBatch: the flat, arena-backed stratification of one interval.
//
// Algorithm 1 line 5 groups an interval's items by sub-stream. The seed
// implementation materialised that grouping as a
// std::map<SubStreamId, std::vector<Item>> — one node allocation per
// sub-stream plus per-item vector growth, rebuilt from scratch every
// interval. With Item a 24-byte POD the grouping is really just a
// permutation, so this class stores it as one contiguous arena of items
// plus a small directory of strata:
//
//     arena_:  [ S1 items ... | S3 items ... | S7 items ... ]
//     dir_:    { (S1, off=0, len), (S3, off, len), (S7, off, len) }
//
// The directory is ordered by ASCENDING sub-stream id. That order is
// load-bearing: it reproduces the std::map iteration order bit-for-bit,
// and every RNG-consuming loop in the samplers (split/jump per stratum)
// walks strata in this order — reordering it would change which random
// stream each sub-stream draws from. Items within a stratum keep their
// arrival order (the build is a stable counting sort), which the
// round-robin shard assignment in core/executor.cpp depends on.
//
// Building is two passes and zero node allocations: count per sub-stream
// into the directory, prefix-sum the offsets, then scatter items through
// per-stratum cursors. `assign()` reuses the arena and directory buffers,
// so a batch owned by a lane allocates nothing in steady state.
//
// The class also serves as the sample payload of SampledBundle, so it
// keeps a small map-like facade (begin/end yielding (id, span) pairs,
// at(), count(), operator[]) that lets the many existing consumers — and
// the equivalence tests that act as the referee for this refactor — read
// it exactly like the old map-of-vectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/kernels/kernels.hpp"

namespace approxiot::core {

class StratifiedBatch;

/// Reusable working state for StratifiedBatch::assign(): the dense
/// first-seen slot directory (ids + counts), the open-addressing
/// id -> slot index, each item's recorded slot, the id-sorted slot
/// order, and the per-slot scatter cursors. Long-lived producers (a
/// pipeline stage, a node) hold one of these and pass it to assign(),
/// so the batches they emit — which travel inside SampledBundle
/// payloads — stay pure data and carry no build buffers.
class StratifyScratch {
 public:
  StratifyScratch() = default;

 private:
  friend class StratifiedBatch;

  /// Dense slot for `id`, allocating the next one on first sight.
  [[nodiscard]] std::uint32_t slot_for(SubStreamId id);
  void reindex();

  std::vector<SubStreamId> slot_ids_;
  std::vector<std::size_t> slot_counts_;
  std::vector<std::uint32_t> slot_index_;
  std::vector<std::uint32_t> item_slots_;
  std::vector<std::uint32_t> sorted_slots_;
  std::vector<std::size_t> cursors_;
};

/// One sub-stream's slice of the arena.
struct Stratum {
  SubStreamId id{};
  std::size_t offset{0};
  std::size_t len{0};
};

/// Non-owning view of one stratum's contiguous items.
class ItemSpan {
 public:
  using value_type = Item;
  using const_iterator = const Item*;

  constexpr ItemSpan() noexcept = default;
  constexpr ItemSpan(const Item* data, std::size_t len) noexcept
      : data_(data), len_(len) {}

  [[nodiscard]] const Item* begin() const noexcept { return data_; }
  [[nodiscard]] const Item* end() const noexcept { return data_ + len_; }
  [[nodiscard]] const Item* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }
  [[nodiscard]] const Item& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] const Item& front() const noexcept { return data_[0]; }
  [[nodiscard]] const Item& back() const noexcept { return data_[len_ - 1]; }

  friend bool operator==(ItemSpan a, ItemSpan b) noexcept {
    if (a.len_ != b.len_) return false;
    for (std::size_t i = 0; i < a.len_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }
  friend bool operator==(ItemSpan a, const std::vector<Item>& b) noexcept {
    return a == ItemSpan(b.data(), b.size());
  }
  friend bool operator==(const std::vector<Item>& a, ItemSpan b) noexcept {
    return ItemSpan(a.data(), a.size()) == b;
  }

  [[nodiscard]] std::vector<Item> to_vector() const {
    return std::vector<Item>(begin(), end());
  }

 private:
  const Item* data_{nullptr};
  std::size_t len_{0};
};

class StratifiedBatch {
 public:
  StratifiedBatch() = default;

  // A batch's value is its arena + directory; the lazily created build
  // scratch is working state and intentionally NOT copied (a copied
  // payload must not drag ~4 bytes/item of scratch along). Moves carry
  // it, so a long-lived scratch batch keeps its buffers.
  StratifiedBatch(const StratifiedBatch& other)
      : arena_(other.arena_), dir_(other.dir_) {}
  StratifiedBatch& operator=(const StratifiedBatch& other) {
    if (this != &other) {
      arena_ = other.arena_;
      dir_ = other.dir_;
    }
    return *this;
  }
  StratifiedBatch(StratifiedBatch&&) = default;
  StratifiedBatch& operator=(StratifiedBatch&&) = default;

  // --- Flat access (the hot-path API) ------------------------------------

  /// All items, stratum by stratum in ascending id order.
  [[nodiscard]] const std::vector<Item>& items() const noexcept {
    return arena_;
  }
  /// The stratum directory, ascending by id, offsets contiguous.
  [[nodiscard]] const std::vector<Stratum>& strata() const noexcept {
    return dir_;
  }
  [[nodiscard]] ItemSpan span(const Stratum& s) const noexcept {
    return ItemSpan(arena_.data() + s.offset, s.len);
  }
  /// Total items across all strata — O(1), it is the arena size.
  [[nodiscard]] std::size_t item_count() const noexcept {
    return arena_.size();
  }

  // --- Building ----------------------------------------------------------

  void clear() noexcept {
    arena_.clear();
    dir_.clear();
  }

  void reserve_items(std::size_t n) { arena_.reserve(n); }
  void reserve_strata(std::size_t n) { dir_.reserve(n); }

  /// Rebuilds the batch as the stable stratification of `items` (two-pass
  /// counting build, see header comment) using the caller's reusable
  /// scratch. Arena, directory and scratch buffers are all reused;
  /// steady-state calls allocate nothing once capacity has grown.
  /// Dispatches the counting and scatter passes through the kernel layer
  /// (core/kernels) when a SIMD tier is active; the result is
  /// bit-identical to the retained scalar build either way.
  void assign(const Item* data, std::size_t n, StratifyScratch& scratch);
  void assign(const std::vector<Item>& items, StratifyScratch& scratch) {
    assign(items.data(), items.size(), scratch);
  }

  /// Convenience for batches that are themselves long-lived scratch (a
  /// lane's stratification arena, tests): uses an internal lazily
  /// created StratifyScratch, reused across calls.
  void assign(const Item* data, std::size_t n);
  void assign(const std::vector<Item>& items) {
    assign(items.data(), items.size());
  }

  /// Appends a stratum whose id must be strictly greater than every id
  /// already present (samplers emit strata in ascending order). An empty
  /// stratum (n == 0) is recorded in the directory with len 0.
  void append_stratum(SubStreamId id, const Item* data, std::size_t n);
  void append_stratum(SubStreamId id, const std::vector<Item>& items) {
    append_stratum(id, items.data(), items.size());
  }

  /// Moves the arena out (items in stratum order — exactly the old
  /// map-of-vectors concatenation) and clears the batch. This is what
  /// makes SampledBundle::to_bundle() && a move instead of an O(n) copy.
  [[nodiscard]] std::vector<Item> release_items() {
    std::vector<Item> out = std::move(arena_);
    arena_.clear();
    dir_.clear();
    return out;
  }

  // --- Map-compatible facade ---------------------------------------------
  // Reads exactly like the old std::map<SubStreamId, std::vector<Item>>:
  // size() counts strata, iteration yields (id, span) pairs ascending.

  [[nodiscard]] std::size_t size() const noexcept { return dir_.size(); }
  [[nodiscard]] bool empty() const noexcept { return dir_.empty(); }
  [[nodiscard]] std::size_t count(SubStreamId id) const noexcept {
    return find_index(id) != npos ? 1 : 0;
  }
  /// Span for `id`; throws std::out_of_range when absent (map::at).
  [[nodiscard]] ItemSpan at(SubStreamId id) const;

  class const_iterator {
   public:
    using value_type = std::pair<SubStreamId, ItemSpan>;
    using reference = value_type;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::input_iterator_tag;
    using pointer = void;

    const_iterator() = default;
    const_iterator(const StratifiedBatch* batch, std::size_t index) noexcept
        : batch_(batch), index_(index) {}

    [[nodiscard]] value_type operator*() const noexcept {
      const Stratum& s = batch_->dir_[index_];
      return {s.id, batch_->span(s)};
    }

    struct ArrowProxy {
      value_type pair;
      const value_type* operator->() const noexcept { return &pair; }
    };
    [[nodiscard]] ArrowProxy operator->() const noexcept {
      return ArrowProxy{**this};
    }

    const_iterator& operator++() noexcept {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    friend bool operator==(const_iterator a, const_iterator b) noexcept {
      return a.batch_ == b.batch_ && a.index_ == b.index_;
    }
    friend bool operator!=(const_iterator a, const_iterator b) noexcept {
      return !(a == b);
    }

   private:
    const StratifiedBatch* batch_{nullptr};
    std::size_t index_{0};
  };

  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(this, dir_.size());
  }

  /// Mutable handle for one stratum, created on demand — the slow,
  /// convenience path (middle insertion shifts later strata). The bulk
  /// builders above are what the samplers use.
  class StratumRef {
   public:
    StratumRef(StratifiedBatch* batch, std::size_t index) noexcept
        : batch_(batch), index_(index) {}

    void push_back(const Item& item) { batch_->push_into(index_, item); }

    StratumRef& operator=(std::initializer_list<Item> items) {
      batch_->replace_stratum(index_, items.begin(), items.size());
      return *this;
    }
    StratumRef& operator=(const std::vector<Item>& items) {
      batch_->replace_stratum(index_, items.data(), items.size());
      return *this;
    }

    [[nodiscard]] std::size_t size() const noexcept {
      return batch_->dir_[index_].len;
    }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }

   private:
    StratifiedBatch* batch_;
    std::size_t index_;
  };

  /// Finds or inserts the stratum for `id` (inserting keeps the directory
  /// sorted and the arena layout dense).
  [[nodiscard]] StratumRef operator[](SubStreamId id);

  friend bool operator==(const StratifiedBatch& a, const StratifiedBatch& b) {
    if (a.dir_.size() != b.dir_.size()) return false;
    for (std::size_t i = 0; i < a.dir_.size(); ++i) {
      if (a.dir_[i].id != b.dir_[i].id ||
          !(a.span(a.dir_[i]) == b.span(b.dir_[i]))) {
        return false;
      }
    }
    return true;
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The verbatim scalar counting build (the kernel oracle) and the
  /// kernel-dispatched build; assign() picks by active tier.
  void assign_scalar(const Item* data, std::size_t n,
                     StratifyScratch& scratch);
  void assign_kernel(const Item* data, std::size_t n,
                     StratifyScratch& scratch, kernels::Tier tier);

  [[nodiscard]] std::size_t find_index(SubStreamId id) const noexcept;
  [[nodiscard]] std::size_t find_or_insert(SubStreamId id);
  void push_into(std::size_t index, const Item& item);
  void replace_stratum(std::size_t index, const Item* data, std::size_t n);

  std::vector<Item> arena_;
  std::vector<Stratum> dir_;
  /// Backing for the scratch-less assign() overload; null until used.
  std::unique_ptr<StratifyScratch> own_scratch_;
};

}  // namespace approxiot::core
