#include "core/weight_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "common/rng.hpp"

namespace approxiot::core {
namespace {

TEST(WeightMapTest, UnknownSubStreamDefaultsToOne) {
  WeightMap m;
  EXPECT_DOUBLE_EQ(m.get(SubStreamId{7}), 1.0);
  EXPECT_FALSE(m.contains(SubStreamId{7}));
}

TEST(WeightMapTest, SetAndGet) {
  WeightMap m;
  m.set(SubStreamId{1}, 1.5);
  EXPECT_TRUE(m.contains(SubStreamId{1}));
  EXPECT_DOUBLE_EQ(m.get(SubStreamId{1}), 1.5);
  m.set(SubStreamId{1}, 3.0);
  EXPECT_DOUBLE_EQ(m.get(SubStreamId{1}), 3.0);
}

TEST(WeightMapTest, UpdateFromOverwritesOnlyPresentEntries) {
  WeightMap base;
  base.set(SubStreamId{1}, 2.0);
  base.set(SubStreamId{2}, 5.0);

  WeightMap incoming;
  incoming.set(SubStreamId{1}, 4.0);
  incoming.set(SubStreamId{3}, 9.0);

  base.update_from(incoming);
  EXPECT_DOUBLE_EQ(base.get(SubStreamId{1}), 4.0);  // overwritten
  EXPECT_DOUBLE_EQ(base.get(SubStreamId{2}), 5.0);  // kept
  EXPECT_DOUBLE_EQ(base.get(SubStreamId{3}), 9.0);  // added
  EXPECT_EQ(base.size(), 3u);
}

TEST(WeightMapTest, ClearAndEmpty) {
  WeightMap m;
  EXPECT_TRUE(m.empty());
  m.set(SubStreamId{1}, 2.0);
  EXPECT_FALSE(m.empty());
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_DOUBLE_EQ(m.get(SubStreamId{1}), 1.0);
}

TEST(WeightMapTest, EqualityAndIteration) {
  WeightMap a, b;
  a.set(SubStreamId{1}, 2.0);
  b.set(SubStreamId{1}, 2.0);
  EXPECT_TRUE(a == b);
  b.set(SubStreamId{2}, 3.0);
  EXPECT_FALSE(a == b);

  std::size_t n = 0;
  for (const auto& [id, w] : b) {
    EXPECT_GT(w, 0.0);
    EXPECT_GT(id.value(), 0u);
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

// The sorted-vector storage must be behaviourally indistinguishable from
// the std::map it replaced: same lookups, same deterministic ascending
// iteration, same equality — regardless of insertion order, overwrites,
// or growth.
TEST(WeightMapTest, PropertyMatchesStdMapUnderRandomOperations) {
  Rng rng(0xbeef);
  for (int round = 0; round < 20; ++round) {
    WeightMap flat;
    std::map<SubStreamId, double> reference;

    const int ops = 1 + static_cast<int>(rng.next_below(400));
    for (int op = 0; op < ops; ++op) {
      // Id range big enough to collide probes, small enough to overwrite.
      const SubStreamId id{rng.next_below(1u << 20)};
      if (rng.next_below(4) == 0 && !reference.empty()) {
        // Lookup of a (maybe) present id.
        EXPECT_EQ(flat.contains(id), reference.count(id) > 0);
        auto it = reference.find(id);
        EXPECT_DOUBLE_EQ(flat.get(id),
                         it == reference.end() ? 1.0 : it->second);
      } else {
        const double w = rng.next_double() * 10.0;
        flat.set(id, w);
        reference[id] = w;
      }
    }

    ASSERT_EQ(flat.size(), reference.size()) << "round " << round;
    // Iteration: ascending by id, exact (id, weight) sequence.
    auto ref_it = reference.begin();
    for (const auto& [id, w] : flat) {
      ASSERT_EQ(id, ref_it->first) << "round " << round;
      ASSERT_DOUBLE_EQ(w, ref_it->second);
      ++ref_it;
    }
    EXPECT_EQ(ref_it, reference.end());
  }
}

TEST(WeightMapTest, IterationDeterministicAcrossInsertionOrders) {
  // Same entries inserted in different orders -> identical maps,
  // identical iteration, identical printing.
  std::vector<std::pair<SubStreamId, double>> entries;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    entries.emplace_back(SubStreamId{rng.next_below(1u << 30)},
                         rng.next_double());
  }

  WeightMap forward, backward, shuffled;
  for (const auto& [id, w] : entries) forward.set(id, w);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    backward.set(it->first, it->second);
  }
  std::shuffle(entries.begin(), entries.end(), rng);
  for (const auto& [id, w] : entries) shuffled.set(id, w);

  EXPECT_TRUE(forward == backward);
  EXPECT_TRUE(forward == shuffled);
  std::ostringstream a, b;
  a << forward;
  b << shuffled;
  EXPECT_EQ(a.str(), b.str());

  SubStreamId prev{0};
  bool first = true;
  for (const auto& [id, w] : forward) {
    (void)w;
    if (!first) {
      EXPECT_TRUE(prev < id);
    }
    prev = id;
    first = false;
  }
}

TEST(WeightMapTest, GrowthPreservesEntries) {
  // Thousands of entries: every one survives the storage's regrowth.
  WeightMap m;
  for (std::uint64_t i = 1; i <= 5000; ++i) {
    m.set(SubStreamId{i * 7919}, static_cast<double>(i));
  }
  EXPECT_EQ(m.size(), 5000u);
  for (std::uint64_t i = 1; i <= 5000; ++i) {
    ASSERT_TRUE(m.contains(SubStreamId{i * 7919})) << i;
    ASSERT_DOUBLE_EQ(m.get(SubStreamId{i * 7919}), static_cast<double>(i));
  }
}

// update_from merges two ascending runs in place; against std::map's
// insert-or-assign it must agree for every overlap pattern: disjoint,
// nested, interleaved, identical, and either side empty.
TEST(WeightMapTest, UpdateFromMatchesStdMapUnderRandomMaps) {
  Rng rng(0x5eed);
  for (int round = 0; round < 500; ++round) {
    WeightMap base, incoming;
    std::map<SubStreamId, double> reference;
    const std::uint64_t span = 1 + rng.next_below(64);
    const std::size_t n_base = rng.next_below(24);
    const std::size_t n_incoming = rng.next_below(24);
    for (std::size_t k = 0; k < n_base; ++k) {
      const SubStreamId id{rng.next_below(span)};
      const double w = 1.0 + rng.next_double();
      base.set(id, w);
      reference[id] = w;
    }
    const std::uint64_t offset = rng.next_below(2) == 0 ? 0 : span / 2;
    for (std::size_t k = 0; k < n_incoming; ++k) {
      incoming.set(SubStreamId{offset + rng.next_below(span)},
                   2.0 + rng.next_double());
    }
    for (const auto& [id, w] : incoming) reference[id] = w;

    base.update_from(incoming);
    ASSERT_EQ(base.size(), reference.size()) << "round " << round;
    auto ref_it = reference.begin();
    for (const auto& [id, w] : base) {
      ASSERT_EQ(id, ref_it->first) << "round " << round;
      ASSERT_EQ(w, ref_it->second) << "round " << round;
      ++ref_it;
    }

    const WeightMap before = base;
    base.update_from(base);  // self-update changes nothing
    EXPECT_TRUE(base == before);
  }
}

TEST(WeightMapTest, StreamOutput) {
  WeightMap m;
  m.set(SubStreamId{1}, 1.5);
  std::ostringstream os;
  os << m;
  EXPECT_EQ(os.str(), "{S1: 1.5}");
}

}  // namespace
}  // namespace approxiot::core
