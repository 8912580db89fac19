#include "sampling/allocation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "common/rng.hpp"

namespace approxiot::sampling {
namespace {

std::vector<SubStreamInfo> make_streams(
    std::initializer_list<std::uint64_t> counts) {
  std::vector<SubStreamInfo> out;
  std::uint64_t id = 1;
  for (std::uint64_t c : counts) {
    out.push_back(SubStreamInfo{approxiot::SubStreamId{id++}, c, 0.0});
  }
  return out;
}

std::vector<std::size_t> allocate(AllocationPolicy& policy,
                                  std::size_t budget,
                                  const std::vector<SubStreamInfo>& streams) {
  std::vector<std::size_t> sizes;
  policy.allocate(budget, streams, sizes);
  return sizes;
}

std::size_t total(const std::vector<std::size_t>& sizes) {
  return std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
}

TEST(EqualAllocationTest, SplitsEvenly) {
  EqualAllocation policy;
  const auto sizes = allocate(policy, 100, make_streams({10, 10, 10, 10}));
  ASSERT_EQ(sizes.size(), 4u);
  for (std::size_t i = 0; i < sizes.size(); ++i) EXPECT_EQ(sizes[i], 25u) << i;
}

TEST(EqualAllocationTest, RemainderDistributedTotalExact) {
  EqualAllocation policy;
  const auto sizes = allocate(policy, 10, make_streams({5, 5, 5}));
  EXPECT_EQ(total(sizes), 10u);
  for (const std::size_t n : sizes) {
    EXPECT_GE(n, 3u);
    EXPECT_LE(n, 4u);
  }
}

TEST(EqualAllocationTest, EveryStreamGetsAtLeastOneWhenBudgetAllows) {
  EqualAllocation policy;
  // Highly imbalanced counts must not matter for the equal policy.
  const auto sizes = allocate(policy, 8, make_streams({1000000, 1, 1, 1}));
  for (const std::size_t n : sizes) EXPECT_GE(n, 1u);
  EXPECT_EQ(total(sizes), 8u);
}

TEST(EqualAllocationTest, DegenerateBudgetBelowStreamCount) {
  EqualAllocation policy;
  const auto sizes = allocate(policy, 2, make_streams({10, 10, 10, 10}));
  EXPECT_EQ(total(sizes), 2u);
  // Slots go to the lowest ids, deterministically.
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 0, 0}));
}

TEST(EqualAllocationTest, ZeroBudgetGivesAllZeros) {
  EqualAllocation policy;
  const auto sizes = allocate(policy, 0, make_streams({5, 5}));
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(total(sizes), 0u);
}

TEST(EqualAllocationTest, EmptyStreamsGiveEmptySizes) {
  EqualAllocation policy;
  std::vector<std::size_t> sizes{7, 7};
  policy.allocate(100, {}, sizes);
  EXPECT_TRUE(sizes.empty());
}

TEST(ProportionalAllocationTest, FollowsCounts) {
  ProportionalAllocation policy;
  const auto sizes = allocate(policy, 103, make_streams({300, 100, 100}));
  EXPECT_EQ(total(sizes), 103u);
  // 100 spare after the 3 guaranteed slots: 60/20/20.
  EXPECT_EQ(sizes, (std::vector<std::size_t>{61, 21, 21}));
}

TEST(ProportionalAllocationTest, RareStreamStillGuaranteedOne) {
  ProportionalAllocation policy;
  const auto sizes = allocate(policy, 100, make_streams({1000000, 1}));
  EXPECT_GE(sizes[1], 1u);
  EXPECT_EQ(total(sizes), 100u);
}

TEST(NeymanAllocationTest, HigherVarianceGetsMoreSlots) {
  NeymanAllocation policy;
  std::vector<SubStreamInfo> streams = {
      {approxiot::SubStreamId{1}, 100, 1.0},
      {approxiot::SubStreamId{2}, 100, 10.0},
  };
  const auto sizes = allocate(policy, 110, streams);
  EXPECT_EQ(total(sizes), 110u);
  EXPECT_GT(sizes[1], sizes[0]);
}

TEST(NeymanAllocationTest, ZeroStddevDegradesGracefully) {
  NeymanAllocation policy;
  std::vector<SubStreamInfo> streams = {
      {approxiot::SubStreamId{1}, 100, 0.0},
      {approxiot::SubStreamId{2}, 100, 0.0},
  };
  const auto sizes = allocate(policy, 10, streams);
  EXPECT_EQ(total(sizes), 10u);
  EXPECT_EQ(sizes[0], 5u);
}

TEST(AllocationFactoryTest, KnownNames) {
  EXPECT_EQ(make_allocation_policy("equal")->name(), "equal");
  EXPECT_EQ(make_allocation_policy("proportional")->name(), "proportional");
  EXPECT_EQ(make_allocation_policy("neyman")->name(), "neyman");
  EXPECT_THROW(make_allocation_policy("bogus"), std::invalid_argument);
}

// Property sweep: for any budget and stream mix, totals never exceed the
// budget and match it exactly when budget >= #streams.
class AllocationPropertyTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllocationPropertyTest, TotalsExactAndFair) {
  const std::size_t budget = GetParam();
  const auto streams = make_streams({1, 10, 100, 1000, 10000});
  for (const char* name : {"equal", "proportional", "neyman"}) {
    const auto sizes = allocate(*make_allocation_policy(name), budget, streams);
    EXPECT_EQ(total(sizes), budget) << name;
    if (budget >= streams.size()) {
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_GE(sizes[i], 1u) << name << " starved sub-stream " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, AllocationPropertyTest,
                         ::testing::Values(0, 1, 3, 5, 6, 17, 100, 12345));

// The allocator as it was when it returned a map keyed by sub-stream id:
// the largest-remainder split every policy shares, kept here verbatim as
// the oracle for the flat, position-indexed output.
std::map<SubStreamId, std::size_t> map_split(
    std::size_t total_budget, const std::vector<SubStreamInfo>& streams,
    const std::vector<double>& scores) {
  std::map<SubStreamId, std::size_t> out;
  if (streams.empty()) return out;

  const std::size_t k = streams.size();
  if (total_budget <= k) {
    std::vector<std::size_t> order(k);
    for (std::size_t i = 0; i < k; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return streams[a].id < streams[b].id;
    });
    for (std::size_t i = 0; i < k; ++i) {
      out[streams[order[i]].id] = i < total_budget ? 1 : 0;
    }
    return out;
  }

  double score_sum = 0.0;
  for (double s : scores) score_sum += s;

  const std::size_t spare = total_budget - k;
  std::vector<double> fractional(k, 0.0);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double share =
        score_sum > 0.0
            ? static_cast<double>(spare) * (scores[i] / score_sum)
            : static_cast<double>(spare) / static_cast<double>(k);
    const auto whole = static_cast<std::size_t>(share);
    out[streams[i].id] = 1 + whole;
    fractional[i] = share - static_cast<double>(whole);
    assigned += 1 + whole;
  }

  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (fractional[a] != fractional[b]) return fractional[a] > fractional[b];
    return streams[a].id < streams[b].id;
  });
  for (std::size_t i = 0; assigned < total_budget && i < k; ++i, ++assigned) {
    ++out[streams[order[i]].id];
  }
  return out;
}

std::vector<double> reference_scores(const std::string& policy,
                                     const std::vector<SubStreamInfo>& s) {
  std::vector<double> scores;
  for (const SubStreamInfo& info : s) {
    if (policy == "equal") {
      scores.push_back(1.0);
    } else if (policy == "proportional") {
      scores.push_back(static_cast<double>(info.count));
    } else {
      scores.push_back(static_cast<double>(info.count) *
                       std::max(info.value_stddev, 1e-12));
    }
  }
  return scores;
}

// ~1,000 seeded inputs: budgets at, below and far above the stream
// count, all-zero and tied scores, ids in arbitrary order. One policy
// instance per name serves every input, so the reused scratch is
// exercised across calls of different shapes.
TEST(AllocationOracleTest, FlatOutputMatchesMapOracle) {
  Rng rng(20181018);
  for (const std::string name : {"equal", "proportional", "neyman"}) {
    const auto policy = make_allocation_policy(name);
    std::vector<std::size_t> sizes;
    for (int trial = 0; trial < 1000; ++trial) {
      const std::size_t k = rng.next_below(13);
      std::vector<SubStreamInfo> streams;
      const std::uint64_t id_span = 1 + rng.next_below(64);
      for (std::uint64_t id = 1; streams.size() < k; ++id) {
        if (rng.next_below(id_span) > 1) continue;
        streams.push_back(SubStreamInfo{SubStreamId{id}, 0, 0.0});
      }
      std::shuffle(streams.begin(), streams.end(), rng);
      const std::uint64_t count_mode = rng.next_below(4);
      for (SubStreamInfo& s : streams) {
        // 0: all counts zero; 1: all tied; 2-3: spread, zeros included.
        s.count = count_mode == 0   ? 0
                  : count_mode == 1 ? 50
                                    : rng.next_below(2000);
        s.value_stddev = rng.next_below(3) == 0 ? 0.0 : rng.next_double() * 9;
      }
      const std::size_t budget =
          rng.next_below(2) == 0 ? rng.next_below(k + 2)
                                 : rng.next_below(40 * (k + 1));

      policy->allocate(budget, streams, sizes);
      const auto oracle =
          map_split(budget, streams, reference_scores(name, streams));
      ASSERT_EQ(sizes.size(), streams.size()) << name << " trial " << trial;
      for (std::size_t i = 0; i < streams.size(); ++i) {
        ASSERT_EQ(sizes[i], oracle.at(streams[i].id))
            << name << " trial " << trial << " position " << i;
      }
    }
  }
}

}  // namespace
}  // namespace approxiot::sampling
