#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/error.hpp"
#include "core/estimators.hpp"
#include "core/theta_store.hpp"

namespace approxiot::core {
namespace {

WeightedSample pair_of(double weight, std::initializer_list<double> values) {
  WeightedSample p;
  p.weight = weight;
  for (double v : values) p.items.push_back(Item{SubStreamId{0}, v, 0});
  return p;
}

TEST(ThetaStoreTest, EmptyStore) {
  ThetaStore theta;
  EXPECT_TRUE(theta.empty());
  EXPECT_TRUE(theta.sub_streams().empty());
  EXPECT_TRUE(theta.pairs(SubStreamId{1}).empty());
  EXPECT_EQ(theta.sampled_count(SubStreamId{1}), 0u);
  EXPECT_EQ(theta.total_sampled(), 0u);
}

TEST(ThetaStoreTest, AddPairGroupsBySubStream) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(2.0, {1, 2}));
  theta.add_pair(SubStreamId{1}, pair_of(3.0, {5}));
  theta.add_pair(SubStreamId{2}, pair_of(1.0, {10}));

  EXPECT_EQ(theta.sub_streams().size(), 2u);
  EXPECT_EQ(theta.pairs(SubStreamId{1}).size(), 2u);
  EXPECT_EQ(theta.sampled_count(SubStreamId{1}), 3u);
  EXPECT_EQ(theta.total_sampled(), 4u);
}

TEST(ThetaStoreTest, DropsEmptyPairs) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, WeightedSample{5.0, {}});
  EXPECT_TRUE(theta.empty());
}

TEST(ThetaStoreTest, AddBundleSplitsPerSubStream) {
  SampledBundle bundle;
  bundle.w_out.set(SubStreamId{1}, 2.0);
  bundle.w_out.set(SubStreamId{2}, 4.0);
  bundle.sample[SubStreamId{1}] = {Item{SubStreamId{1}, 1.0, 0}};
  bundle.sample[SubStreamId{2}] = {Item{SubStreamId{2}, 2.0, 0},
                                   Item{SubStreamId{2}, 3.0, 0}};
  ThetaStore theta;
  theta.add(bundle);
  EXPECT_DOUBLE_EQ(theta.pairs(SubStreamId{1})[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(theta.pairs(SubStreamId{2})[0].weight, 4.0);
  EXPECT_EQ(theta.sampled_count(SubStreamId{2}), 2u);
}

TEST(ThetaStoreTest, ClearEmpties) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(1.0, {1}));
  theta.clear();
  EXPECT_TRUE(theta.empty());
}

// --- ThetaStore::merge: splicing a delta equals adding its bundles -------

struct StratumSpec {
  std::uint64_t id;
  double weight;
  std::vector<double> values;
};

SampledBundle bundle_of(std::uint64_t epoch,
                        const std::vector<StratumSpec>& strata) {
  SampledBundle bundle;
  bundle.policy_epoch = epoch;
  for (const StratumSpec& s : strata) {
    const SubStreamId id{s.id};
    bundle.w_out.set(id, s.weight);
    std::vector<Item> items;
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      items.push_back(Item{id, s.values[i], static_cast<std::int64_t>(i)});
    }
    bundle.sample[id] = std::move(items);
  }
  return bundle;
}

const std::vector<SampledBundle>& merge_bundles() {
  static const std::vector<SampledBundle> bundles = {
      bundle_of(2, {{1, 2.0, {1, 2}}, {3, 4.0, {7}}}),
      bundle_of(3, {{1, 1.5, {5}}, {2, 3.0, {4, 6, 8}}}),
      bundle_of(1, {{2, 2.5, {9}}, {4, 1.0, {10, 11}}}),
      bundle_of(4, {{1, 6.0, {12, 13, 14}}, {3, 2.0, {15}}}),
  };
  return bundles;
}

void expect_same_theta(const ThetaStore& got, const ThetaStore& want) {
  ASSERT_EQ(got.sub_streams(), want.sub_streams());
  for (const SubStreamId id : want.sub_streams()) {
    const auto& g = got.pairs(id);
    const auto& w = want.pairs(id);
    ASSERT_EQ(g.size(), w.size()) << "sub-stream " << id.value();
    for (std::size_t p = 0; p < w.size(); ++p) {
      EXPECT_EQ(g[p].weight, w[p].weight);
      ASSERT_EQ(g[p].items.size(), w[p].items.size());
      for (std::size_t i = 0; i < w[p].items.size(); ++i) {
        EXPECT_EQ(g[p].items[i].source, w[p].items[i].source);
        EXPECT_EQ(g[p].items[i].value, w[p].items[i].value);
        EXPECT_EQ(g[p].items[i].created_at_us, w[p].items[i].created_at_us);
      }
    }
  }
  const ThetaStore::EpochSpan gs = got.epoch_span();
  const ThetaStore::EpochSpan ws = want.epoch_span();
  EXPECT_EQ(gs.seen, ws.seen);
  EXPECT_EQ(gs.min, ws.min);
  EXPECT_EQ(gs.max, ws.max);
  const ApproxResult gr = approximate_query(got);
  const ApproxResult wr = approximate_query(want);
  EXPECT_EQ(gr.sum.point, wr.sum.point);
  EXPECT_EQ(gr.sum.margin, wr.sum.margin);
  EXPECT_EQ(gr.mean.point, wr.mean.point);
  EXPECT_EQ(gr.mean.margin, wr.mean.margin);
  EXPECT_EQ(gr.sampled_items, wr.sampled_items);
  EXPECT_EQ(gr.policy_epoch_min, wr.policy_epoch_min);
  EXPECT_EQ(gr.policy_epoch, wr.policy_epoch);
}

/// Bundles [0, split) added to the target, [split, end) to a delta that
/// is then merged in, against all of them added to one store in order.
void check_merge_at(std::size_t split, ThetaStore target = ThetaStore{}) {
  const auto& bundles = merge_bundles();
  ThetaStore reference;
  ThetaStore delta;
  for (std::size_t b = 0; b < bundles.size(); ++b) {
    reference.add(bundles[b]);
    (b < split ? target : delta).add(bundles[b]);
  }
  target.merge(std::move(delta));
  expect_same_theta(target, reference);
  EXPECT_TRUE(delta.empty());
  EXPECT_FALSE(delta.epoch_span().seen);
}

TEST(ThetaStoreTest, MergeEqualsAddingBundlesOneByOne) {
  check_merge_at(2);  // shared and new sub-streams on both sides
}

TEST(ThetaStoreTest, MergeIntoEmptyTarget) { check_merge_at(0); }

TEST(ThetaStoreTest, MergeEmptyDeltaChangesNothing) {
  check_merge_at(merge_bundles().size());
}

TEST(ThetaStoreTest, MergeDeltaAloneCarriesNonZeroEpoch) {
  const SampledBundle late = bundle_of(7, {{1, 2.0, {3, 4}}});
  ThetaStore empty_target;
  ThetaStore delta;
  delta.add(late);
  empty_target.merge(std::move(delta));
  ThetaStore reference;
  reference.add(late);
  expect_same_theta(empty_target, reference);
  EXPECT_EQ(empty_target.min_policy_epoch(), 7u);
  EXPECT_EQ(empty_target.max_policy_epoch(), 7u);

  // An epoch-0 window that a delta of epoch 7 extends.
  const SampledBundle early = bundle_of(0, {{2, 1.0, {5}}});
  ThetaStore target;
  target.add(early);
  delta.add(late);
  target.merge(std::move(delta));
  reference.clear();
  reference.add(early);
  reference.add(late);
  expect_same_theta(target, reference);
  EXPECT_EQ(target.min_policy_epoch(), 0u);
  EXPECT_EQ(target.max_policy_epoch(), 7u);
}

// --- Window reuse: clear() keeps storage, never contents ----------------

/// A store that has closed a window: sub-streams 1-4 of merge_bundles()
/// plus 6 and 9, which no later window in these tests uses.
ThetaStore store_after_a_window() {
  ThetaStore theta;
  for (const SampledBundle& b : merge_bundles()) theta.add(b);
  theta.add(bundle_of(8, {{6, 3.0, {30, 31}}, {9, 1.0, {32}}}));
  theta.clear();
  return theta;
}

TEST(ThetaStoreTest, ClearedStoreReportsNothingOfTheOldWindow) {
  const ThetaStore theta = store_after_a_window();
  EXPECT_TRUE(theta.empty());
  EXPECT_TRUE(theta.sub_streams().empty());
  for (const std::uint64_t id : {1, 2, 3, 4, 6, 9}) {
    EXPECT_TRUE(theta.pairs(SubStreamId{id}).empty()) << id;
    EXPECT_EQ(theta.sampled_count(SubStreamId{id}), 0u) << id;
  }
  EXPECT_EQ(theta.total_sampled(), 0u);
  EXPECT_FALSE(theta.epoch_span().seen);
  const ApproxResult result = approximate_query(theta);
  EXPECT_EQ(result.sum.point, 0.0);
  EXPECT_EQ(result.sampled_items, 0u);
}

TEST(ThetaStoreTest, NextWindowOnOtherSubStreamsMatchesAFreshStore) {
  // Sub-stream 2 comes back, 5 is new, 1/3/4/6/9 are gone. The delta
  // brings more pairs of 5 than the store has room for next to its own.
  const std::vector<SampledBundle> window = {
      bundle_of(5, {{2, 1.25, {21, 22}}, {5, 8.0, {23}}}),
      bundle_of(6, {{5, 2.0, {24, 25}}}),
      bundle_of(5, {{2, 3.0, {26}}}),
      bundle_of(6, {{5, 4.0, {27}}}),
  };
  ThetaStore reused = store_after_a_window();
  ThetaStore fresh;
  ThetaStore delta;
  reused.add(window[0]);
  for (std::size_t b = 1; b < window.size(); ++b) delta.add(window[b]);
  reused.merge(std::move(delta));
  for (const SampledBundle& b : window) fresh.add(b);

  expect_same_theta(reused, fresh);  // Θ, epoch span and the query
  EXPECT_EQ(reused.sub_streams(),
            (std::vector<SubStreamId>{SubStreamId{2}, SubStreamId{5}}));
  for (const std::uint64_t id : {1, 3, 4, 6, 9}) {
    EXPECT_TRUE(reused.pairs(SubStreamId{id}).empty()) << id;
  }
  EXPECT_EQ(reused.total_sampled(), fresh.total_sampled());
  EXPECT_EQ(reused.estimated_original_count(SubStreamId{5}),
            fresh.estimated_original_count(SubStreamId{5}));

  // A checkpoint of the reused store is byte-identical to the fresh
  // store's, and restores into a store that has closed windows too.
  CheckpointWriter reused_writer(CheckpointKind::kStage);
  reused_writer.put_theta(reused);
  CheckpointWriter fresh_writer(CheckpointKind::kStage);
  fresh_writer.put_theta(fresh);
  const Checkpoint snapshot = reused_writer.finish();
  EXPECT_EQ(snapshot.bytes, fresh_writer.finish().bytes);
  ThetaStore restored = store_after_a_window();
  CheckpointReader reader(snapshot, CheckpointKind::kStage);
  reader.get_theta(restored);
  reader.expect_exhausted();
  expect_same_theta(restored, fresh);
}

TEST(ThetaStoreTest, MergeIntoAClearedStoreEqualsAddingOneByOne) {
  for (std::size_t split = 0; split <= merge_bundles().size(); ++split) {
    SCOPED_TRACE(split);
    check_merge_at(split, store_after_a_window());
  }
}

// --- Estimators: the worked example of Fig. 3 --------------------------
// Θ at root C holds (3, {item 5}) and (3, {item 3}) where the item's
// index is its value; the paper computes SUM = 3*5 + 3*3 = 24.
TEST(EstimatorTest, PaperFigure3WorkedExample) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(3.0, {5}));
  theta.add_pair(SubStreamId{1}, pair_of(3.0, {3}));
  EXPECT_DOUBLE_EQ(estimate_sum(theta, SubStreamId{1}), 24.0);
  EXPECT_DOUBLE_EQ(estimate_total_sum(theta), 24.0);
  // ĉ = 3*1 + 3*1 = 6, the original count at node A (items 1..6).
  EXPECT_DOUBLE_EQ(estimate_count(theta, SubStreamId{1}), 6.0);
}

TEST(EstimatorTest, SumAcrossSubStreamsIsEquationFour) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(2.0, {1, 2, 3}));  // SUM_1 = 12
  theta.add_pair(SubStreamId{2}, pair_of(5.0, {10}));       // SUM_2 = 50
  EXPECT_DOUBLE_EQ(estimate_total_sum(theta), 62.0);
}

TEST(EstimatorTest, WeightOneIsExactSum) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(1.0, {1.5, 2.5, 3.0}));
  EXPECT_DOUBLE_EQ(estimate_sum(theta, SubStreamId{1}), 7.0);
  EXPECT_DOUBLE_EQ(estimate_count(theta, SubStreamId{1}), 3.0);
}

TEST(EstimatorTest, MeanIsSumOverCount) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(2.0, {4.0, 6.0}));  // sum 20, c 4
  theta.add_pair(SubStreamId{2}, pair_of(1.0, {10.0}));      // sum 10, c 1
  EXPECT_DOUBLE_EQ(estimate_total_count(theta), 5.0);
  EXPECT_DOUBLE_EQ(estimate_total_mean(theta), 30.0 / 5.0);
}

TEST(EstimatorTest, EmptyThetaMeansZero) {
  ThetaStore theta;
  EXPECT_EQ(estimate_total_sum(theta), 0.0);
  EXPECT_EQ(estimate_total_mean(theta), 0.0);
  EXPECT_EQ(estimate_total_count(theta), 0.0);
}

TEST(SummarizeTest, ProducesPerStreamSummaries) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(2.0, {1.0, 3.0}));
  theta.add_pair(SubStreamId{2}, pair_of(1.0, {10.0}));

  auto summaries = summarize(theta);
  ASSERT_EQ(summaries.size(), 2u);
  const auto& s1 = summaries[0];
  EXPECT_EQ(s1.id, SubStreamId{1});
  EXPECT_DOUBLE_EQ(s1.sum, 8.0);
  EXPECT_DOUBLE_EQ(s1.estimated_count, 4.0);
  EXPECT_EQ(s1.sampled, 2u);
  EXPECT_DOUBLE_EQ(s1.sample_mean, 2.0);
  EXPECT_DOUBLE_EQ(s1.sample_variance, 2.0);

  const auto& s2 = summaries[1];
  EXPECT_EQ(s2.sampled, 1u);
  EXPECT_EQ(s2.sample_variance, 0.0);
}

TEST(SummarizeTest, VarianceSpansPairsOfOneSubStream) {
  // Items of one sub-stream split across pairs must pool into one s².
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(1.0, {2.0}));
  theta.add_pair(SubStreamId{1}, pair_of(1.0, {4.0}));
  theta.add_pair(SubStreamId{1}, pair_of(1.0, {6.0}));
  auto summaries = summarize(theta);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_DOUBLE_EQ(summaries[0].sample_mean, 4.0);
  EXPECT_DOUBLE_EQ(summaries[0].sample_variance, 4.0);
}

}  // namespace
}  // namespace approxiot::core
