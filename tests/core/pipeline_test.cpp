#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>

namespace approxiot::core {
namespace {

std::vector<Item> n_items(SubStreamId id, std::size_t n, double value = 1.0) {
  std::vector<Item> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Item{id, value, 0});
  return out;
}

std::vector<std::vector<Item>> per_leaf(std::size_t leaves,
                                        std::vector<Item> items) {
  std::vector<std::vector<Item>> out(leaves);
  out[0] = std::move(items);
  return out;
}

TEST(PerLayerFractionTest, MathChecksOut) {
  EXPECT_DOUBLE_EQ(per_layer_fraction(1.0, 3), 1.0);
  EXPECT_DOUBLE_EQ(per_layer_fraction(0.0, 3), 0.0);
  EXPECT_NEAR(per_layer_fraction(0.125, 3), 0.5, 1e-12);
  EXPECT_NEAR(std::pow(per_layer_fraction(0.1, 3), 3.0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(per_layer_fraction(0.5, 0), 1.0);
}

TEST(EngineKindTest, Names) {
  EXPECT_STREQ(engine_kind_name(EngineKind::kApproxIoT), "ApproxIoT");
  EXPECT_STREQ(engine_kind_name(EngineKind::kSrs), "SRS");
  EXPECT_STREQ(engine_kind_name(EngineKind::kNative), "Native");
}

TEST(EdgeTreeTest, ValidatesConfiguration) {
  EdgeTreeConfig empty;
  empty.layer_widths = {};
  EXPECT_THROW(EdgeTree{empty}, std::invalid_argument);

  EdgeTreeConfig zero;
  zero.layer_widths = {4, 0};
  EXPECT_THROW(EdgeTree{zero}, std::invalid_argument);

  EdgeTreeConfig growing;
  growing.layer_widths = {2, 4};
  EXPECT_THROW(EdgeTree{growing}, std::invalid_argument);
}

TEST(EdgeTreeTest, TickValidatesLeafCount) {
  EdgeTreeConfig config;
  config.layer_widths = {4, 2};
  EdgeTree tree(config);
  EXPECT_EQ(tree.leaf_count(), 4u);
  std::vector<std::vector<Item>> wrong(3);
  EXPECT_THROW(tree.tick(wrong), std::invalid_argument);
}

TEST(EdgeTreeTest, NativeEngineIsExact) {
  EdgeTreeConfig config;
  config.engine = EngineKind::kNative;
  config.layer_widths = {4, 2};
  EdgeTree tree(config);

  auto leaves = per_leaf(4, n_items(SubStreamId{1}, 100, 2.0));
  leaves[2] = n_items(SubStreamId{2}, 50, 10.0);
  tree.tick(leaves);

  const ApproxResult result = tree.close_window();
  EXPECT_DOUBLE_EQ(result.sum.point, 100 * 2.0 + 50 * 10.0);
  EXPECT_DOUBLE_EQ(result.estimated_count, 150.0);
  EXPECT_EQ(result.sum.margin, 0.0);
  EXPECT_EQ(result.sampled_items, 150u);
}

TEST(EdgeTreeTest, ApproxCountExactDespiteSampling) {
  EdgeTreeConfig config;
  config.engine = EngineKind::kApproxIoT;
  config.layer_widths = {2};
  config.sampling_fraction = 0.25;
  EdgeTree tree(config);

  // Two warm-up windows let the fraction cost function learn the rate.
  for (int w = 0; w < 3; ++w) {
    tree.tick(per_leaf(2, n_items(SubStreamId{1}, 1000)));
    const ApproxResult result = tree.close_window();
    if (w == 0) continue;  // first window keeps everything (no history)
    EXPECT_NEAR(result.estimated_count, 1000.0, 1e-6) << "window " << w;
    EXPECT_LT(result.sampled_items, 1000u);
  }
}

TEST(EdgeTreeTest, SamplingReducesRootVolume) {
  EdgeTreeConfig config;
  config.engine = EngineKind::kApproxIoT;
  config.layer_widths = {4, 2};
  config.sampling_fraction = 0.1;
  EdgeTree tree(config);

  for (int w = 0; w < 5; ++w) {
    auto leaves = std::vector<std::vector<Item>>(4);
    for (std::size_t l = 0; l < 4; ++l) {
      leaves[l] = n_items(SubStreamId{l + 1}, 1000);
    }
    tree.tick(leaves);
    (void)tree.close_window();
  }
  const auto metrics = tree.metrics();
  EXPECT_EQ(metrics.items_ingested, 20000u);
  // After warm-up the tree forwards ~10%; allow slack for the first
  // keep-everything window.
  EXPECT_LT(metrics.items_at_root, metrics.items_ingested / 2);
}

TEST(EdgeTreeTest, SrsEngineRunsAndEstimates) {
  EdgeTreeConfig config;
  config.engine = EngineKind::kSrs;
  config.layer_widths = {2};
  config.sampling_fraction = 0.5;
  EdgeTree tree(config);

  tree.tick(per_leaf(2, n_items(SubStreamId{1}, 20000, 1.0)));
  const ApproxResult result = tree.close_window();
  EXPECT_NEAR(result.sum.point / 20000.0, 1.0, 0.1);
}

TEST(EdgeTreeTest, SetSamplingFractionReconfiguresStages) {
  EdgeTreeConfig config;
  config.engine = EngineKind::kSrs;
  config.layer_widths = {2};
  config.sampling_fraction = 1.0;
  EdgeTree tree(config);
  tree.set_sampling_fraction(0.04);
  EXPECT_DOUBLE_EQ(tree.sampling_fraction(), 0.04);

  tree.tick(per_leaf(2, n_items(SubStreamId{1}, 50000)));
  (void)tree.close_window();
  const auto metrics = tree.metrics();
  EXPECT_NEAR(static_cast<double>(metrics.items_at_root) /
                  static_cast<double>(metrics.items_ingested),
              // one edge layer of 0.04^(1/2) filters before the root
              std::pow(0.04, 1.0 / 2.0), 0.05);
}

TEST(EdgeTreeTest, MetricsPerLayerShrink) {
  EdgeTreeConfig config;
  config.engine = EngineKind::kApproxIoT;
  config.layer_widths = {4, 2};
  config.sampling_fraction = 0.2;
  EdgeTree tree(config);

  for (int w = 0; w < 4; ++w) {
    auto leaves = std::vector<std::vector<Item>>(4);
    for (std::size_t l = 0; l < 4; ++l) {
      leaves[l] = n_items(SubStreamId{l + 1}, 500);
    }
    tree.tick(leaves);
    (void)tree.close_window();
  }
  const auto metrics = tree.metrics();
  ASSERT_EQ(metrics.items_forwarded_per_layer.size(), 2u);
  EXPECT_GE(metrics.items_forwarded_per_layer[0],
            metrics.items_forwarded_per_layer[1]);
}

// Golden output: a seeded WHS tree's results, bit for bit, as recorded
// from the original bit-serial Rng::jump() and the split()-per-stratum
// stream derivation. Every other equivalence test compares two engines
// built on the same RNG code, so only this one notices a stream
// derivation that is wrong everywhere (a bad jump table, an off-by-one
// in the per-stratum jump chain).
TEST(EdgeTreeTest, SeededOutputMatchesRecordedGolden) {
  EdgeTreeConfig config;
  config.engine = EngineKind::kApproxIoT;
  config.layer_widths = {6, 3, 2};
  config.sampling_fraction = 0.2;
  config.rng_seed = 2018;
  EdgeTree tree(config);

  struct Golden {
    std::uint64_t sum_point, sum_margin, mean_point, mean_margin;
    std::uint64_t sampled_items;
  };
  const Golden golden[] = {
      {0x4101b1b15606d4caULL, 0x40b7d8b6ef78f9d7ULL, 0x4048288a5b838633ULL,
       0x4000477c3385c948ULL, 608},
      {0x4102a16f88388389ULL, 0x40b7add59cf684e4ULL, 0x40496fde97da78e1ULL,
       0x40002a3659676fe3ULL, 608},
      {0x4101e48a68c0ba98ULL, 0x40b7ccf6b962374eULL, 0x40486df700586062ULL,
       0x40003f76987f1f9cULL, 608},
      {0x41013a626803977fULL, 0x40b822b633ccf4b5ULL, 0x404785a513d10575ULL,
       0x40007a00235cd004ULL, 608},
  };
  std::uint64_t tick = 0;
  for (std::size_t w = 0; w < std::size(golden); ++w) {
    for (int t = 0; t < 2; ++t, ++tick) {
      std::vector<std::vector<Item>> leaves(6);
      for (std::size_t l = 0; l < leaves.size(); ++l) {
        // Five sub-streams interleaved item by item, a different length
        // and phase per leaf.
        for (std::uint64_t i = 0; i < 150 + 40 * l; ++i) {
          const SubStreamId id{(i + l) % 5 + 1};
          const double value =
              1.0 + static_cast<double>((i * 37 + l * 11 + tick * 5) % 97);
          leaves[l].push_back(Item{id, value, static_cast<std::int64_t>(i)});
        }
      }
      tree.tick(leaves);
    }
    const ApproxResult r = tree.close_window();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.sum.point), golden[w].sum_point)
        << "window " << w;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.sum.margin), golden[w].sum_margin)
        << "window " << w;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.mean.point), golden[w].mean_point)
        << "window " << w;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.mean.margin),
              golden[w].mean_margin)
        << "window " << w;
    EXPECT_EQ(r.sampled_items, golden[w].sampled_items) << "window " << w;
  }
}

TEST(EdgeTreeTest, RunQueryDoesNotClear) {
  EdgeTreeConfig config;
  config.engine = EngineKind::kNative;
  config.layer_widths = {1};
  EdgeTree tree(config);
  tree.tick(per_leaf(1, n_items(SubStreamId{1}, 10)));
  EXPECT_DOUBLE_EQ(tree.run_query().sum.point, 10.0);
  EXPECT_DOUBLE_EQ(tree.run_query().sum.point, 10.0);
  EXPECT_DOUBLE_EQ(tree.close_window().sum.point, 10.0);
  EXPECT_DOUBLE_EQ(tree.run_query().sum.point, 0.0);
}

}  // namespace
}  // namespace approxiot::core
