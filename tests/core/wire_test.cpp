#include "core/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "flowqueue/serde.hpp"

namespace approxiot::core {
namespace {

ItemBundle sample_bundle() {
  ItemBundle bundle;
  bundle.w_in.set(SubStreamId{1}, 1.5);
  bundle.w_in.set(SubStreamId{2}, 40.0);
  bundle.items.push_back(Item{SubStreamId{1}, 3.25, 1000});
  bundle.items.push_back(Item{SubStreamId{2}, -7.0, 2000});
  bundle.items.push_back(Item{SubStreamId{1}, 0.0, 0});
  return bundle;
}

TEST(WireTest, RoundTripPreservesEverything) {
  const ItemBundle original = sample_bundle();
  auto decoded = decode_bundle(encode_bundle(original));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().w_in == original.w_in);
  ASSERT_EQ(decoded.value().items.size(), original.items.size());
  for (std::size_t i = 0; i < original.items.size(); ++i) {
    EXPECT_EQ(decoded.value().items[i], original.items[i]) << i;
  }
}

TEST(WireTest, EmptyBundleRoundTrips) {
  ItemBundle empty;
  auto decoded = decode_bundle(encode_bundle(empty));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().items.empty());
  EXPECT_TRUE(decoded.value().w_in.empty());
}

TEST(WireTest, SampledBundleEncodesViaFlatten) {
  SampledBundle sampled;
  sampled.w_out.set(SubStreamId{1}, 2.0);
  sampled.sample[SubStreamId{1}] = {Item{SubStreamId{1}, 5.0, 42}};
  auto decoded = decode_bundle(encode_bundle(sampled));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_DOUBLE_EQ(decoded.value().w_in.get(SubStreamId{1}), 2.0);
  ASSERT_EQ(decoded.value().items.size(), 1u);
  EXPECT_DOUBLE_EQ(decoded.value().items[0].value, 5.0);
}

TEST(WireTest, PolicyEpochRoundTrips) {
  ItemBundle bundle = sample_bundle();
  bundle.policy_epoch = 12345;
  auto decoded = decode_bundle(encode_bundle(bundle));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().policy_epoch, 12345u);
  ASSERT_EQ(decoded.value().items.size(), bundle.items.size());

  SampledBundle sampled;
  sampled.policy_epoch = 9;
  sampled.w_out.set(SubStreamId{1}, 2.0);
  sampled.sample[SubStreamId{1}] = {Item{SubStreamId{1}, 5.0, 42}};
  auto via_sampled = decode_bundle(encode_bundle(sampled));
  ASSERT_TRUE(via_sampled.is_ok());
  EXPECT_EQ(via_sampled.value().policy_epoch, 9u);
}

TEST(WireTest, EpochZeroKeepsLegacyV1Bytes) {
  // A runtime that never publishes a policy must emit byte-identical
  // payloads to the pre-control-plane wire format: version byte 0x01 and
  // no epoch field.
  ItemBundle bundle = sample_bundle();
  ASSERT_EQ(bundle.policy_epoch, 0u);
  const auto bytes = encode_bundle(bundle);
  EXPECT_EQ(bytes[2], 0x01);  // magic is varint 0xA7 (2 bytes), then version

  ItemBundle epoch_bundle = sample_bundle();
  epoch_bundle.policy_epoch = 1;
  const auto v2 = encode_bundle(epoch_bundle);
  EXPECT_EQ(v2[2], 0x02);
  EXPECT_EQ(v2.size(), bytes.size() + 1);  // one varint epoch byte more
  auto decoded = decode_bundle(v2);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().policy_epoch, 1u);
}

TEST(WireTest, RejectsBadMagic) {
  auto bytes = encode_bundle(sample_bundle());
  bytes[0] = 0x00;
  EXPECT_FALSE(decode_bundle(bytes).is_ok());
}

TEST(WireTest, RejectsBadVersion) {
  auto bytes = encode_bundle(sample_bundle());
  // magic is varint 0xA7 (2 bytes: 0xa7 0x01); version follows.
  bytes[2] = 0x63;
  EXPECT_FALSE(decode_bundle(bytes).is_ok());
}

TEST(WireTest, RejectsTruncation) {
  auto bytes = encode_bundle(sample_bundle());
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{3}}) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode_bundle(truncated).is_ok()) << "cut=" << cut;
  }
}

TEST(WireTest, RejectsTrailingGarbage) {
  auto bytes = encode_bundle(sample_bundle());
  bytes.push_back(0xFF);
  EXPECT_FALSE(decode_bundle(bytes).is_ok());
}

TEST(WireTest, RejectsItemCountBeyondPayloadWithoutAllocating) {
  // 13 bytes: magic, v1, no weights, then a varint item count no payload
  // of this size can hold. Reserving it first would throw length_error
  // (2^62 items of 24 bytes) or bad_alloc (2^58) instead of a Status.
  for (const std::uint64_t count : {std::uint64_t{1} << 62,
                                    std::uint64_t{1} << 58}) {
    flowqueue::Encoder enc;
    enc.put_varint(0xA7);
    enc.put_varint(0x01);
    enc.put_varint(0);
    enc.put_varint(count);
    const Result<ItemBundle> decoded = decode_bundle(enc.bytes());
    ASSERT_FALSE(decoded.is_ok()) << "count=" << count;
    EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
  }
  // One 17-byte item claimed as two: the bound rejects it up front.
  flowqueue::Encoder enc;
  enc.put_varint(0xA7);
  enc.put_varint(0x01);
  enc.put_varint(0);
  enc.put_varint(2);
  enc.put_varint(1);
  enc.put_double(1.0);
  enc.put_fixed64(0);
  EXPECT_FALSE(decode_bundle(enc.bytes()).is_ok());
}

// A v1 payload with the given (id, weight) list and no items. Encoders
// only ever write ascending ids with finite, positive weights.
std::vector<std::uint8_t> payload_with_weights(
    const std::vector<std::pair<std::uint64_t, double>>& weights) {
  flowqueue::Encoder enc;
  enc.put_varint(0xA7);
  enc.put_varint(0x01);
  enc.put_varint(weights.size());
  for (const auto& [id, weight] : weights) {
    enc.put_varint(id);
    enc.put_double(weight);
  }
  enc.put_varint(0);
  return enc.bytes();
}

void expect_invalid(const std::vector<std::uint8_t>& payload) {
  const Result<ItemBundle> decoded = decode_bundle(payload);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, AcceptsAscendingPositiveWeights) {
  const auto decoded =
      decode_bundle(payload_with_weights({{1, 0.25}, {7, 3.0}}));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().w_in.get(SubStreamId{1}), 0.25);
  EXPECT_EQ(decoded.value().w_in.get(SubStreamId{7}), 3.0);
}

TEST(WireTest, RejectsNanWeight) {
  expect_invalid(payload_with_weights(
      {{1, 2.0}, {2, std::numeric_limits<double>::quiet_NaN()}}));
}

TEST(WireTest, RejectsZeroWeight) {
  expect_invalid(payload_with_weights({{1, 0.0}}));
  expect_invalid(payload_with_weights({{1, -0.0}}));
}

TEST(WireTest, RejectsNegativeAndInfiniteWeights) {
  expect_invalid(payload_with_weights({{1, -1.5}}));
  expect_invalid(
      payload_with_weights({{1, std::numeric_limits<double>::infinity()}}));
  expect_invalid(
      payload_with_weights({{1, -std::numeric_limits<double>::infinity()}}));
}

TEST(WireTest, RejectsDescendingIds) {
  expect_invalid(payload_with_weights({{2, 1.0}, {1, 1.0}}));
  expect_invalid(payload_with_weights({{3, 1.0}, {3, 2.0}}));  // repeated
}

TEST(WireTest, RejectsEmptyPayload) {
  EXPECT_FALSE(decode_bundle({}).is_ok());
}

TEST(WireTest, SizeScalesWithItems) {
  ItemBundle small, large;
  for (int i = 0; i < 2; ++i) {
    small.items.push_back(Item{SubStreamId{1}, 1.0, 0});
  }
  for (int i = 0; i < 200; ++i) {
    large.items.push_back(Item{SubStreamId{1}, 1.0, 0});
  }
  EXPECT_GT(encode_bundle(large).size(), encode_bundle(small).size() * 50);
}

}  // namespace
}  // namespace approxiot::core
