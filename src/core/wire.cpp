#include "core/wire.hpp"

#include <algorithm>

#include "core/kernels/kernels.hpp"
#include "flowqueue/serde.hpp"

namespace approxiot::core {

namespace {
constexpr std::uint8_t kMagic = 0xA7;
constexpr std::uint8_t kVersion = 0x01;
/// v2 == v1 plus a varint policy epoch between the version byte and the
/// weights. Encoders emit v1 whenever the epoch is 0 so payloads from a
/// runtime that never publishes a policy stay byte-identical to the
/// pre-control-plane format; decoders accept both.
constexpr std::uint8_t kVersionEpoch = 0x02;
/// Smallest encoded item: a one-byte varint source id, a double value
/// and a fixed64 timestamp.
constexpr std::size_t kMinItemBytes = 1 + 8 + 8;
/// Smallest encoded weight: a one-byte varint id and a double.
constexpr std::size_t kMinWeightBytes = 1 + 8;
}  // namespace

namespace {

void encode_header(flowqueue::Encoder& enc, std::uint64_t policy_epoch) {
  enc.put_varint(kMagic);
  if (policy_epoch == 0) {
    enc.put_varint(kVersion);
  } else {
    enc.put_varint(kVersionEpoch);
    enc.put_varint(policy_epoch);
  }
}

void encode_weights(flowqueue::Encoder& enc, const WeightMap& weights) {
  enc.put_varint(weights.size());
  for (const auto& [id, weight] : weights) {
    enc.put_varint(id.value());
    enc.put_double(weight);
  }
}

void encode_items(flowqueue::Encoder& enc, const Item* items, std::size_t n) {
  enc.put_varint(n);
  // Block path: one buffer reservation and raw cursor writes for the
  // whole item array instead of a bounds-checked push_back per byte.
  // The bytes are identical to the per-field loop below (the kernels
  // test pins this); the scalar tier keeps the loop as the oracle.
  const kernels::Tier tier = kernels::active_tier();
  if (tier != kernels::Tier::kScalar && n > 0) {
    std::uint8_t* out = enc.reserve_tail(n * kernels::kMaxItemWireBytes);
    enc.commit_tail(kernels::encode_items(tier, out, items, n));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    enc.put_varint(items[i].source.value());
    enc.put_double(items[i].value);
    enc.put_fixed64(static_cast<std::uint64_t>(items[i].created_at_us));
  }
}

}  // namespace

std::vector<std::uint8_t> encode_bundle(const ItemBundle& bundle) {
  flowqueue::Encoder enc;
  encode_header(enc, bundle.policy_epoch);
  encode_weights(enc, bundle.w_in);
  encode_items(enc, bundle.items.data(), bundle.items.size());
  return enc.take();
}

std::vector<std::uint8_t> encode_bundle(const SampledBundle& bundle) {
  // Serialise straight from the flat sample: the arena already holds the
  // items in stratum order (identical bytes to flattening first), so the
  // old to_bundle() round trip — one full copy of every item and weight —
  // is gone.
  flowqueue::Encoder enc;
  encode_header(enc, bundle.policy_epoch);
  encode_weights(enc, bundle.w_out);
  encode_items(enc, bundle.sample.items().data(), bundle.sample.item_count());
  return enc.take();
}

Result<ItemBundle> decode_bundle(const std::vector<std::uint8_t>& payload) {
  flowqueue::Decoder dec(payload);

  auto magic = dec.get_varint();
  if (!magic) return magic.status();
  if (magic.value() != kMagic) {
    return Status::invalid_argument("bad magic byte in bundle payload");
  }
  auto version = dec.get_varint();
  if (!version) return version.status();
  if (version.value() != kVersion && version.value() != kVersionEpoch) {
    return Status::invalid_argument("unsupported bundle version " +
                                    std::to_string(version.value()));
  }

  ItemBundle bundle;

  if (version.value() == kVersionEpoch) {
    auto epoch = dec.get_varint();
    if (!epoch) return epoch.status();
    bundle.policy_epoch = epoch.value();
  }

  // Encoders write strictly ascending ids with valid weights; anything
  // else is corrupt. The order check also keeps every set() an append.
  auto n_weights = dec.get_varint();
  if (!n_weights) return n_weights.status();
  bundle.w_in.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(n_weights.value(),
                              dec.remaining() / kMinWeightBytes)));
  for (std::uint64_t i = 0; i < n_weights.value(); ++i) {
    auto id = dec.get_varint();
    if (!id) return id.status();
    auto weight = dec.get_double();
    if (!weight) return weight.status();
    const SubStreamId sub_stream{id.value()};
    if (!is_valid_weight(weight.value()) ||
        (i > 0 && !((bundle.w_in.end() - 1)->first < sub_stream))) {
      return Status::invalid_argument(
          "bundle weight of sub-stream " + std::to_string(id.value()) +
          " is not finite and positive, or out of ascending id order");
    }
    bundle.w_in.set(sub_stream, weight.value());
  }

  auto n_items = dec.get_varint();
  if (!n_items) return n_items.status();
  // The count is untrusted: bound it by what the remaining bytes can hold
  // before reserve() turns a corrupt varint into a huge allocation.
  if (n_items.value() > dec.remaining() / kMinItemBytes) {
    return Status::out_of_range("bundle item count " +
                                std::to_string(n_items.value()) +
                                " exceeds the payload");
  }
  bundle.items.reserve(static_cast<std::size_t>(n_items.value()));
  for (std::uint64_t i = 0; i < n_items.value(); ++i) {
    auto id = dec.get_varint();
    if (!id) return id.status();
    auto value = dec.get_double();
    if (!value) return value.status();
    auto ts = dec.get_fixed64();
    if (!ts) return ts.status();
    Item item;
    item.source = SubStreamId{id.value()};
    item.value = value.value();
    item.created_at_us = static_cast<std::int64_t>(ts.value());
    bundle.items.push_back(item);
  }

  if (!dec.exhausted()) {
    return Status::invalid_argument("trailing bytes after bundle payload");
  }
  return bundle;
}

}  // namespace approxiot::core
