#include "core/checkpoint.hpp"

#include <utility>

#include "core/control_plane.hpp"
#include "core/pipeline.hpp"
#include "core/theta_store.hpp"
#include "core/weight_map.hpp"

namespace approxiot::core {

namespace {

constexpr std::uint8_t kMagic = 0xC4;
constexpr std::uint8_t kFormatVersion = 1;
/// A Θ item in a checkpoint: fixed64 source, double value, fixed64
/// timestamp.
constexpr std::uint64_t kItemBytes = 8 + 8 + 8;

/// Writers emit valid weights and strictly ascending sub-stream ids.
double get_weight(CheckpointReader& reader) {
  const double weight = reader.get_double();
  if (!is_valid_weight(weight)) {
    throw CheckpointError("checkpoint: weight is not finite and positive");
  }
  return weight;
}

SubStreamId get_id_after(CheckpointReader& reader, std::uint64_t k,
                         SubStreamId prev) {
  const SubStreamId id{static_cast<std::uint64_t>(reader.get_i64())};
  if (k > 0 && !(prev < id)) {
    throw CheckpointError("checkpoint: sub-stream ids not strictly ascending");
  }
  return id;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer

CheckpointWriter::CheckpointWriter(CheckpointKind kind) {
  encoder_.put_varint(kMagic);
  encoder_.put_varint(kFormatVersion);
  encoder_.put_varint(static_cast<std::uint64_t>(kind));
}

void CheckpointWriter::put_rng(const Rng::State& state) {
  for (const std::uint64_t word : state.s) encoder_.put_fixed64(word);
  put_bool(state.has_cached_gaussian);
  encoder_.put_double(state.cached_gaussian);
}

void CheckpointWriter::put_weight_map(const WeightMap& weights) {
  put_u64(weights.size());
  // WeightMap iterates ascending by id, so the encoding is canonical:
  // equal maps produce equal bytes.
  for (const auto& [id, weight] : weights) {
    encoder_.put_fixed64(id.value());
    encoder_.put_double(weight);
  }
}

void CheckpointWriter::put_theta(const ThetaStore& theta) {
  const std::vector<SubStreamId> ids = theta.sub_streams();
  put_u64(ids.size());
  for (const SubStreamId id : ids) {
    encoder_.put_fixed64(id.value());
    const std::vector<WeightedSample>& pairs = theta.pairs(id);
    put_u64(pairs.size());
    for (const WeightedSample& pair : pairs) {
      encoder_.put_double(pair.weight);
      put_u64(pair.items.size());
      for (const Item& item : pair.items) {
        encoder_.put_fixed64(item.source.value());
        encoder_.put_double(item.value);
        put_i64(item.created_at_us);
      }
    }
  }
  const ThetaStore::EpochSpan span = theta.epoch_span();
  put_bool(span.seen);
  put_u64(span.min);
  put_u64(span.max);
}

// ---------------------------------------------------------------------------
// Reader

CheckpointReader::CheckpointReader(const Checkpoint& checkpoint,
                                   CheckpointKind expected)
    : decoder_(checkpoint.bytes) {
  if (get_u64() != kMagic) {
    throw CheckpointError("checkpoint: bad magic (not a checkpoint)");
  }
  const std::uint64_t version = get_u64();
  if (version != kFormatVersion) {
    throw CheckpointError("checkpoint: unknown format version " +
                          std::to_string(version));
  }
  const std::uint64_t kind = get_u64();
  if (kind != static_cast<std::uint64_t>(expected)) {
    throw CheckpointError("checkpoint: kind mismatch (have " +
                          std::to_string(kind) + ", need " +
                          std::to_string(static_cast<std::uint64_t>(expected)) +
                          ")");
  }
}

std::uint64_t CheckpointReader::get_u64() {
  auto result = decoder_.get_varint();
  if (!result.is_ok()) throw CheckpointError("checkpoint: truncated varint");
  return result.value();
}

std::int64_t CheckpointReader::get_i64() {
  auto result = decoder_.get_fixed64();
  if (!result.is_ok()) throw CheckpointError("checkpoint: truncated fixed64");
  return static_cast<std::int64_t>(result.value());
}

double CheckpointReader::get_double() {
  auto result = decoder_.get_double();
  if (!result.is_ok()) throw CheckpointError("checkpoint: truncated double");
  return result.value();
}

std::string CheckpointReader::get_string() {
  auto result = decoder_.get_string();
  if (!result.is_ok()) throw CheckpointError("checkpoint: truncated string");
  return std::move(result).value();
}

Rng::State CheckpointReader::get_rng() {
  Rng::State state;
  for (std::uint64_t& word : state.s) {
    word = static_cast<std::uint64_t>(get_i64());
  }
  state.has_cached_gaussian = get_bool();
  state.cached_gaussian = get_double();
  return state;
}

void CheckpointReader::get_weight_map(WeightMap& weights) {
  weights.clear();
  const std::uint64_t n = get_u64();
  SubStreamId id{};
  for (std::uint64_t k = 0; k < n; ++k) {
    id = get_id_after(*this, k, id);
    weights.set(id, get_weight(*this));
  }
}

void CheckpointReader::get_theta(ThetaStore& theta) {
  theta.clear();
  const std::uint64_t n_streams = get_u64();
  SubStreamId id{};
  for (std::uint64_t s = 0; s < n_streams; ++s) {
    id = get_id_after(*this, s, id);
    const std::uint64_t n_pairs = get_u64();
    for (std::uint64_t p = 0; p < n_pairs; ++p) {
      WeightedSample pair;
      pair.weight = get_weight(*this);
      const std::uint64_t n_items = get_u64();
      // Bound the untrusted count by the bytes left before reserving.
      if (n_items > decoder_.remaining() / kItemBytes) {
        throw CheckpointError("checkpoint: theta item count " +
                              std::to_string(n_items) +
                              " exceeds the payload");
      }
      pair.items.reserve(n_items);
      for (std::uint64_t i = 0; i < n_items; ++i) {
        Item item;
        item.source = SubStreamId{static_cast<std::uint64_t>(get_i64())};
        item.value = get_double();
        item.created_at_us = get_i64();
        pair.items.push_back(item);
      }
      theta.add_pair(id, std::move(pair));
    }
  }
  // add_pair folded epoch 0 into the span; overwrite with the recorded
  // values (Θ never stores empty pairs, so the pair replay is lossless).
  ThetaStore::EpochSpan span;
  span.seen = get_bool();
  span.min = get_u64();
  span.max = get_u64();
  theta.restore_epoch_span(span);
}

void CheckpointReader::expect_exhausted() const {
  if (!decoder_.exhausted()) {
    throw CheckpointError("checkpoint: trailing bytes after payload");
  }
}

// ---------------------------------------------------------------------------
// Stage-level checkpoints

Checkpoint checkpoint_stage(const PipelineStage& stage) {
  CheckpointWriter writer(CheckpointKind::kStage);
  stage.save_state(writer);
  return writer.finish();
}

void restore_stage(PipelineStage& stage, const Checkpoint& checkpoint) {
  CheckpointReader reader(checkpoint, CheckpointKind::kStage);
  stage.restore_state(reader);
  reader.expect_exhausted();
}

// ---------------------------------------------------------------------------
// Shared tree sections

void write_tree_fingerprint(CheckpointWriter& writer,
                            const EdgeTreeConfig& config) {
  writer.put_u64(static_cast<std::uint64_t>(config.engine));
  writer.put_u64(config.layer_widths.size());
  for (const std::size_t width : config.layer_widths) writer.put_u64(width);
  writer.put_i64(static_cast<std::int64_t>(config.rng_seed));
  writer.put_i64(config.interval.us);
  writer.put_u64(static_cast<std::uint64_t>(config.reservoir_algorithm));
  writer.put_string(config.allocation_policy);
}

void verify_tree_fingerprint(CheckpointReader& reader,
                             const EdgeTreeConfig& config) {
  bool match = reader.get_u64() == static_cast<std::uint64_t>(config.engine);
  const std::uint64_t n_layers = reader.get_u64();
  match = match && n_layers == config.layer_widths.size();
  for (std::uint64_t k = 0; k < n_layers; ++k) {
    const std::uint64_t width = reader.get_u64();
    match = match && k < config.layer_widths.size() &&
            width == config.layer_widths[k];
  }
  match = match &&
          reader.get_i64() == static_cast<std::int64_t>(config.rng_seed);
  match = match && reader.get_i64() == config.interval.us;
  match = match && reader.get_u64() ==
                       static_cast<std::uint64_t>(config.reservoir_algorithm);
  match = match && reader.get_string() == config.allocation_policy;
  if (!match) {
    throw CheckpointError(
        "checkpoint: topology fingerprint mismatch — a checkpoint resumes "
        "the exact configuration it was taken from (same engine, widths, "
        "seed, interval, sampler knobs)");
  }
}

void write_control_plane(CheckpointWriter& writer, const ControlPlane* plane) {
  writer.put_bool(plane != nullptr);
  if (plane == nullptr) return;
  const std::shared_ptr<const SamplingPolicy> policy = plane->snapshot();
  writer.put_u64(policy->epoch);
  writer.put_double(policy->budget.sampling_fraction);
  writer.put_double(policy->budget.max_items_per_second);
  writer.put_u64(policy->budget.fixed_sample_size);
}

void restore_control_plane(CheckpointReader& reader, ControlPlane* plane) {
  const bool had_plane = reader.get_bool();
  if (had_plane != (plane != nullptr)) {
    throw CheckpointError(
        "checkpoint: control-plane presence mismatch (snapshot and tree "
        "must both have one, or neither)");
  }
  if (plane == nullptr) return;
  // Start from the live snapshot so the structural WHSamp knobs (which a
  // live epoch cannot change anyway) carry over, then pin the
  // checkpointed epoch and budget.
  SamplingPolicy policy = *plane->snapshot();
  policy.epoch = reader.get_u64();
  policy.budget.sampling_fraction = reader.get_double();
  policy.budget.max_items_per_second = reader.get_double();
  policy.budget.fixed_sample_size =
      static_cast<std::size_t>(reader.get_u64());
  plane->restore_policy(std::move(policy));
}

}  // namespace approxiot::core
