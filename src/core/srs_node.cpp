#include "core/srs_node.hpp"

#include "core/checkpoint.hpp"

namespace approxiot::core {

SrsNode::SrsNode(SrsNodeConfig config)
    : config_(config),
      sampler_(config.probability, Rng(config.rng_seed)) {}

void SrsNode::set_probability(double p) { sampler_.set_probability(p); }

double SrsNode::probability() const noexcept {
  return sampler_.probability();
}

std::vector<SampledBundle> SrsNode::process_interval(
    const std::vector<ItemBundle>& psi) {
  // Interval boundary = policy boundary: the keep probability for the
  // whole interval comes from the current control-plane snapshot.
  if (config_.policy.bound()) {
    ResourceBudget current;
    current.sampling_fraction = sampler_.probability();
    const PolicyDecision decision = config_.policy.resolve(current);
    policy_epoch_ = decision.epoch;
    sampler_.set_probability(decision.budget.sampling_fraction);
  }

  std::vector<SampledBundle> outputs;
  outputs.reserve(psi.size());

  for (const ItemBundle& bundle : psi) {
    if (bundle.items.empty()) continue;
    metrics_.items_in += bundle.items.size();

    // Fig. 3 rule: the remembered weights, updated with this bundle's,
    // are the effective W^in.
    remembered_weights_.update_from(bundle.w_in);

    const double ht = sampler_.weight();  // 1/p
    kept_scratch_.clear();
    for (const Item& item : bundle.items) {
      if (!sampler_.keep()) continue;
      kept_scratch_.push_back(item);
    }
    if (kept_scratch_.empty()) continue;

    SampledBundle out;
    out.sample.assign(kept_scratch_, stratify_scratch_);
    out.policy_epoch = policy_epoch_;
    out.w_out.reserve(out.sample.size());
    for (const Stratum& s : out.sample.strata()) {
      out.w_out.set(s.id, remembered_weights_.get(s.id) * ht);
      metrics_.items_out += s.len;
    }
    outputs.push_back(std::move(out));
  }
  ++metrics_.intervals;
  return outputs;
}

void SrsNode::save_state(CheckpointWriter& writer) const {
  writer.put_double(sampler_.probability());
  writer.put_rng(sampler_.rng_state());
  writer.put_u64(sampler_.seen());
  writer.put_u64(sampler_.kept());
  writer.put_u64(policy_epoch_);
  writer.put_weight_map(remembered_weights_);
}

void SrsNode::restore_state(CheckpointReader& reader) {
  sampler_.set_probability(reader.get_double());
  sampler_.set_rng_state(reader.get_rng());
  const std::uint64_t seen = reader.get_u64();
  const std::uint64_t kept = reader.get_u64();
  sampler_.restore_counters(seen, kept);
  policy_epoch_ = reader.get_u64();
  reader.get_weight_map(remembered_weights_);
}

SrsRootNode::SrsRootNode(SrsNodeConfig config) : node_(config) {}

void SrsRootNode::ingest_interval(const std::vector<ItemBundle>& psi) {
  for (SampledBundle& bundle : node_.process_interval(psi)) {
    theta_.add(bundle);
  }
}

ApproxResult SrsRootNode::run_query(double confidence) const {
  return approximate_query(theta_, confidence);
}

ApproxResult SrsRootNode::close_window(double confidence) {
  ApproxResult result = run_query(confidence);
  theta_.clear();
  return result;
}

}  // namespace approxiot::core
