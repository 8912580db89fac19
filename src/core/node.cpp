#include "core/node.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hpp"
#include "core/checkpoint.hpp"

namespace approxiot::core {

SamplingNode::SamplingNode(NodeConfig config)
    : config_(std::move(config)),
      cost_function_(make_cost_function(config_.cost_function)) {
  SamplingExecutor* executor = config_.executor.get();
  if (executor == nullptr && config_.parallel_workers > 1) {
    // No shared runtime to ride on: the node owns a private pool.
    owned_executor_ = PooledSamplingExecutor::for_seed(
        config_.parallel_workers, config_.rng_seed);
    executor = owned_executor_.get();
  }
  if (executor == nullptr) executor = &sequential_executor();
  // Constraint checking is the executor's job (e.g. the pooled lane
  // rejects Algorithm L with >1 worker at create_lane time) — it cannot
  // be bypassed there, and the node stays agnostic to which constraints
  // a given execution substrate has.
  lane_ = executor->create_lane(Rng(config_.rng_seed), config_.whsamp);
}

std::vector<SampledBundle> SamplingNode::process_interval(
    const std::vector<ItemBundle>& psi) {
  // Interval boundary = policy boundary (§IV-B live): resolve the current
  // control-plane snapshot before deriving this interval's budget. One
  // wait-free read; mid-interval publishes take effect next interval.
  if (config_.policy.bound()) {
    const PolicyDecision decision = config_.policy.resolve(config_.budget);
    policy_epoch_ = decision.epoch;
    config_.budget = decision.budget;
  }

  // Line 3: derive the reservoir budget for this interval. The volume
  // estimate is last interval's arrival count; on the very first interval
  // (no history) the already-buffered Ψ stands in so the fraction-based
  // cost function does not start from a degenerate budget.
  std::uint64_t psi_items = 0;
  for (const ItemBundle& bundle : psi) psi_items += bundle.items.size();
  const std::uint64_t observed =
      last_interval_items_ > 0 ? last_interval_items_ : psi_items;
  const std::size_t size =
      cost_function_->sample_size(config_.budget, observed, config_.interval);

  std::vector<SampledBundle> outputs;
  outputs.reserve(psi.size());

  std::uint64_t items_this_interval = 0;
  // Lines 5-19: consume Ψ pair by pair. Algorithm 2 passes `size` to
  // every WHSamp call; with many pairs per interval that would multiply
  // the effective budget, so the interval budget is shared across pairs
  // in proportion to their item counts (Σ pair budgets ≈ size).
  for (const ItemBundle& bundle : psi) {
    if (bundle.items.empty()) continue;
    items_this_interval += bundle.items.size();

    std::size_t pair_budget =
        psi_items > 0
            ? static_cast<std::size_t>(
                  (static_cast<double>(size) *
                       static_cast<double>(bundle.items.size()) +
                   static_cast<double>(psi_items) / 2.0) /
                  static_cast<double>(psi_items))
            : size;
    // Stratify once, here: the batch (a reused flat arena) feeds both
    // the fairness floor below and the lane's span-based sampling — no
    // second stratification pass inside the lane.
    strata_scratch_.assign(bundle.items);

    // Fairness floor: stratification promises every sub-stream at least
    // one reservoir slot (§II-B1). A tiny pair (e.g. one rare high-value
    // item arriving alone) must not round its share down to zero, so the
    // pair budget is at least the number of sub-streams it carries —
    // which the stratum directory now gives for free.
    if (size > 0) {
      pair_budget = std::max(pair_budget, strata_scratch_.size());
    }

    // Fig. 3 rule: resolve the effective input weights. Weights that
    // travelled with this bundle win; otherwise fall back to the last
    // weight remembered for the sub-stream (default 1 at sources). That
    // is the remembered map updated with this bundle's weights, which
    // later intervals need anyway to resolve weight-less items.
    remembered_weights_.update_from(bundle.w_in);

    SampledBundle out = lane_->sample_strata(strata_scratch_, pair_budget,
                                             remembered_weights_);
    out.policy_epoch = policy_epoch_;

    metrics_.items_out += out.item_count();
    outputs.push_back(std::move(out));
  }

  metrics_.items_in += items_this_interval;
  ++metrics_.intervals;
  last_interval_items_ = items_this_interval;

  AIOT_LOG(kDebug, "core.node")
      << "node " << config_.id << " interval done: in=" << items_this_interval
      << " budget=" << size << " pairs=" << outputs.size();
  return outputs;
}

void SamplingNode::save_state(CheckpointWriter& writer) const {
  writer.put_double(config_.budget.sampling_fraction);
  writer.put_double(config_.budget.max_items_per_second);
  writer.put_u64(config_.budget.fixed_sample_size);
  writer.put_double(cost_function_->smoothing_state());
  writer.put_u64(last_interval_items_);
  writer.put_u64(policy_epoch_);
  writer.put_weight_map(remembered_weights_);
  lane_->save_state(writer);
}

void SamplingNode::restore_state(CheckpointReader& reader) {
  config_.budget.sampling_fraction = reader.get_double();
  config_.budget.max_items_per_second = reader.get_double();
  config_.budget.fixed_sample_size =
      static_cast<std::size_t>(reader.get_u64());
  cost_function_->set_smoothing_state(reader.get_double());
  last_interval_items_ = reader.get_u64();
  policy_epoch_ = reader.get_u64();
  reader.get_weight_map(remembered_weights_);
  lane_->restore_state(reader);
}

RootNode::RootNode(NodeConfig config) : node_(std::move(config)) {}

void RootNode::ingest_interval(const std::vector<ItemBundle>& psi) {
  for (SampledBundle& bundle : node_.process_interval(psi)) {
    theta_.add(bundle);
  }
}

ApproxResult RootNode::run_query(double confidence) const {
  return approximate_query(theta_, confidence);
}

ApproxResult RootNode::close_window(double confidence) {
  ApproxResult result = run_query(confidence);
  theta_.clear();
  return result;
}

}  // namespace approxiot::core
