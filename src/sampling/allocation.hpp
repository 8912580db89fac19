// Sample-size allocation: Algorithm 1's getSampleSize(sampleSize, S).
//
// Given a node's total per-interval reservoir budget and the set of
// sub-streams seen in the interval, decide each sub-stream's reservoir
// capacity N_i. The paper leaves the policy open ("the core design is
// agnostic to the ways of choosing the sample size"); we implement the
// fair equal split its evaluation implies, plus two alternatives used by
// the ablation bench. All three share one largest-remainder split and
// differ only in each sub-stream's score. allocate() runs once per
// (W^in, items) pair, so it fills a caller-owned N_i vector and reuses
// its own scratch: a warm policy allocates nothing. Each sampler owns
// its policy; an instance must not be shared across threads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace approxiot::sampling {

/// Per-sub-stream observation the allocator may use. The samplers also
/// use it to carry per-stratum context resolved once per interval —
/// `weight` is the effective W^in_i, looked up a single time when the
/// infos are built instead of re-queried per stratum in the merge loop.
struct SubStreamInfo {
  SubStreamId id{};
  std::uint64_t count{0};     // items seen this interval so far
  double value_stddev{0.0};   // running dispersion (Neyman only)
  double weight{1.0};         // resolved W^in_i (not used by allocators)
};

class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;

  /// Splits `total_budget` reservoir slots across `streams`, writing
  /// streams[i]'s N_i to sizes[i] (`sizes` is resized to match). Every
  /// sub-stream receives >= 1 slot whenever total_budget >= |streams|
  /// (the fairness property stratification exists to provide); the slots
  /// beyond that floor go in proportion to score(), leftovers to the
  /// largest fractional remainders, ties to the lowest id.
  void allocate(std::size_t total_budget,
                const std::vector<SubStreamInfo>& streams,
                std::vector<std::size_t>& sizes);

  [[nodiscard]] virtual std::string name() const = 0;

 private:
  /// The sub-stream's claim on the slots beyond the one-per-stream floor.
  [[nodiscard]] virtual double score(const SubStreamInfo& stream) const = 0;

  /// Per-stream working value (score, then fractional remainder) and its
  /// position in `streams`; reused across calls.
  struct Share {
    double value{0.0};
    std::size_t index{0};
  };
  std::vector<Share> shares_;
};

/// Equal split: each of the k sub-streams gets floor(budget/k), with the
/// remainder dealt to the lowest ids. Matches the paper's fairness story:
/// no sub-stream is neglected regardless of its arrival rate.
class EqualAllocation final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "equal"; }

 private:
  [[nodiscard]] double score(const SubStreamInfo&) const override {
    return 1.0;
  }
};

/// Proportional to observed counts — this collapses stratified sampling
/// back towards SRS behaviour; included to quantify (ablation) how much of
/// ApproxIoT's accuracy win comes from equal allocation.
class ProportionalAllocation final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "proportional"; }

 private:
  [[nodiscard]] double score(const SubStreamInfo& stream) const override {
    return static_cast<double>(stream.count);
  }
};

/// Neyman allocation: proportional to count * stddev, the
/// variance-minimising split for estimating a total. An extension beyond
/// the paper (its future-work "automated cost function" direction).
class NeymanAllocation final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "neyman"; }

 private:
  [[nodiscard]] double score(const SubStreamInfo& stream) const override;
};

/// Factory by policy name ("equal" | "proportional" | "neyman").
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_allocation_policy(
    const std::string& name);

}  // namespace approxiot::sampling
