#include "sampling/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace approxiot::sampling {

void AllocationPolicy::allocate(std::size_t total_budget,
                                const std::vector<SubStreamInfo>& streams,
                                std::vector<std::size_t>& sizes) {
  const std::size_t k = streams.size();
  sizes.assign(k, 0);
  if (k == 0) return;
  shares_.resize(k);

  if (total_budget <= k) {
    // Degenerate budget: give everything one slot until it runs out,
    // lowest ids first (deterministic).
    for (std::size_t i = 0; i < k; ++i) shares_[i] = Share{0.0, i};
    std::sort(shares_.begin(), shares_.end(),
              [&](const Share& a, const Share& b) {
                return streams[a.index].id < streams[b.index].id;
              });
    for (std::size_t i = 0; i < total_budget; ++i) {
      sizes[shares_[i].index] = 1;
    }
    return;
  }

  double score_sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    shares_[i] = Share{score(streams[i]), i};
    score_sum += shares_[i].value;
  }

  // Reserve one guaranteed slot per stream, then split the rest by score.
  const std::size_t spare = total_budget - k;
  std::size_t assigned = 0;
  for (Share& s : shares_) {
    const double share =
        score_sum > 0.0
            ? static_cast<double>(spare) * (s.value / score_sum)
            : static_cast<double>(spare) / static_cast<double>(k);
    const auto whole = static_cast<std::size_t>(share);
    sizes[s.index] = 1 + whole;
    s.value = share - static_cast<double>(whole);
    assigned += 1 + whole;
  }
  if (assigned >= total_budget) return;

  // Deal leftover slots to the largest fractional remainders.
  std::sort(shares_.begin(), shares_.end(),
            [&](const Share& a, const Share& b) {
              if (a.value != b.value) return a.value > b.value;
              return streams[a.index].id < streams[b.index].id;
            });
  for (std::size_t i = 0; assigned < total_budget && i < k; ++i, ++assigned) {
    ++sizes[shares_[i].index];
  }
}

double NeymanAllocation::score(const SubStreamInfo& stream) const {
  return static_cast<double>(stream.count) *
         std::max(stream.value_stddev, 1e-12);
}

std::unique_ptr<AllocationPolicy> make_allocation_policy(
    const std::string& name) {
  if (name == "equal") return std::make_unique<EqualAllocation>();
  if (name == "proportional") return std::make_unique<ProportionalAllocation>();
  if (name == "neyman") return std::make_unique<NeymanAllocation>();
  throw std::invalid_argument("unknown allocation policy '" + name + "'");
}

}  // namespace approxiot::sampling
