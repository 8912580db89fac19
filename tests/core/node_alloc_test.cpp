// Heap-allocation budget of the steady-state sampling path. Algorithm 2
// runs WHSamp once per (W^in, items) pair, so anything a warmed-up node
// allocates per pair is paid thousands of times per interval in a wide
// tree. Only the payload that leaves the node may allocate: each output
// pair's item arena, stratum directory and W^out.
//
// The executable replaces the global operator new to count calls, which
// is why these tests live in a binary of their own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/node.hpp"
#include "core/theta_store.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace approxiot::core {
namespace {

constexpr std::size_t kPairs = 5;
constexpr std::size_t kItemsPerPair = 14;
constexpr std::uint64_t kSubStreams = 4;

/// A fixed Ψ: five pairs of 14 items over four interleaved sub-streams,
/// each pair carrying the weights of the layer below.
std::vector<ItemBundle> fixed_psi() {
  std::vector<ItemBundle> psi(kPairs);
  for (std::size_t p = 0; p < kPairs; ++p) {
    for (std::uint64_t s = 1; s <= kSubStreams; ++s) {
      psi[p].w_in.set(SubStreamId{s}, 1.0 + static_cast<double>(s + p));
    }
    for (std::size_t i = 0; i < kItemsPerPair; ++i) {
      const SubStreamId source{1 + (i * 7 + p) % kSubStreams};
      psi[p].items.push_back(
          Item{source, static_cast<double>(i * 3 + p), 0});
    }
  }
  return psi;
}

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(NodeAllocationTest, WarmIntervalAllocatesOnlyTheOutputPayload) {
  NodeConfig config;
  config.budget.sampling_fraction = 0.5;  // reservoirs overflow: Eq. 1-2
  SamplingNode node(config);
  const std::vector<ItemBundle> psi = fixed_psi();
  for (int warm = 0; warm < 8; ++warm) (void)node.process_interval(psi);

  constexpr std::size_t kIntervals = 50;
  std::size_t counted = 0;
  std::size_t pairs = 0;
  std::size_t sampled = 0;
  for (std::size_t interval = 0; interval < kIntervals; ++interval) {
    const std::size_t before = allocations();
    const std::vector<SampledBundle> outputs = node.process_interval(psi);
    counted += allocations() - before;
    pairs += outputs.size();
    for (const SampledBundle& out : outputs) sampled += out.item_count();
  }
  ASSERT_EQ(pairs, kIntervals * kPairs);
  EXPECT_LT(sampled, kIntervals * kPairs * kItemsPerPair);  // it did sample
  EXPECT_GT(counted, 0u);  // the counting operator new is live
  // Per non-empty pair: item arena, stratum directory, W^out. Per
  // interval: the output vector.
  EXPECT_LE(counted, kIntervals * (3 * kPairs + 1))
      << static_cast<double>(counted) / static_cast<double>(pairs)
      << " allocations per pair";
}

TEST(NodeAllocationTest, MergeIntoAClearedThetaAllocatesNothing) {
  // The concurrent root builds each interval's pairs outside its lock and
  // splices them in under it; once a window has been closed, the splice
  // lands in storage clear() kept and must not allocate.
  const std::vector<ItemBundle> psi = fixed_psi();
  NodeConfig config;
  config.budget.sampling_fraction = 0.5;
  SamplingNode node(config);

  ThetaStore theta;
  auto run_window = [&](std::size_t& merge_allocations) {
    for (int interval = 0; interval < 10; ++interval) {
      ThetaStore delta;
      for (const SampledBundle& out : node.process_interval(psi)) {
        delta.add(out);
      }
      const std::size_t before = allocations();
      theta.merge(std::move(delta));
      merge_allocations += allocations() - before;
    }
    EXPECT_EQ(theta.sub_streams().size(), kSubStreams);
    theta.clear();
  };
  std::size_t first_window = 0;
  run_window(first_window);
  std::size_t warm_windows = 0;
  for (int window = 0; window < 3; ++window) run_window(warm_windows);
  EXPECT_EQ(warm_windows, 0u);
}

TEST(NodeAllocationTest, ThetaReleasesSubStreamsAbsentForAWholeWindow) {
  // Warm storage is kept only for the sub-streams of the window just
  // closed, so ever-new ids (ephemeral devices) cannot grow Θ without
  // bound: storage of ids absent from a whole window is given back.
  auto window_over = [](ThetaStore& theta, std::uint64_t first_id) {
    ThetaStore delta;
    for (std::uint64_t id = first_id; id < first_id + 4; ++id) {
      delta.add_pair(SubStreamId{id},
                     WeightedSample{2.0, {Item{SubStreamId{id}, 1.0, 0}}});
    }
    const std::size_t before = allocations();
    theta.merge(std::move(delta));
    const std::size_t merged = allocations() - before;
    theta.clear();
    return merged;
  };
  ThetaStore theta;
  (void)window_over(theta, 1);
  EXPECT_EQ(window_over(theta, 1), 0u);  // same ids: warm storage
  (void)window_over(theta, 100);         // ids 1-4 absent for a window
  (void)window_over(theta, 200);         // ... and gone after its clear
  EXPECT_GT(window_over(theta, 1), 0u);
}

}  // namespace
}  // namespace approxiot::core
