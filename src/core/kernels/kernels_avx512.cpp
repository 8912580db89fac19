// AVX-512-tier counting pass (compiled with -mavx512f/dq/vl/bw; empty
// without SIMD support): for intervals with at most kMaxInlineStrata
// distinct sub-streams — every real deployment; the directory IS the
// stratum list — hashing disappears entirely. Ids load 8 per block via
// two cross-register permutes (cheaper than a hardware gather) and
// compare against the known-id list held broadcast in registers, with
// matches resolving through independent OR-accumulators (slot+1
// encoding, 0 = miss) so the compare chain has no serial blend
// dependency. Misses append to the list scalar-side (first-seen order,
// same dense numbering as the oracle) and the broadcast set refreshes.
// Past 64 distinct ids the pass restarts on the hash-probe fallback,
// output-identical.
#include "core/kernels/kernels_impl.hpp"

#if AIOT_KERNELS_X86

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace approxiot::core::kernels::detail {

namespace {

/// Slot+1 for `key` in list[0..live), appending on miss; 0 when full.
inline std::uint64_t list_slot_or_append(std::uint64_t* list,
                                         std::size_t& live,
                                         std::uint64_t key) noexcept {
  std::size_t slot = 0;
  while (slot < live && list[slot] != key) ++slot;
  if (slot == live) {
    if (live == kMaxInlineStrata) return 0;
    list[live++] = key;
  }
  return slot + 1;
}

/// The eight source ids of items [i, i+8): Item is 24 bytes with source
/// first, so the block is 24 quadwords with ids at 0,3,...,21. Two
/// vpermt2q steps pull them into one vector — far cheaper than a
/// vpgatherqq of eight strided loads.
inline __m512i load_keys8(const Item* p) noexcept {
  const __m512i z0 = _mm512_loadu_si512(p);                    // qw 0..7
  const __m512i z1 = _mm512_loadu_si512(
      reinterpret_cast<const std::uint64_t*>(p) + 8);          // qw 8..15
  const __m512i z2 = _mm512_loadu_si512(
      reinterpret_cast<const std::uint64_t*>(p) + 16);         // qw 16..23
  // Lanes 0..5 <- qwords 0,3,6,9,12,15 of z0:z1; lanes 6,7 patched from
  // z2 (qwords 18, 21 == z2 lanes 2, 5) in the second permute.
  const __m512i idx_a = _mm512_setr_epi64(0, 3, 6, 9, 12, 15, 0, 0);
  const __m512i idx_b = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 8 + 2, 8 + 5);
  const __m512i lo = _mm512_permutex2var_epi64(z0, idx_a, z1);
  return _mm512_permutex2var_epi64(lo, idx_b, z2);
}

}  // namespace

void count_pass_avx512(const Item* data, std::size_t n, CountScratch s,
                       std::uint32_t* item_slots) {
  alignas(64) std::uint64_t list[kMaxInlineStrata];
  std::size_t counts[kMaxInlineStrata] = {};
  std::size_t live = 0;

  // The broadcast cache: bl[t] holds set1(list[t]) for the live prefix.
  // Rebuilt only when the list grows — in steady state (every id seen in
  // the first blocks) the whole match loop runs register-resident.
  __m512i bl[kMaxInlineStrata];

  std::size_t i = 0;

  // Narrow stretch: while every known id fits 32 bits — IoT source ids
  // in practice — the match loop compares sixteen lanes per vector
  // instead of eight, halving the port-5 compare traffic. A per-block
  // range mask keeps it exact: any incoming wide id (which could alias
  // a narrow list entry after truncation) or any wide-id append drops
  // the pass to the 64-bit loop below, same dense numbering either way.
  bool leave_narrow = false;
  while (i + 16 <= n && !leave_narrow) {
    bool all_narrow = true;
    for (std::size_t t = 0; t < live; ++t) {
      all_narrow = all_narrow && list[t] <= 0xFFFFFFFFull;
    }
    if (!all_narrow) break;
    __m512i bl32[kMaxInlineStrata];
    for (std::size_t t = 0; t < live; ++t) {
      bl32[t] = _mm512_set1_epi32(static_cast<int>(list[t]));
    }
    const std::size_t live_at_build = live;
    const __m512i max32 = _mm512_set1_epi64(0xFFFFFFFFll);
    bool grew = false;
    for (; i + 16 <= n && !grew; i += 16) {
      const __m512i keys_a = load_keys8(data + i);
      const __m512i keys_b = load_keys8(data + i + 8);
      const __mmask8 wide =
          _mm512_cmpgt_epu64_mask(keys_a, max32) |
          _mm512_cmpgt_epu64_mask(keys_b, max32);
      if (__builtin_expect(wide != 0, 0)) {
        // Wide incoming id: its truncation could alias a narrow list
        // entry, so this and later blocks go through the 64-bit loop.
        leave_narrow = true;
        break;
      }
      // All-ones masked forms: same lanes as the unmasked intrinsics,
      // without GCC's self-initialised "undefined" merge source.
      const __m256i na = _mm512_maskz_cvtepi64_epi32(0xFF, keys_a);
      const __m256i nb = _mm512_maskz_cvtepi64_epi32(0xFF, keys_b);
      const __m512i k32 =
          _mm512_maskz_inserti64x4(0xFF, _mm512_castsi256_si512(na), nb, 1);
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      __m512i acc2 = _mm512_setzero_si512();
      __m512i acc3 = _mm512_setzero_si512();
      std::size_t t = 0;
      for (; t + 4 <= live_at_build; t += 4) {
        acc0 = _mm512_mask_mov_epi32(
            acc0, _mm512_cmpeq_epi32_mask(k32, bl32[t]),
            _mm512_set1_epi32(static_cast<int>(t + 1)));
        acc1 = _mm512_mask_mov_epi32(
            acc1, _mm512_cmpeq_epi32_mask(k32, bl32[t + 1]),
            _mm512_set1_epi32(static_cast<int>(t + 2)));
        acc2 = _mm512_mask_mov_epi32(
            acc2, _mm512_cmpeq_epi32_mask(k32, bl32[t + 2]),
            _mm512_set1_epi32(static_cast<int>(t + 3)));
        acc3 = _mm512_mask_mov_epi32(
            acc3, _mm512_cmpeq_epi32_mask(k32, bl32[t + 3]),
            _mm512_set1_epi32(static_cast<int>(t + 4)));
      }
      for (; t < live_at_build; ++t) {
        acc0 = _mm512_mask_mov_epi32(
            acc0, _mm512_cmpeq_epi32_mask(k32, bl32[t]),
            _mm512_set1_epi32(static_cast<int>(t + 1)));
      }
      const __m512i slots1 = _mm512_or_si512(_mm512_or_si512(acc0, acc1),
                                             _mm512_or_si512(acc2, acc3));
      const __mmask16 miss =
          _mm512_cmpeq_epi32_mask(slots1, _mm512_setzero_si512());
      if (__builtin_expect(miss == 0, 1)) {
        _mm512_storeu_si512(item_slots + i,
                            _mm512_sub_epi32(slots1, _mm512_set1_epi32(1)));
        for (std::size_t k = 0; k < 16; ++k) ++counts[item_slots[i + k]];
        continue;
      }
      // A lane missed: re-resolve the block scalar-side (appends keep
      // first-seen order), then rebuild the narrow broadcasts.
      for (std::size_t k = 0; k < 16; ++k) {
        const std::uint64_t slot1 = list_slot_or_append(
            list, live, data[i + k].source.value());
        if (slot1 == 0) {
          s.slot_ids->clear();
          s.slot_counts->clear();
          std::fill(s.slot_index->begin(), s.slot_index->end(), 0);
          count_pass_hash(data, n, s, item_slots);
          return;
        }
        ++counts[slot1 - 1];
        item_slots[i + k] = static_cast<std::uint32_t>(slot1 - 1);
      }
      grew = true;
    }
  }

  while (i + 8 <= n) {
    for (std::size_t t = 0; t < live; ++t) {
      bl[t] = _mm512_set1_epi64(static_cast<long long>(list[t]));
    }
    const std::size_t live_at_build = live;
    for (; i + 8 <= n; i += 8) {
      const __m512i keys = load_keys8(data + i);
      // Four independent accumulators hide the compare latency; at most
      // one list entry matches a lane, so OR composes the slot+1 values.
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      __m512i acc2 = _mm512_setzero_si512();
      __m512i acc3 = _mm512_setzero_si512();
      std::size_t t = 0;
      for (; t + 4 <= live_at_build; t += 4) {
        acc0 = _mm512_mask_mov_epi64(
            acc0, _mm512_cmpeq_epi64_mask(keys, bl[t]),
            _mm512_set1_epi64(static_cast<long long>(t + 1)));
        acc1 = _mm512_mask_mov_epi64(
            acc1, _mm512_cmpeq_epi64_mask(keys, bl[t + 1]),
            _mm512_set1_epi64(static_cast<long long>(t + 2)));
        acc2 = _mm512_mask_mov_epi64(
            acc2, _mm512_cmpeq_epi64_mask(keys, bl[t + 2]),
            _mm512_set1_epi64(static_cast<long long>(t + 3)));
        acc3 = _mm512_mask_mov_epi64(
            acc3, _mm512_cmpeq_epi64_mask(keys, bl[t + 3]),
            _mm512_set1_epi64(static_cast<long long>(t + 4)));
      }
      for (; t < live_at_build; ++t) {
        acc0 = _mm512_mask_mov_epi64(
            acc0, _mm512_cmpeq_epi64_mask(keys, bl[t]),
            _mm512_set1_epi64(static_cast<long long>(t + 1)));
      }
      const __m512i slots1 = _mm512_or_si512(_mm512_or_si512(acc0, acc1),
                                             _mm512_or_si512(acc2, acc3));
      const __mmask8 miss =
          _mm512_cmpeq_epi64_mask(slots1, _mm512_setzero_si512());
      if (__builtin_expect(miss == 0, 1)) {
        // All eight lanes hit: narrow slot+1 to 32 bits, subtract one,
        // and store the block's slots with a single write; counts bump
        // from the freshly-stored (L1-resident) slot array.
        const __m256i s32 = _mm512_maskz_cvtepi64_epi32(0xFF, slots1);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(item_slots + i),
            _mm256_sub_epi32(s32, _mm256_set1_epi32(1)));
        for (std::size_t k = 0; k < 8; ++k) ++counts[item_slots[i + k]];
        continue;
      }
      // Some lane missed the pre-block list: either a genuinely new id
      // or one another lane of this block just appended — re-resolve
      // every lane against the live list, then rebuild the broadcasts.
      for (std::size_t k = 0; k < 8; ++k) {
        const std::uint64_t slot1 = list_slot_or_append(
            list, live, data[i + k].source.value());
        if (slot1 == 0) {
          // 65th distinct sub-stream: restart the whole pass on the
          // hash path (double work, but an interval this wide is
          // outside every workload the directory is sized for).
          s.slot_ids->clear();
          s.slot_counts->clear();
          std::fill(s.slot_index->begin(), s.slot_index->end(), 0);
          count_pass_hash(data, n, s, item_slots);
          return;
        }
        ++counts[slot1 - 1];
        item_slots[i + k] = static_cast<std::uint32_t>(slot1 - 1);
      }
      i += 8;
      break;  // refresh bl[] for the grown list
    }
  }
  for (; i < n; ++i) {
    const std::uint64_t slot1 =
        list_slot_or_append(list, live, data[i].source.value());
    if (slot1 == 0) {
      s.slot_ids->clear();
      s.slot_counts->clear();
      std::fill(s.slot_index->begin(), s.slot_index->end(), 0);
      count_pass_hash(data, n, s, item_slots);
      return;
    }
    ++counts[slot1 - 1];
    item_slots[i] = static_cast<std::uint32_t>(slot1 - 1);
  }

  s.slot_ids->reserve(live);
  s.slot_counts->reserve(live);
  for (std::size_t k = 0; k < live; ++k) {
    s.slot_ids->push_back(SubStreamId{list[k]});
    s.slot_counts->push_back(counts[k]);
  }
}

}  // namespace approxiot::core::kernels::detail

#endif  // AIOT_KERNELS_X86
