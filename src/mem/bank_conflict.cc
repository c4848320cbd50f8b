#include "mem/bank_conflict.h"

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

namespace g80 {

BankConflictResult analyze_shared_half_warp(const DeviceSpec& spec,
                                            const MemAccess* lanes,
                                            int lane_count) {
  const int hw = spec.warp_size / 2;
  lane_count = std::min(lane_count, hw);
  const int banks = spec.shared_mem_banks;

  // Distinct words touched per bank.
  std::vector<std::set<std::uint64_t>> words(static_cast<std::size_t>(banks));
  std::set<std::uint64_t> all_words;
  int active = 0;
  for (int k = 0; k < lane_count; ++k) {
    if (!lanes[k].active) continue;
    ++active;
    // Multi-word accesses (e.g. float2/float4) touch consecutive banks.
    for (std::uint32_t off = 0; off < lanes[k].size; off += 4) {
      const std::uint64_t word = (lanes[k].addr + off) / 4;
      words[word % banks].insert(word);
      all_words.insert(word);
    }
  }

  BankConflictResult r;
  if (active == 0) return r;
  if (all_words.size() == 1) {
    r.broadcast = true;
    r.serialization = 1;
    return r;
  }
  int worst = 1;
  for (const auto& w : words)
    worst = std::max(worst, static_cast<int>(w.size()));
  r.serialization = worst;
  return r;
}

WarpBankCost analyze_shared_warp(const DeviceSpec& spec, const WarpAccess& warp) {
  const int hw = spec.warp_size / 2;
  WarpBankCost cost;
  for (std::size_t lo = 0; lo < warp.size(); lo += hw) {
    const int n = static_cast<int>(std::min<std::size_t>(hw, warp.size() - lo));
    bool any_active = false;
    for (int k = 0; k < n; ++k) any_active |= warp[lo + k].active;
    if (!any_active) continue;
    const auto half = analyze_shared_half_warp(spec, warp.data() + lo, n);
    cost.passes += half.serialization;
    cost.extra_passes += half.serialization - 1;
  }
  return cost;
}

namespace {

// Exact conflict-free test for a power-of-two bank count <= 64: one pass
// over the active lanes' words keeps the first word seen per bank (bank =
// word & (banks - 1), no division) and a mask of banks in use.  True when no
// bank sees two different words, i.e. the degree is 1 (broadcast included);
// false on the first clash, whose degree the caller computes exactly.
bool conflict_free_pow2(const std::uint64_t* addr, std::uint32_t half_mask,
                        std::uint32_t size, int banks) {
  const std::uint64_t bank_mask = static_cast<std::uint64_t>(banks) - 1;
  std::uint64_t first[64];
  std::uint64_t used = 0;
  for (std::uint32_t m = half_mask; m != 0; m &= m - 1) {
    const std::uint64_t base = addr[std::countr_zero(m)];
    for (std::uint32_t off = 0; off < size; off += 4) {
      const std::uint64_t word = (base + off) / 4;
      const std::uint64_t b = word & bank_mask;
      const std::uint64_t bit = std::uint64_t{1} << b;
      if ((used & bit) == 0) {
        used |= bit;
        first[b] = word;
      } else if (first[b] != word) {
        return false;
      }
    }
  }
  return true;
}

// Serialization degree of one SoA half-warp.  Conflict-free accesses with a
// power-of-two bank count (G80's 16) return from conflict_free_pow2; any
// other access takes the exact path: distinct words via a small
// insert-unique array (<= 16 lanes x size/4 words in practice), then the
// worst per-bank degree from a counter table — each distinct word lands in
// exactly one bank, so counting distinct words per bank equals the legacy
// per-bank set sizes.
int half_warp_serialization_soa(const DeviceSpec& spec,
                                const SoaWarpAccess& row, int lo, int n) {
  const std::uint32_t half_mask =
      (n >= 32 ? ~0u : ((1u << n) - 1u)) & (row.mask >> lo);
  if (half_mask == 0) return 0;  // nothing issued
  const int banks = spec.shared_mem_banks;
  const std::uint64_t* addr = row.addrs + lo;
  const bool pow2_banks = banks > 0 && banks <= 64 &&
                          std::has_single_bit(static_cast<unsigned>(banks));
  if (pow2_banks && conflict_free_pow2(addr, half_mask, row.size, banks))
    return 1;

  std::uint64_t words[128];
  int nwords = 0;
  bool overflow = banks > 64;  // counter table bound; G80 has 16 banks
  for (int k = 0; k < n && !overflow; ++k) {
    if ((half_mask >> k & 1u) == 0) continue;
    for (std::uint32_t off = 0; off < row.size; off += 4) {
      const std::uint64_t word = (addr[k] + off) / 4;
      int i = 0;
      while (i < nwords && words[i] != word) ++i;
      if (i == nwords) {
        if (nwords == 128) {
          overflow = true;
          break;
        }
        words[nwords++] = word;
      }
    }
  }
  if (overflow) {
    // Unusually wide accesses: exact fallback through the legacy sets.
    std::vector<std::set<std::uint64_t>> per_bank(
        static_cast<std::size_t>(banks));
    std::set<std::uint64_t> all;
    for (int k = 0; k < n; ++k) {
      if ((half_mask >> k & 1u) == 0) continue;
      for (std::uint32_t off = 0; off < row.size; off += 4) {
        const std::uint64_t word = (addr[k] + off) / 4;
        per_bank[word % banks].insert(word);
        all.insert(word);
      }
    }
    if (all.size() == 1) return 1;
    int worst = 1;
    for (const auto& w : per_bank)
      worst = std::max(worst, static_cast<int>(w.size()));
    return worst;
  }

  if (nwords == 1) return 1;  // broadcast
  int counts[64] = {};
  for (int i = 0; i < nwords; ++i) ++counts[words[i] % banks];
  int worst = 1;
  for (int b = 0; b < banks; ++b) worst = std::max(worst, counts[b]);
  return worst;
}

}  // namespace

WarpBankCost analyze_shared_warp_soa(const DeviceSpec& spec,
                                     const SoaWarpAccess& row) {
  const int hw = spec.warp_size / 2;
  WarpBankCost cost;
  for (int lo = 0; lo < row.lanes; lo += hw) {
    const int n = std::min(hw, row.lanes - lo);
    const int ser = half_warp_serialization_soa(spec, row, lo, n);
    if (ser == 0) continue;  // no active lane in this half
    cost.passes += ser;
    cost.extra_passes += ser - 1;
  }
  return cost;
}

}  // namespace g80
