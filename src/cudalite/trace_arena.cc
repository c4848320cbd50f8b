#include "cudalite/trace_arena.h"

#include <algorithm>

#include "common/error.h"

namespace g80 {

// ---------------------------------------------------------------------------
// SiteInterner
// ---------------------------------------------------------------------------

void SiteInterner::clear() {
  std::fill(slots_.begin(), slots_.end(), kEmpty);
  count_ = 0;
}

void SiteInterner::grow() {
  const std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(cap, kEmpty);
  for (const std::uint64_t v : old) {
    if (v == kEmpty) continue;
    std::size_t i = (v * 0x9e3779b97f4a7c15ull) & (cap - 1);
    while (slots_[i] != kEmpty) i = (i + 1) & (cap - 1);
    slots_[i] = v;
  }
}

bool SiteInterner::insert(std::uint32_t site) {
  if (slots_.empty() || count_ * 10 >= slots_.size() * 7) grow();
  const std::uint64_t v = site;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = (v * 0x9e3779b97f4a7c15ull) & mask;
  while (slots_[i] != kEmpty) {
    if (slots_[i] == v) return false;
    i = (i + 1) & mask;
  }
  slots_[i] = v;
  ++count_;
  return true;
}

// ---------------------------------------------------------------------------
// WarpSpaceBatch
// ---------------------------------------------------------------------------

void WarpSpaceBatch::reconstruct_lane(int sub,
                                      std::vector<MemAccess>* out) const {
  out->clear();
  const std::uint32_t prefix = cursor[static_cast<std::size_t>(sub)];
  out->reserve(prefix + overflow[static_cast<std::size_t>(sub)].size());
  for (std::uint32_t j = 0; j < prefix; ++j) {
    const std::uint64_t key = keys[j];
    out->push_back({addrs[j * static_cast<std::size_t>(stride) + sub],
                    trace_key_size(key), trace_key_site(key), true,
                    trace_key_store(key)});
  }
  const auto& tail = overflow[static_cast<std::size_t>(sub)];
  out->insert(out->end(), tail.begin(), tail.end());
}

// ---------------------------------------------------------------------------
// TraceArena
// ---------------------------------------------------------------------------

void TraceArena::begin_block(const DeviceSpec& spec, int num_lanes) {
  G80_CHECK(supported_trace_warp_size(spec.warp_size) && num_lanes > 0);
  warp_size_ = spec.warp_size;
  num_warps_ = (num_lanes + warp_size_ - 1) / warp_size_;
  const std::size_t need =
      static_cast<std::size_t>(num_warps_) * kNumTraceSpaces;
  if (streams_.size() < need) streams_.resize(need);
  for (std::size_t i = 0; i < need; ++i) streams_[i].reset(warp_size_);
  sites_.clear();
}

}  // namespace g80
