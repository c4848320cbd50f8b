#include "cudalite/trace_collect.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/error.h"
#include "cudalite/trace_arena.h"
#include "mem/bank_conflict.h"
#include "mem/coalescing.h"
#include "mem/const_cache.h"
#include "mem/texture_cache.h"

namespace g80 {

namespace {

// Groups per-lane event sequences into warp-level dynamic instructions keyed
// by (static site, per-lane occurrence at that site), numbering the groups
// as rows in first-appearance order (lane by lane, each lane in program
// order).  A stream touches a handful of sites, so sites map to dense
// indices by a linear scan behind a last-hit memo, and each site keeps its
// occurrence -> row vector.  All capacity is reused across streams and
// warps of a block.
class OccurrenceRows {
 public:
  void clear() {
    used_ = 0;
    last_ = 0;
    rows_ = 0;
  }
  // The next lane's occurrence counts start again from zero.
  void begin_lane() {
    for (std::size_t d = 0; d < used_; ++d) sites_[d].next = 0;
  }
  // Row of the current lane's next event at `site`; `opened` is set when the
  // event is the first of its group, which takes the next row index.
  std::uint32_t row(std::uint32_t site, bool& opened) {
    Site& s = find(site);
    const std::uint32_t occurrence = s.next++;
    opened = occurrence == s.rows.size();
    if (!opened) return s.rows[occurrence];
    s.rows.push_back(rows_);
    return rows_++;
  }

 private:
  struct Site {
    std::uint32_t site = 0;
    std::uint32_t next = 0;           // this lane's next occurrence index
    std::vector<std::uint32_t> rows;  // occurrence -> row
  };

  Site& find(std::uint32_t site) {
    if (last_ < used_ && sites_[last_].site == site) return sites_[last_];
    for (std::size_t d = 0; d < used_; ++d) {
      if (sites_[d].site == site) {
        last_ = d;
        return sites_[d];
      }
    }
    if (used_ == sites_.size()) sites_.emplace_back();
    Site& s = sites_[used_];
    s.site = site;
    s.next = 0;
    s.rows.clear();
    last_ = used_++;
    return s;
  }

  std::vector<Site> sites_;
  std::size_t used_ = 0;
  std::size_t last_ = 0;
  std::uint32_t rows_ = 0;
};

// Calls `f(key, addr)` for every access of lane `sub` of a batch stream, in
// the lane's program order: its matched prefix rows, then its overflow tail.
template <class F>
void for_each_lane_access(const WarpSpaceBatch& s, int sub, F&& f) {
  const std::size_t stride = static_cast<std::size_t>(s.stride);
  const std::uint32_t prefix = s.cursor[static_cast<std::size_t>(sub)];
  for (std::uint32_t j = 0; j < prefix; ++j)
    f(s.keys[j], s.addrs[j * stride + static_cast<std::size_t>(sub)]);
  for (const TraceEvent& e : s.overflow[static_cast<std::size_t>(sub)])
    f(e.key, e.addr);
}

// Reusable SoA columns a dirty stream is regrouped into: the same layout as
// a clean WarpSpaceBatch, so its rows feed the same *_soa analyzers.
struct RegroupedRows {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> masks;
  std::vector<std::uint64_t> addrs;  // `stride` slots per row
  int stride = 0;
  OccurrenceRows occurrences;
};

// Regroups a dirty (positionally-diverged) stream's exact per-lane
// sequences into `out` by (site, occurrence).  Returns false when some
// group would mix two static keys — one site issued at two widths or in
// both directions — which one SoA row cannot express; the caller then scores
// the stream through regroup_mixed_stream and the AoS analyzers.
bool regroup_dirty_stream(const WarpSpaceBatch& s, int lane_count,
                          RegroupedRows& out) {
  const std::size_t stride = static_cast<std::size_t>(s.stride);
  out.keys.clear();
  out.masks.clear();
  out.addrs.clear();
  out.stride = s.stride;
  out.occurrences.clear();
  bool uniform = true;
  for (int k = 0; k < lane_count && uniform; ++k) {
    out.occurrences.begin_lane();
    const std::uint32_t bit = 1u << k;
    for_each_lane_access(s, k, [&](std::uint64_t key, std::uint64_t addr) {
      bool opened = false;
      const std::uint32_t r = out.occurrences.row(trace_key_site(key), opened);
      if (opened) {
        out.keys.push_back(key);
        out.masks.push_back(bit);
        out.addrs.resize(out.addrs.size() + stride);
      } else {
        uniform = uniform && out.keys[r] == key;
        out.masks[r] |= bit;
      }
      out.addrs[r * stride + static_cast<std::size_t>(k)] = addr;
    });
  }
  return uniform;
}

// The same grouping as regroup_dirty_stream, materialized as one AoS
// WarpAccess per warp-level instruction, for streams whose groups mix keys.
std::vector<WarpAccess> regroup_mixed_stream(const WarpSpaceBatch& s,
                                             int lane_count,
                                             OccurrenceRows& occurrences) {
  std::vector<WarpAccess> groups;
  occurrences.clear();
  for (int k = 0; k < lane_count; ++k) {
    occurrences.begin_lane();
    for_each_lane_access(s, k, [&](std::uint64_t key, std::uint64_t addr) {
      bool opened = false;
      const std::uint32_t r = occurrences.row(trace_key_site(key), opened);
      if (opened) groups.emplace_back(s.stride);
      groups[r][static_cast<std::size_t>(k)] =
          MemAccess{addr, trace_key_size(key), trace_key_site(key), true,
                    trace_key_store(key)};
    });
  }
  return groups;
}

// The call site of one reconstructed warp instruction: every grouped lane
// access shares it, so the first active lane decides.
std::uint32_t group_site(const WarpAccess& acc) {
  for (const MemAccess& a : acc) {
    if (a.active) return a.site;
  }
  return 0;
}

// Direction of one warp instruction (static property; any active lane).
bool group_store(const WarpAccess& acc) {
  for (const MemAccess& a : acc) {
    if (a.active) return a.store;
  }
  return false;
}

// Per-site accumulator for the g80scope attribution (few distinct sites per
// kernel; linear probing is cheaper than hashing here).
class SiteAccumulator {
 public:
  explicit SiteAccumulator(const std::vector<SiteNote>& notes)
      : notes_(notes) {}

  SiteStats& at(std::uint32_t site) {
    for (SiteStats& s : sites_) {
      if (s.site == site) return s;
    }
    SiteStats s;
    s.site = site;
    for (const SiteNote& n : notes_) {
      if (n.site == site) {
        s.file = n.file;
        s.line = n.line;
        break;
      }
    }
    sites_.push_back(s);
    return sites_.back();
  }

  std::vector<SiteStats> take() { return std::move(sites_); }

 private:
  const std::vector<SiteNote>& notes_;
  std::vector<SiteStats> sites_;
};

// ---------------------------------------------------------------------------
// Per-instruction accumulation, shared verbatim by the clean (SoA row) and
// dirty (WarpAccess group) paths so the two cannot drift apart.
// ---------------------------------------------------------------------------

void accumulate_global(WarpTrace& wt, SiteAccumulator& sites,
                       std::uint32_t site, bool is_store,
                       const CoalesceResult& res) {
  {
    SiteStats& ss = sites.at(site);
    ++ss.global_instructions;
    ss.global_transactions += static_cast<std::uint64_t>(res.transactions);
    ss.dram_bytes += res.dram_bytes;
    if (!res.coalesced) ++ss.uncoalesced_instructions;
    if (res.transactions > 2) {
      ss.extra_transactions +=
          static_cast<std::uint64_t>(res.transactions - 2);
    }
  }
  ++wt.global_instructions;
  wt.global.transactions += static_cast<std::uint64_t>(res.transactions);
  wt.global.bytes += res.dram_bytes;
  wt.global.scattered_bytes += res.scattered_bytes;
  wt.useful_global_bytes += res.useful_bytes;
  if (res.coalesced) ++wt.coalesced_instructions;
  // Load/store split for the g80prof gld_*/gst_* counters.
  if (is_store) {
    ++wt.gst_instructions;
    if (res.coalesced) ++wt.gst_coalesced;
  } else {
    ++wt.gld_instructions;
    if (res.coalesced) ++wt.gld_coalesced;
  }
}

void accumulate_shared(WarpTrace& wt, SiteAccumulator& sites,
                       std::uint32_t site, const WarpBankCost& cost) {
  wt.shared_extra_passes += static_cast<std::uint64_t>(cost.extra_passes);
  sites.at(site).shared_extra_passes +=
      static_cast<std::uint64_t>(cost.extra_passes);
}

void accumulate_const(WarpTrace& wt, SiteAccumulator& sites,
                      std::uint32_t site, const WarpConstCost& cost) {
  wt.const_extra_passes += static_cast<std::uint64_t>(cost.extra_passes);
  sites.at(site).const_extra_passes +=
      static_cast<std::uint64_t>(cost.extra_passes);
}

// Texture misses behave like latency-bound scattered DRAM transactions of
// one cache line, charged to the warp's global traffic.
void accumulate_texture(const DeviceSpec& spec, WarpTrace& wt,
                        SiteAccumulator& sites, std::uint32_t site,
                        std::uint64_t hits, std::uint64_t misses) {
  wt.texture_hits += hits;
  wt.texture_misses += misses;
  if (misses > 0) {
    wt.global_instructions += 1;
    wt.global.transactions += misses;
    const std::uint64_t b = misses * spec.texture_cache_line;
    wt.global.bytes += b;
    wt.global.scattered_bytes += b;
    SiteStats& ss = sites.at(site);
    ss.texture_misses += misses;
    ss.global_transactions += misses;
    ss.dram_bytes += b;
  }
}

// Feeds every warp-level instruction of one stream, in first-appearance
// order, to `on_row(site, store, SoaWarpAccess)`: a clean stream's rows ARE
// that sequence, and a dirty stream is regrouped into `scratch`'s rows
// first.  Only a dirty stream whose groups mix static keys goes to
// `on_group(site, store, WarpAccess)` instead.
template <class OnRow, class OnGroup>
void for_each_instruction(const WarpSpaceBatch& s, int lane_count,
                          RegroupedRows& scratch, OnRow&& on_row,
                          OnGroup&& on_group) {
  // `rows` is a WarpSpaceBatch or RegroupedRows: the same SoA columns.
  const auto feed = [&](const auto& rows) {
    const std::size_t stride = static_cast<std::size_t>(rows.stride);
    for (std::size_t j = 0; j < rows.keys.size(); ++j) {
      const std::uint64_t key = rows.keys[j];
      on_row(trace_key_site(key), trace_key_store(key),
             SoaWarpAccess{rows.masks[j], trace_key_size(key),
                           rows.addrs.data() + j * stride, rows.stride});
    }
  };
  if (!s.dirty()) return feed(s);
  if (regroup_dirty_stream(s, lane_count, scratch)) return feed(scratch);
  for (const WarpAccess& acc :
       regroup_mixed_stream(s, lane_count, scratch.occurrences))
    on_group(group_site(acc), group_store(acc), acc);
}

// A branch row is divergent when its active lanes disagree: some slots hold
// 1 (taken) and some 0.
bool divergent(const SoaWarpAccess& row) {
  std::uint32_t taken = 0;
  for (std::uint32_t m = row.mask; m != 0; m &= m - 1) {
    const int lane = std::countr_zero(m);
    if (row.addrs[lane] != 0) taken |= 1u << lane;
  }
  return taken != 0 && taken != row.mask;
}

// Branch and barrier keys are bare sites, so their groups never mix keys.
void never_mixed(std::uint32_t, bool, const WarpAccess&) {
  G80_CHECK(!"a branch or barrier group mixed static keys");
}

}  // namespace

BlockTrace collect_block_trace(const DeviceSpec& spec,
                               const TraceArena& arena) {
  const int num_lanes = arena.num_lanes();
  G80_CHECK(num_lanes > 0);
  const int ws = spec.warp_size;
  const int num_warps = (num_lanes + ws - 1) / ws;
  G80_CHECK(arena.warp_size() == ws && arena.num_warps() == num_warps);

  BlockTrace block;
  block.warps.resize(num_warps);
  SiteAccumulator sites(arena.site_notes());
  RegroupedRows scratch;  // dirty-stream regrouping, reused across streams

  // One texture cache per block approximates the per-SM cache shared by the
  // blocks resident on an SM (they run the same kernel, so per-block
  // hit rates are representative).
  TextureCache tex_cache(spec);

  for (int w = 0; w < num_warps; ++w) {
    WarpTrace& wt = block.warps[w];
    const int lo = w * ws;
    const int hi = std::min(lo + ws, num_lanes);

    // --- Instruction counts: per-class max over lanes (exact when the warp
    // is divergence-free). ---
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      std::uint64_t mx = 0;
      for (int k = lo; k < hi; ++k)
        mx = std::max(mx, arena.counters(k).ops.counts[c]);
      wt.ops.counts[c] = mx;
    }
    for (int k = lo; k < hi; ++k) wt.lane_flops += arena.counters(k).flops;

    const int lanes_in_warp = hi - lo;

    // --- Global memory: coalescing per warp-level instruction ---
    for_each_instruction(
        arena.stream(w, kSpaceGlobal), lanes_in_warp, scratch,
        [&](std::uint32_t site, bool store, const SoaWarpAccess& row) {
          accumulate_global(wt, sites, site, store,
                            analyze_warp_soa(spec, row));
        },
        [&](std::uint32_t site, bool store, const WarpAccess& acc) {
          accumulate_global(wt, sites, site, store, analyze_warp(spec, acc));
        });

    // --- Shared memory: bank conflicts ---
    for_each_instruction(
        arena.stream(w, kSpaceShared), lanes_in_warp, scratch,
        [&](std::uint32_t site, bool, const SoaWarpAccess& row) {
          accumulate_shared(wt, sites, site,
                            analyze_shared_warp_soa(spec, row));
        },
        [&](std::uint32_t site, bool, const WarpAccess& acc) {
          accumulate_shared(wt, sites, site, analyze_shared_warp(spec, acc));
        });

    // --- Constant memory: broadcast vs serialization ---
    for_each_instruction(
        arena.stream(w, kSpaceConst), lanes_in_warp, scratch,
        [&](std::uint32_t site, bool, const SoaWarpAccess& row) {
          accumulate_const(wt, sites, site, analyze_const_warp_soa(spec, row));
        },
        [&](std::uint32_t site, bool, const WarpAccess& acc) {
          accumulate_const(wt, sites, site, analyze_const_warp(spec, acc));
        });

    // --- Texture: run the cache in warp-instruction order ---
    for_each_instruction(
        arena.stream(w, kSpaceTexture), lanes_in_warp, scratch,
        [&](std::uint32_t site, bool, const SoaWarpAccess& row) {
          const auto res = tex_cache.access_warp_soa(row);
          accumulate_texture(spec, wt, sites, site, res.hits, res.misses);
        },
        [&](std::uint32_t site, bool, const WarpAccess& acc) {
          std::uint64_t hits = 0, misses = 0;
          for (const MemAccess& a : acc) {
            if (!a.active) continue;
            if (tex_cache.access(a.addr)) ++hits;
            else ++misses;
          }
          accumulate_texture(spec, wt, sites, site, hits, misses);
        });

    // --- Branch divergence: one row per warp-level branch ---
    for_each_instruction(
        arena.stream(w, kStreamBranch), lanes_in_warp, scratch,
        [&](std::uint32_t, bool, const SoaWarpAccess& row) {
          ++wt.branches;
          if (divergent(row)) ++wt.divergent_branches;
        },
        never_mixed);

    // --- Barriers: one row per warp-level bar.sync, so a site's count is
    // the most times any one lane reached it (the same max-over-lanes
    // convention as the per-class instruction counts above). ---
    for_each_instruction(
        arena.stream(w, kStreamSync), lanes_in_warp, scratch,
        [&](std::uint32_t site, bool, const SoaWarpAccess&) {
          ++sites.at(site).syncs;
        },
        never_mixed);
  }
  block.sites = sites.take();
  merge_site_stats(block.sites, {});  // impose the deterministic ordering
  return block;
}

}  // namespace g80
