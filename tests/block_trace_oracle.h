// Block-level reference for the trace recorder, shared by trace_batch_test
// and invariant_fuzz_test.
//
// BlockTracer records one block exactly as launch()'s trace pass does — a
// BlockRunner runs TraceCtx + LaneRecorder threads into a TraceArena, then
// collect_block_trace builds the BlockTrace — with one switch: an
// `all_dirty` tracer marks all six streams of every warp diverged right
// after begin_block.  Every access, branch outcome and barrier then goes to
// the per-lane overflow vectors and the collector regroups it by (site,
// occurrence-at-site): the per-lane grouping that defines what a warp-level
// instruction is.  A clean recording of the same block must collect to the
// same BlockTrace.  Like a launch's worker slot, one tracer reuses its
// runner and arena across every block it records.
//
// reference::collect_block_trace is the slow, obviously-exact collector the
// production one is checked against: it reconstructs every lane's event
// sequences from the arena, groups lanes' accesses by (site, occurrence)
// through hash maps into AoS WarpAccess groups and scores each with the AoS
// analyzers, groups branch outcomes the same way, and tallies each barrier
// site as the maximum over lanes of the lane's count there.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cudalite/ctx.h"
#include "cudalite/launch.h"
#include "cudalite/trace_arena.h"
#include "cudalite/trace_collect.h"
#include "exec/block_runner.h"
#include "mem/bank_conflict.h"
#include "mem/coalescing.h"
#include "mem/const_cache.h"
#include "mem/texture_cache.h"

namespace g80 {

namespace reference {

// Key of one warp-level dynamic instruction: the static call site plus the
// per-lane occurrence index at that site.
struct InstKey {
  std::uint32_t site = 0;
  std::uint32_t occurrence = 0;
  bool operator==(const InstKey&) const = default;
};

struct InstKeyHash {
  std::size_t operator()(const InstKey& k) const {
    return (static_cast<std::size_t>(k.site) << 20) ^ k.occurrence;
  }
};

// Lane `sub`'s exact event sequence in one stream: its matched prefix rows,
// then its overflow tail.  A branch event's `addr` is 1 when taken.
inline std::vector<MemAccess> lane_sequence(const WarpSpaceBatch& s, int sub) {
  std::vector<MemAccess> out;
  const auto k = static_cast<std::size_t>(sub);
  const auto unpack = [](std::uint64_t key, std::uint64_t addr) {
    return MemAccess{addr, trace_key_size(key), trace_key_site(key), true,
                     trace_key_store(key)};
  };
  for (std::uint32_t j = 0; j < s.cursor[k]; ++j)
    out.push_back(unpack(s.keys[j], s.row_addrs(j)[k]));
  for (const TraceEvent& e : s.overflow[k])
    out.push_back(unpack(e.key, e.addr));
  return out;
}

// Groups per-lane access sequences by (site, occurrence) into warp-level
// instructions, in first-appearance order.
inline std::vector<WarpAccess> group_warp_instructions(
    const std::vector<std::vector<MemAccess>>& seqs, int warp_size) {
  std::unordered_map<InstKey, std::size_t, InstKeyHash> index;
  std::vector<WarpAccess> groups;
  std::unordered_map<std::uint32_t, std::uint32_t> occurrence;
  for (std::size_t k = 0; k < seqs.size(); ++k) {
    occurrence.clear();
    for (const MemAccess& a : seqs[k]) {
      const InstKey key{a.site, occurrence[a.site]++};
      auto [it, inserted] = index.emplace(key, groups.size());
      if (inserted) groups.emplace_back(warp_size);
      groups[it->second][k] = a;
    }
  }
  return groups;
}

// The warp-level instructions of one (warp, space) stream.
inline std::vector<WarpAccess> stream_instructions(const WarpSpaceBatch& s,
                                                   int lane_count) {
  std::vector<std::vector<MemAccess>> seqs;
  for (int k = 0; k < lane_count; ++k) seqs.push_back(lane_sequence(s, k));
  return group_warp_instructions(seqs, s.stride);
}

// The first active lane's access: every lane of a group shares its site.
inline const MemAccess& first_active(const WarpAccess& acc) {
  for (const MemAccess& a : acc)
    if (a.active) return a;
  return acc.front();
}

inline BlockTrace collect_block_trace(const DeviceSpec& spec,
                                      const TraceArena& arena) {
  const int ws = spec.warp_size;
  const int n = arena.num_lanes();
  BlockTrace block;
  std::map<std::uint32_t, SiteStats> sites;
  const auto site_at = [&](std::uint32_t site) -> SiteStats& {
    auto [it, inserted] = sites.try_emplace(site);
    if (inserted) {
      it->second.site = site;
      for (const SiteNote& note : arena.site_notes())
        if (note.site == site && it->second.line == 0) {
          it->second.file = note.file;
          it->second.line = note.line;
        }
    }
    return it->second;
  };
  TextureCache tex(spec);

  for (int lo = 0; lo < n; lo += ws) {
    const int hi = std::min(lo + ws, n);
    const int w = lo / ws;
    WarpTrace& wt = block.warps.emplace_back();
    for (std::size_t c = 0; c < kNumOpClasses; ++c)
      for (int k = lo; k < hi; ++k)
        wt.ops.counts[c] =
            std::max(wt.ops.counts[c], arena.counters(k).ops.counts[c]);
    for (int k = lo; k < hi; ++k) wt.lane_flops += arena.counters(k).flops;

    std::unordered_map<InstKey, std::pair<bool, bool>, InstKeyHash> outcomes;
    for (int k = lo; k < hi; ++k) {
      std::unordered_map<std::uint32_t, std::uint32_t> occurrence;
      for (const MemAccess& b :
           lane_sequence(arena.stream(w, kStreamBranch), k - lo)) {
        auto& [taken, not_taken] = outcomes[{b.site, occurrence[b.site]++}];
        (b.addr != 0 ? taken : not_taken) = true;
      }
    }
    wt.branches = outcomes.size();
    for (const auto& [key, o] : outcomes)
      if (o.first && o.second) ++wt.divergent_branches;

    for (const WarpAccess& acc :
         stream_instructions(arena.stream(w, kSpaceGlobal), hi - lo)) {
      const MemAccess& a = first_active(acc);
      const CoalesceResult res = analyze_warp(spec, acc);
      SiteStats& ss = site_at(a.site);
      ++ss.global_instructions;
      ss.global_transactions += static_cast<std::uint64_t>(res.transactions);
      ss.dram_bytes += res.dram_bytes;
      if (!res.coalesced) ++ss.uncoalesced_instructions;
      if (res.transactions > 2)
        ss.extra_transactions +=
            static_cast<std::uint64_t>(res.transactions - 2);
      ++wt.global_instructions;
      wt.global.transactions += static_cast<std::uint64_t>(res.transactions);
      wt.global.bytes += res.dram_bytes;
      wt.global.scattered_bytes += res.scattered_bytes;
      wt.useful_global_bytes += res.useful_bytes;
      if (res.coalesced) ++wt.coalesced_instructions;
      ++(a.store ? wt.gst_instructions : wt.gld_instructions);
      if (res.coalesced) ++(a.store ? wt.gst_coalesced : wt.gld_coalesced);
    }
    for (const WarpAccess& acc :
         stream_instructions(arena.stream(w, kSpaceShared), hi - lo)) {
      const auto extra = static_cast<std::uint64_t>(
          analyze_shared_warp(spec, acc).extra_passes);
      wt.shared_extra_passes += extra;
      site_at(first_active(acc).site).shared_extra_passes += extra;
    }
    for (const WarpAccess& acc :
         stream_instructions(arena.stream(w, kSpaceConst), hi - lo)) {
      const auto extra = static_cast<std::uint64_t>(
          analyze_const_warp(spec, acc).extra_passes);
      wt.const_extra_passes += extra;
      site_at(first_active(acc).site).const_extra_passes += extra;
    }
    for (const WarpAccess& acc :
         stream_instructions(arena.stream(w, kSpaceTexture), hi - lo)) {
      std::uint64_t misses = 0;
      for (const MemAccess& a : acc) {
        if (!a.active) continue;
        if (tex.access(a.addr)) ++wt.texture_hits;
        else ++misses;
      }
      if (misses == 0) continue;
      const std::uint64_t bytes = misses * spec.texture_cache_line;
      wt.texture_misses += misses;
      wt.global_instructions += 1;
      wt.global.transactions += misses;
      wt.global.bytes += bytes;
      wt.global.scattered_bytes += bytes;
      SiteStats& ss = site_at(first_active(acc).site);
      ss.texture_misses += misses;
      ss.global_transactions += misses;
      ss.dram_bytes += bytes;
    }

    std::map<std::uint32_t, std::uint64_t> warp_syncs;
    for (int k = lo; k < hi; ++k) {
      std::map<std::uint32_t, std::uint64_t> lane_syncs;
      for (const MemAccess& b :
           lane_sequence(arena.stream(w, kStreamSync), k - lo))
        ++lane_syncs[b.site];
      for (const auto& [site, count] : lane_syncs)
        warp_syncs[site] = std::max(warp_syncs[site], count);
    }
    for (const auto& [site, count] : warp_syncs) site_at(site).syncs += count;
  }
  for (const auto& [site, stats] : sites) block.sites.push_back(stats);
  merge_site_stats(block.sites, {});
  return block;
}

}  // namespace reference

class BlockTracer {
 public:
  BlockTracer(const DeviceSpec& spec, Dim3 grid, Dim3 block, bool uses_sync,
              bool all_dirty)
      : spec_(spec),
        grid_(grid),
        block_(block),
        threads_(static_cast<int>(block.count())),
        uses_sync_(uses_sync),
        all_dirty_(all_dirty),
        runner_(uses_sync ? threads_ : 1, spec.shared_mem_per_sm) {}

  // Records block `linear` (row-major block index) of the grid.
  template <class Kernel, class... Args>
  BlockTrace record(std::uint64_t linear, const Kernel& kernel,
                    Args&... args) {
    arena_.begin_block(spec_, threads_);
    if (all_dirty_) {
      for (int w = 0; w < arena_.num_warps(); ++w)
        for (int s = 0; s < kNumTraceStreams; ++s)
          arena_.stream(w, s)->diverged = ~0u;
    }
    BlockEnv env{&runner_, grid_, block_,
                 delinearize(static_cast<unsigned>(linear), grid_)};
    const auto body = [&](int tid) {
      TraceCtx ctx(&env, tid, LaneRecorder(&arena_, tid));
      kernel(ctx, args...);
    };
    if (uses_sync_) {
      runner_.run(threads_, body);
    } else {
      runner_.run_direct(threads_, body);
    }
    return collect_block_trace(spec_, arena_);
  }

  // reference::collect_block_trace of the last recorded block.
  BlockTrace reference() const {
    return reference::collect_block_trace(spec_, arena_);
  }

  // Whether the last recorded block sent any stream to the divergence
  // fallback.
  bool any_dirty() const {
    for (int w = 0; w < arena_.num_warps(); ++w)
      for (int s = 0; s < kNumTraceStreams; ++s)
        if (arena_.stream(w, s).dirty()) return true;
    return false;
  }

 private:
  DeviceSpec spec_;
  Dim3 grid_, block_;
  int threads_;
  bool uses_sync_;
  bool all_dirty_;
  BlockRunner runner_;
  TraceArena arena_;
};

// The TraceSummary a launch with `sample_blocks` must report, built from
// all-dirty recordings of the blocks the launch samples.
template <class Kernel, class... Args>
TraceSummary oracle_summary(const DeviceSpec& spec, Dim3 grid, Dim3 block,
                            bool uses_sync, int sample_blocks,
                            const Kernel& kernel, Args&... args) {
  BlockTracer oracle(spec, grid, block, uses_sync, /*all_dirty=*/true);
  std::vector<BlockTrace> traces;
  for (const std::uint64_t b :
       detail::pick_sample_blocks(grid.count(), sample_blocks))
    traces.push_back(oracle.record(b, kernel, args...));
  return TraceSummary::summarize(traces);
}

}  // namespace g80
