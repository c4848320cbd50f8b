// Arena-backed SoA trace storage: the trace pass's only store.
//
// Everything a traced block records lands in its TraceArena:
//   - per-lane counters: each lane's instruction-class counts and flops;
//   - block-level site notes: the source position of every call site the
//     block used, one note per site (the arena interns sites block-wide);
//   - six instruction streams per warp: one per memory space (global,
//     shared, constant, texture), one of branch outcomes and one of barriers.
//
// The arena reconstructs each warp-level instruction *positionally while
// recording*, exploiting the structural fact the exec layer's warp-batched
// stepping exploits: the BlockRunner resumes the lanes of a warp in
// thread-index order, and within a converged warp every lane executes the
// same instruction sequence between barriers.
//
//   - Each (warp, stream) pair owns a WarpSpaceBatch: SoA columns with one
//     row per warp-level instruction — a packed static key, an active-lane
//     mask, and a lane-striped address column.  A memory row's key is
//     (site | size | store) and its slots hold the lanes' addresses; a branch
//     row's key is the site and a slot holds 1 (taken) or 0 (not taken); a
//     barrier row's key is the site and its slots are unused.
//   - The first lane to reach position j appends row j; every later lane
//     whose j-th event carries the same static key claims its mask bit and
//     address slot with a single compare — no hashing, no per-event
//     allocation (row capacity is reused across the blocks a slot traces).
//   - A lane whose j-th event does NOT match row j has diverged from the
//     warp's common instruction stream.  It permanently falls back to a
//     per-lane overflow vector of packed {key, addr} entries and the stream
//     is marked dirty; the collector then walks the exact per-lane sequences
//     (prefix rows + overflow) and regroups them by (site,
//     occurrence-at-site) into SoA rows of the same layout
//     (trace_collect.h), so divergent warps get the same warp-level
//     instructions and the same analyzers.
//   - record() reports whether an event joined an existing row; the
//     recorder interns a site only for events that did not.
//
// Why positional matching is exact for clean streams: every lane's matched
// rows form a prefix [0, cursor), so row j groups exactly the lanes whose
// j-th event it is, the shared key prefix makes the (site, occurrence) key
// of position j identical across lanes, and first-appearance order equals
// row order.  The same argument makes a barrier site's row count the
// largest number of times any one lane of the warp reached it.
// tests/trace_batch_test.cc and invariant-fuzz property 6 pin this: a block
// recorded with every stream forced dirty (`diverged = ~0u` after
// begin_block, so every event takes the overflow + regroup path) must
// collect to the same BlockTrace as the clean-row recording.
#pragma once

#include <array>
#include <cstdint>
#include <source_location>
#include <vector>

#include "hw/device_spec.h"
#include "hw/isa.h"

namespace g80 {

// ---------------------------------------------------------------------------
// A warp's streams (dense index into TraceArena streams): the memory spaces
// first, then branch outcomes and barriers.
// ---------------------------------------------------------------------------

inline constexpr int kNumTraceSpaces = 4;  // memory spaces
inline constexpr int kSpaceGlobal = 0;
inline constexpr int kSpaceShared = 1;
inline constexpr int kSpaceConst = 2;
inline constexpr int kSpaceTexture = 3;
inline constexpr int kStreamBranch = 4;
inline constexpr int kStreamSync = 5;
inline constexpr int kNumTraceStreams = 6;

// OpClass -> batch space (-1: not a recorded memory access).
constexpr int trace_space_of(OpClass c) {
  switch (c) {
    case OpClass::kLoadGlobal:
    case OpClass::kStoreGlobal: return kSpaceGlobal;
    case OpClass::kLoadShared:
    case OpClass::kStoreShared: return kSpaceShared;
    case OpClass::kLoadConst: return kSpaceConst;
    case OpClass::kLoadTexture: return kSpaceTexture;
    default: return -1;
  }
}

// ---------------------------------------------------------------------------
// Packed static identity of one warp-level instruction.  `size` is a
// sizeof(), so bits 32..62 always hold it; bit 63 carries the direction.
// Branch and barrier keys are the bare site (size 0, no direction).
// ---------------------------------------------------------------------------

constexpr std::uint64_t pack_trace_key(std::uint32_t site, std::uint32_t size,
                                       bool store) {
  return static_cast<std::uint64_t>(site) |
         (static_cast<std::uint64_t>(size) << 32) |
         (static_cast<std::uint64_t>(store) << 63);
}
constexpr std::uint32_t trace_key_site(std::uint64_t key) {
  return static_cast<std::uint32_t>(key);
}
constexpr std::uint32_t trace_key_size(std::uint64_t key) {
  return static_cast<std::uint32_t>((key >> 32) & 0x7fffffffu);
}
constexpr bool trace_key_store(std::uint64_t key) { return (key >> 63) != 0; }

// ---------------------------------------------------------------------------
// Block-level open-addressing site intern table: O(1) "first use this
// block?" queries replacing note_site's per-lane linear scan.  Keys are the
// recorder's 32-bit site hashes; capacity persists across blocks.
// ---------------------------------------------------------------------------

class SiteInterner {
 public:
  // Resets to empty, keeping table capacity.
  void clear();
  // Returns true iff `site` was not in the table (and inserts it).
  bool insert(std::uint32_t site);
  std::size_t size() const { return count_; }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;
  void grow();

  std::vector<std::uint64_t> slots_;
  std::size_t count_ = 0;
};

// Source position of one recorder call site, noted on the block's first use
// so the collector can translate site hashes back to file:line for
// attribution.  `file` is std::source_location's static string; no
// ownership.
struct SiteNote {
  std::uint32_t site = 0;
  const char* file = "";
  std::uint32_t line = 0;
};

// One event of a lane that left its warp's rows: the packed key and the
// address slot's value.
struct TraceEvent {
  std::uint64_t key = 0;
  std::uint64_t addr = 0;
};

// ---------------------------------------------------------------------------
// One (warp, stream) instruction stream.
// ---------------------------------------------------------------------------

struct WarpSpaceBatch {
  static constexpr int kMaxLanes = 32;

  // SoA columns, one row per reconstructed warp-level instruction.
  std::vector<std::uint64_t> keys;   // pack_trace_key(site, size, store)
  std::vector<std::uint32_t> masks;  // bit s: lane s recorded this row
  std::vector<std::uint64_t> addrs;  // row-major, `stride` slots per row

  int stride = kMaxLanes;  // lanes per row (= warp size)
  // Next row index per lane; matched rows always form the prefix [0, cursor).
  std::array<std::uint32_t, kMaxLanes> cursor{};
  // Lanes that mismatched their positional row and record to overflow now.
  std::uint32_t diverged = 0;
  std::array<std::vector<TraceEvent>, kMaxLanes> overflow;

  bool dirty() const { return diverged != 0; }
  std::size_t rows() const { return keys.size(); }
  const std::uint64_t* row_addrs(std::size_t row) const {
    return addrs.data() + row * static_cast<std::size_t>(stride);
  }

  void reset(int warp_size) {
    keys.clear();
    masks.clear();
    addrs.clear();
    stride = warp_size;
    cursor.fill(0);
    if (diverged != 0) {
      for (auto& o : overflow) o.clear();
      diverged = 0;
    }
  }

  // The recorder hot path: positional prefix matching.  Returns false when
  // the event joined an existing row: an earlier lane of this warp opened
  // that row with the same key, so it already met this site.  True when the
  // event opened a row or went to overflow.
  bool record(int sub, std::uint32_t site, std::uint32_t size, bool store,
              std::uint64_t addr) {
    const std::uint32_t bit = 1u << sub;
    const std::uint64_t key = pack_trace_key(site, size, store);
    if (diverged & bit) {
      overflow[sub].push_back({key, addr});
      return true;
    }
    std::uint32_t& cur = cursor[sub];
    if (cur < keys.size()) {
      if (keys[cur] == key) {
        masks[cur] |= bit;
        addrs[cur * static_cast<std::size_t>(stride) + sub] = addr;
        ++cur;
        return false;
      }
      // This lane left the warp's common stream: record it (and everything
      // it does from now on in this space) per-lane; the collector regroups.
      diverged |= bit;
      overflow[sub].push_back({key, addr});
      return true;
    }
    // cur == rows(): this lane extends the stream with a new row.
    keys.push_back(key);
    masks.push_back(bit);
    addrs.resize(addrs.size() + static_cast<std::size_t>(stride));
    addrs[cur * static_cast<std::size_t>(stride) + sub] = addr;
    ++cur;
    return true;
  }
};

// Warp sizes the arena can record: even (compute-1.x half-warp rules) and no
// wider than the 32-bit lane masks.  Every shipped DeviceSpec uses 32.
constexpr bool supported_trace_warp_size(int warp_size) {
  return warp_size >= 2 && warp_size <= WarpSpaceBatch::kMaxLanes &&
         warp_size % 2 == 0;
}

// One lane's instruction-class counts and flops.
struct LaneCounters {
  OpCounts ops;
  double flops = 0;
};

// ---------------------------------------------------------------------------
// Per-block arena: one WarpSpaceBatch per (warp, stream), the lanes'
// counters, and the site intern table with its notes.  One arena per worker
// slot; all capacity is reused block-to-block.
// ---------------------------------------------------------------------------

class TraceArena {
 public:
  // Prepares for one block of `num_lanes` threads.  The 32-bit lane masks
  // must cover a warp: launch validation rejects any other warp size
  // (supported_trace_warp_size) before a block is traced.
  void begin_block(const DeviceSpec& spec, int num_lanes);

  int warp_size() const { return warp_size_; }
  int num_warps() const { return num_warps_; }
  int num_lanes() const { return static_cast<int>(counters_.size()); }

  WarpSpaceBatch* stream(int warp, int s) {
    return &streams_[static_cast<std::size_t>(warp) * kNumTraceStreams + s];
  }
  const WarpSpaceBatch& stream(int warp, int s) const {
    return streams_[static_cast<std::size_t>(warp) * kNumTraceStreams + s];
  }

  LaneCounters& counters(int lane) {
    return counters_[static_cast<std::size_t>(lane)];
  }
  const LaneCounters& counters(int lane) const {
    return counters_[static_cast<std::size_t>(lane)];
  }

  // Notes `site`'s source position on the block's first use of it (O(1)).
  void note_site(std::uint32_t site, const std::source_location& loc) {
    if (sites_.insert(site))
      notes_.push_back({site, loc.file_name(), loc.line()});
  }
  const std::vector<SiteNote>& site_notes() const { return notes_; }

 private:
  std::vector<WarpSpaceBatch> streams_;
  std::vector<LaneCounters> counters_;
  SiteInterner sites_;
  std::vector<SiteNote> notes_;
  int warp_size_ = 0;
  int num_warps_ = 0;
};

}  // namespace g80
