// Recorder policies for the execution context.
//
// The same kernel source runs under two instantiations of Ctx<Recorder>:
//  - NullRecorder: every hook is an empty inline function; the functional
//    pass over the full grid runs at native C++ speed.
//  - LaneRecorder: feeds the timing model (used on sampled blocks only).
//    Per-lane counts, branches and barriers go to the thread's LaneTrace;
//    memory accesses stream into the block's TraceArena, one per-(warp,
//    space) SoA batch each, and note_site is a last-site memo plus the
//    arena's O(1) block-level intern table (trace_arena.h).
#pragma once

#include <cstdint>
#include <source_location>

#include "cudalite/lane_trace.h"
#include "cudalite/trace_arena.h"
#include "hw/isa.h"

namespace g80 {

// A third instantiation, Ctx<SanitizerRecorder> (sanitizer/recorder.h),
// drives the g80check pass.  Recorders advertise `kSanitizing` so Ctx can
// compile the fault-injection hooks out of the other two entirely.

struct NullRecorder {
  static constexpr bool kTracing = false;
  static constexpr bool kSanitizing = false;

  void count(OpClass, int = 1) {}
  void flops(double) {}
  void mem(OpClass, std::uint64_t /*addr*/, std::uint32_t /*size*/,
           std::uint32_t /*site*/, const std::source_location& /*loc*/) {}
  void branch_outcome(bool, std::uint32_t /*site*/) {}
  void sync_site(std::uint32_t /*site*/, const std::source_location& /*loc*/) {}
};

class LaneRecorder {
 public:
  static constexpr bool kTracing = true;
  static constexpr bool kSanitizing = false;

  // `arena` has begun the block; `lane_id` (the thread's linear index in
  // it) locates this lane's warp streams.
  LaneRecorder(LaneTrace* lane, TraceArena* arena, int lane_id)
      : lane_(lane), arena_(arena) {
    const int ws = arena->warp_size();
    sub_ = lane_id % ws;
    for (int s = 0; s < kNumTraceSpaces; ++s)
      streams_[s] = arena->stream(lane_id / ws, s);
  }

  void count(OpClass c, int n = 1) {
    lane_->ops[c] += static_cast<std::uint64_t>(n);
  }
  void flops(double f) { lane_->flops += f; }

  void mem(OpClass c, std::uint64_t addr, std::uint32_t size,
           std::uint32_t site, const std::source_location& loc) {
    count(c);
    note_site(site, loc);
    const bool store =
        c == OpClass::kStoreGlobal || c == OpClass::kStoreShared;
    const int space = trace_space_of(c);
    if (space >= 0) streams_[space]->record(sub_, site, size, store, addr);
  }

  void branch_outcome(bool taken, std::uint32_t site) {
    lane_->branches.push_back({site, taken});
  }

  void sync_site(std::uint32_t site, const std::source_location& loc) {
    note_site(site, loc);
    lane_->sync_sites.push_back(site);
  }

 private:
  void note_site(std::uint32_t site, const std::source_location& loc) {
    // Last-site memo (kernels hammer one site in a loop) + O(1) intern.
    // Block-level dedup: the first lane in the block to use a site holds its
    // note; the collector scans all lanes for it.
    if (last_site_ == site) return;
    last_site_ = site;
    if (arena_->intern_site(site))
      lane_->site_notes.push_back({site, loc.file_name(), loc.line()});
  }

  LaneTrace* lane_;
  TraceArena* arena_;
  WarpSpaceBatch* streams_[kNumTraceSpaces] = {};
  int sub_ = 0;                          // lane index within its warp
  std::uint64_t last_site_ = ~0ull;      // no site seen yet
};

}  // namespace g80
