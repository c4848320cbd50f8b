// Recorder policies for the execution context.
//
// The same kernel source runs under two instantiations of Ctx<Recorder>:
//  - NullRecorder: every hook is an empty inline function; the functional
//    pass over the full grid runs at native C++ speed.
//  - LaneRecorder: feeds the timing model (used on sampled blocks only).
//    Every event goes to the block's TraceArena (trace_arena.h): op counts
//    and flops to the lane's counters; memory accesses, branch outcomes and
//    barriers to the lane's warp streams, one SoA batch per (warp, stream).
//    note_site is a last-site memo plus the arena's O(1) block-level intern
//    table.  An access or barrier that joins a row another lane of its warp
//    opened skips note_site altogether: that lane has already interned the
//    site.
#pragma once

#include <cstdint>
#include <source_location>

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
  LaneRecorder(TraceArena* arena, int lane_id)
      : arena_(arena), counters_(&arena->counters(lane_id)) {
    const int ws = arena->warp_size();
    sub_ = lane_id % ws;
    for (int s = 0; s < kNumTraceStreams; ++s)
      streams_[s] = arena->stream(lane_id / ws, s);
  }

  void count(OpClass c, int n = 1) {
    counters_->ops[c] += static_cast<std::uint64_t>(n);
  }
  void flops(double f) { counters_->flops += f; }

  void mem(OpClass c, std::uint64_t addr, std::uint32_t size,
           std::uint32_t site, const std::source_location& loc) {
    count(c);
    const bool store =
        c == OpClass::kStoreGlobal || c == OpClass::kStoreShared;
    const int space = trace_space_of(c);
    // An access that joins an existing row follows the lane of its warp
    // that opened the row, which has already interned the site.
    if (space < 0 || streams_[space]->record(sub_, site, size, store, addr))
      note_site(site, loc);
  }

  void branch_outcome(bool taken, std::uint32_t site) {
    streams_[kStreamBranch]->record(sub_, site, 0, false, taken ? 1 : 0);
  }

  void sync_site(std::uint32_t site, const std::source_location& loc) {
    if (streams_[kStreamSync]->record(sub_, site, 0, false, 0))
      note_site(site, loc);
  }

 private:
  void note_site(std::uint32_t site, const std::source_location& loc) {
    // Last-site memo (kernels hammer one site in a loop) + O(1) intern.
    if (last_site_ == site) return;
    last_site_ = site;
    arena_->note_site(site, loc);
  }

  TraceArena* arena_;
  LaneCounters* counters_;
  WarpSpaceBatch* streams_[kNumTraceStreams] = {};
  int sub_ = 0;                          // lane index within its warp
  std::uint64_t last_site_ = ~0ull;      // no site seen yet
};

}  // namespace g80
