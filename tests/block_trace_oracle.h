// Block-level reference for the trace recorder, shared by trace_batch_test
// and invariant_fuzz_test.
//
// BlockTracer records one block exactly as launch()'s trace pass does — a
// BlockRunner runs TraceCtx + LaneRecorder threads into a TraceArena, then
// collect_block_trace builds the BlockTrace — with one switch: an
// `all_dirty` tracer marks every stream of its arena diverged right after
// begin_block.  Every access then goes to the per-lane overflow vectors and
// the collector regroups it by (site, occurrence-at-site): the per-lane
// grouping that defines what a warp-level instruction is.  A clean recording
// of the same block must collect to the same BlockTrace.  Like a launch's
// worker slot, one tracer reuses its runner, arena and lane buffers across
// every block it records.
#pragma once

#include <cstdint>
#include <vector>

#include "cudalite/ctx.h"
#include "cudalite/launch.h"
#include "cudalite/trace_arena.h"
#include "cudalite/trace_collect.h"
#include "exec/block_runner.h"

namespace g80 {

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
    lanes_.resize(static_cast<std::size_t>(threads_));
    for (auto& l : lanes_) l.clear();
    arena_.begin_block(spec_, threads_);
    if (all_dirty_) {
      for (int w = 0; w < arena_.num_warps(); ++w)
        for (int s = 0; s < kNumTraceSpaces; ++s)
          arena_.stream(w, s)->diverged = ~0u;
    }
    BlockEnv env{&runner_, grid_, block_,
                 delinearize(static_cast<unsigned>(linear), grid_)};
    const auto body = [&](int tid) {
      TraceCtx ctx(&env, tid, LaneRecorder(&lanes_[tid], &arena_, tid));
      kernel(ctx, args...);
    };
    if (uses_sync_) {
      runner_.run(threads_, body);
    } else {
      runner_.run_direct(threads_, body);
    }
    return collect_block_trace(spec_, lanes_, arena_);
  }

  // Whether the last recorded block sent any stream to the divergence
  // fallback.
  bool any_dirty() const {
    for (int w = 0; w < arena_.num_warps(); ++w)
      for (int s = 0; s < kNumTraceSpaces; ++s)
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
  std::vector<LaneTrace> lanes_;
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
