// g80prof hardware-style counters — the CUDA Visual Profiler's vocabulary
// over this simulator's launch statistics.
//
// The real G80-era profiler exposed a small set of per-launch signals
// (gld_coherent/gld_incoherent, gst_coherent/gst_incoherent, warp_serialize,
// divergent_branch, branch, instructions, cta_launched) collected from the
// hardware counters of a single TPC — i.e. from a *sample* of the grid that
// the user scales up.  g80prof mirrors that contract: every counter here is
// derived from the launch's trace pass over `blocks_sampled` blocks (the
// same sample that feeds the timing model), and `grid_scale()` is the
// factor that extrapolates to the whole grid.  Nothing is measured in the
// functional pass, so enabling the profiler cannot perturb results.
//
// Each counter feeds a specific equation in the paper's methodology — see
// docs/profiling.md for the full glossary (counter -> paper equation).
#pragma once

#include <cstdint>

#include "cudalite/launch.h"
#include "hw/isa.h"

namespace g80::prof {

struct KernelCounters {
  // --- Global memory, warp-level instructions (paper §3.2 / §4.1) ---
  // A load/store is "coalesced" when both of its half-warps collapse into
  // one 16-word-line transaction each; otherwise it serializes per lane.
  std::uint64_t gld_coalesced = 0;    // aka gld_coherent
  std::uint64_t gld_uncoalesced = 0;  // aka gld_incoherent
  std::uint64_t gst_coalesced = 0;    // aka gst_coherent
  std::uint64_t gst_uncoalesced = 0;  // aka gst_incoherent
  std::uint64_t global_transactions = 0;  // post-coalescing DRAM requests
  std::uint64_t dram_bytes = 0;           // bytes moved (>= useful_bytes)
  std::uint64_t useful_bytes = 0;         // bytes the program asked for

  // --- On-chip serialization (paper §5.2, principle 3) ---
  // warp_serialize = shared-memory bank-conflict replays + constant-cache
  // distinct-address replays, the profiler counter of the same name.
  std::uint64_t warp_serialize = 0;
  std::uint64_t shared_bank_replays = 0;
  std::uint64_t const_serialize = 0;

  // --- Read-only caches (paper Table 1) ---
  std::uint64_t const_requests = 0;  // warp-level ld.const instructions
  std::uint64_t tex_cache_hits = 0;
  std::uint64_t tex_cache_misses = 0;

  // --- Control flow (paper principle 3) ---
  std::uint64_t branch = 0;
  std::uint64_t divergent_branch = 0;
  std::uint64_t sync = 0;  // bar.sync warp-instructions

  // --- Instruction mix (paper §4.1, Table 2's FP-operation columns) ---
  std::uint64_t instructions = 0;  // warp-level dynamic instruction count
  OpCounts mix;                    // per-class buckets (warp-level)
  double flops = 0;                // lane-level FP operations

  // --- Sampling frame ---
  std::uint64_t blocks_sampled = 0;  // blocks the trace pass executed
  std::uint64_t blocks_total = 0;    // cta_launched for the whole grid
  std::uint64_t warps_sampled = 0;

  // --- Occupancy (paper §4.2) ---
  double achieved_occupancy = 0;  // active threads / max contexts per SM
  int blocks_per_sm = 0;
  int active_warps_per_sm = 0;

  // Extrapolation factor from the sampled blocks to the full grid (the
  // "multiply by #TPCs" step of the real profiler's workflow).
  double grid_scale() const;
  // FMAD share of the warp-level instruction mix — the §4.1 headline input
  // to potential-throughput arithmetic.
  double fmad_fraction() const;
  double coalesced_fraction() const;      // loads + stores combined
  double divergent_branch_fraction() const;

  KernelCounters& operator+=(const KernelCounters& o);
  // Exact equality: counters are pure functions of the trace pass, so a
  // launch must reproduce every field whatever worker count traced it
  // (bench/rt_throughput.cc traced gate).
  bool operator==(const KernelCounters&) const = default;
};

// Derive the counters from one launch's statistics.  Pure function of the
// trace pass's output: no state is carried and the launch itself is not
// re-executed.
KernelCounters derive_counters(const DeviceSpec& spec,
                               const LaunchStats& stats);

}  // namespace g80::prof
