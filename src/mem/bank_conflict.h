// Shared-memory bank-conflict analyzer.
//
// G80 shared memory has 16 banks, word-interleaved (bank = (addr/4) % 16).
// A half-warp's shared access completes in one cycle unless two or more
// lanes touch *different words* in the same bank, in which case the access
// serializes by the maximum per-bank degree.  All lanes reading the same
// word broadcast with no conflict (paper §5.2: "Care must be taken so that
// threads in the same warp access different banks").
#pragma once

#include "hw/device_spec.h"
#include "mem/access.h"

namespace g80 {

struct BankConflictResult {
  // Number of serialized passes for the half-warp (1 == conflict-free).
  int serialization = 1;
  bool broadcast = false;  // all active lanes hit one word
};

BankConflictResult analyze_shared_half_warp(const DeviceSpec& spec,
                                            const MemAccess* lanes,
                                            int lane_count);

// Full warp = two half-warps; returns the summed extra passes
// (total passes - number of half-warps that issued).
struct WarpBankCost {
  int passes = 0;        // total serialized passes across both half-warps
  int extra_passes = 0;  // passes beyond the conflict-free minimum
};

WarpBankCost analyze_shared_warp(const DeviceSpec& spec, const WarpAccess& warp);

// Batch entry point over one SoA trace-arena row: identical passes /
// extra_passes to analyze_shared_warp on the expanded warp.  With a
// power-of-two bank count <= 64 (G80: 16), a conflict-free half-warp is
// settled in one division-free pass that keeps the first word per bank and
// a mask of banks in use; the first two-words-in-one-bank clash, or any
// other bank count, falls through to a small insert-unique word array and a
// per-bank counter table (per-bank std::sets beyond 64 banks or 128 words).
// tests/mem_system_test.cc checks it against analyze_shared_warp on random
// rows for 16, 12 and 128 banks.
WarpBankCost analyze_shared_warp_soa(const DeviceSpec& spec,
                                     const SoaWarpAccess& row);

}  // namespace g80
