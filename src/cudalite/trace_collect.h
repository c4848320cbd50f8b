// Aggregates one traced block into warp-level traces: reads each warp's
// memory instructions off the block's TraceArena, runs the coalescing /
// bank-conflict / constant-broadcast analyzers, simulates the texture cache,
// and detects branch divergence from the lanes' LaneTraces.
//
// A clean arena stream IS the warp's instruction sequence (one SoA row per
// warp-level instruction) and feeds the streaming *_soa analyzers directly.
// A dirty (positionally-diverged) stream is reconstructed per lane and
// regrouped by (site, occurrence-at-site) before the AoS analyzers run.
#pragma once

#include <vector>

#include "cudalite/lane_trace.h"
#include "hw/device_spec.h"
#include "timing/trace.h"

namespace g80 {

class TraceArena;

// `arena` holds the access streams of the block whose lanes are `lanes`.
BlockTrace collect_block_trace(const DeviceSpec& spec,
                               const std::vector<LaneTrace>& lanes,
                               const TraceArena& arena);

}  // namespace g80
