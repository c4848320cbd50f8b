// Aggregates one traced block into warp-level traces, all read off the
// block's TraceArena (trace_arena.h): per-warp instruction counts from the
// lanes' counters; memory instructions through the coalescing /
// bank-conflict / constant-broadcast analyzers and the texture cache; branch
// rows into the divergence count; barrier rows into the per-site tally.
//
// Every stream of a warp, memory, branch or barrier, goes through one rule.
// A clean arena stream IS the warp's instruction sequence (one SoA row per
// warp-level instruction).  A dirty (positionally-diverged) stream is walked
// lane by lane (matched prefix rows, then overflow) and regrouped by (site,
// occurrence-at-site) into reusable SoA columns of the same layout, through
// flat per-site occurrence -> row tables.  Only a memory stream in which one
// group mixes two static keys (a site issued at two widths, or as both load
// and store) is materialized as AoS WarpAccess groups for the AoS analyzers;
// branch and barrier keys are bare sites, so their groups never mix.
// tests/block_trace_oracle.h holds the hash-map, all-AoS reference these
// paths are checked against.
#pragma once

#include "hw/device_spec.h"
#include "timing/trace.h"

namespace g80 {

class TraceArena;

BlockTrace collect_block_trace(const DeviceSpec& spec,
                               const TraceArena& arena);

}  // namespace g80
