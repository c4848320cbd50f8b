// The launch_deck: a fixed set of Table-2 kernels, each a direct launch()
// of a public apps::*Kernel struct on inputs from its workload generator.
// Sizes are fixed (each full launch costs about the same host time); the
// seed only changes the input data.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cudalite/launch.h"

namespace perfbench {

enum class LaunchMode {
  kFull,       // the default launch: trace sample + functional pass
  kFastPath,   // LaunchOptions::fast_path: functional pass only
  kTraceOnly,  // functional = false: trace sample + timing model only
  kSetupOnly,  // neither pass: validation, BlockRunner set-up, occupancy
};

struct DeckEntry {
  std::string name;
  std::string kind;  // "barrier" | "fiberless" | "divergent"
  g80::LaunchOptions opt;
  std::uint64_t threads = 0;  // simulated threads in the grid
  // Launches with `o` on the entry's device buffers.
  std::function<g80::LaunchStats(const g80::LaunchOptions& o)> run;
  // Re-initializes the outputs (a sentinel, or the kernel's required
  // initial value) so a launch that skipped work cannot pass the check.
  std::function<void()> reset_outputs;
  std::function<std::uint64_t()> digest;
  // Empty when the outputs match the app's CPU reference, else why not.
  std::function<std::string()> check_reference;

  g80::LaunchStats launch(LaunchMode mode) const {
    g80::LaunchOptions o = opt;
    o.fast_path = mode == LaunchMode::kFastPath;
    o.functional = mode == LaunchMode::kFull || mode == LaunchMode::kFastPath;
    if (mode == LaunchMode::kSetupOnly) o.sample_blocks = 0;
    return run(o);
  }
};

struct Deck {
  std::unique_ptr<g80::Device> dev;
  std::vector<DeckEntry> entries;
};

// Builds the deck's inputs and CPU references (nothing is launched).
Deck make_deck(std::uint64_t seed);

}  // namespace perfbench
