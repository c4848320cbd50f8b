// g80resil fault-campaign engine.
//
// A fault campaign answers the question the unit tests cannot: does the
// detect -> reset -> relaunch recovery story hold for *every* application in
// the paper's §5 suite, at every fault point we can inject?  For each
// application the engine sweeps fault kind x thread x dynamic index
// x block over the g80check deterministic fault injectors and asserts the
// full recovery contract per case:
//
//   detect     the faulted launch throws StatusError and leaves a sticky
//              non-success Status on the Device;
//   recover    Device::reset() returns the device to a clean state (status
//              kSuccess, zero bytes allocated);
//   identical  a from-scratch relaunch on the reset device reproduces the
//              application's clean output digest bit-for-bit.
//
// The global-store corruption fault (FaultInjection::corrupt_global_*) is
// applicable to all 13 applications — every kernel writes global output.
// Barrier-skip and shared-store corruption apply only to applications whose
// clean launch executes __syncthreads / __shared__ stores, read from that
// launch's trace rather than declared per application.
//
// The applications are apps::make_suite(): each App carries its campaign
// instance (App::launch_campaign) and global-store fault points, so a new
// suite app is swept without a change here.
//
// This header sits *above* the app layer (it needs whole-kernel launches),
// so it lives in its own CMake target (g80_campaign), keeping g80_resil
// itself below cudalite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace g80::resil {

enum class FaultKind {
  kCorruptGlobalStore,  // OOB global store -> kInvalidAddress (all apps)
  kSkipBarrier,         // divergent __syncthreads -> kBarrierDivergence
  kCorruptSharedStore,  // cross-thread shared collision -> kSharedMemoryRace
};

const char* fault_kind_name(FaultKind k);

struct CaseResult {
  std::string target;  // App::key
  FaultKind kind = FaultKind::kCorruptGlobalStore;
  int tid = 0;
  int index = 0;            // dynamic store / barrier index
  std::int64_t block = 0;   // -1 = every block
  Status status = Status::kSuccess;  // what the faulted launch raised
  bool detected = false;
  bool recovered = false;
  bool identical = false;

  bool passed() const { return detected && recovered && identical; }
};

struct CampaignConfig {
  // Smoke mode restricts the sweep to one point per applicable fault kind
  // per application (tid/index/block all 0) — the tier-1 / script-smoke
  // setting.
  bool smoke = false;
};

struct CampaignReport {
  std::vector<CaseResult> cases;

  int total() const { return static_cast<int>(cases.size()); }
  int detected() const;
  int recovered() const;
  int identical() const;
  bool all_passed() const;
  // One line per failing case plus a totals line.
  std::string summary() const;
};

// Sweeps every application of apps::make_suite().
CampaignReport run_campaign(const CampaignConfig& cfg = {});

}  // namespace g80::resil
