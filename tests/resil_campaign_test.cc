// Table-driven recovery test over the whole §5 application suite
// (satellite of the g80resil tentpole): for every application, an injected
// g80check fault must be detected (StatusError + sticky Status), the device
// must recover via Device::reset(), and a from-scratch relaunch must
// reproduce the pre-fault output digest bit-for-bit.
//
// This runs the campaign engine in smoke mode — one case per applicable
// fault kind per application — keeping tier-1 fast; the full sweep runs in
// bench/resil_campaign (scripts/check_resil.sh and the bench baseline pin
// its 100% pass rate).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "resil/campaign.h"

namespace g80::resil {
namespace {

class CampaignSmoke : public ::testing::Test {
 protected:
  static const CampaignReport& report() {
    static const CampaignReport r = [] {
      CampaignConfig cfg;
      cfg.smoke = true;
      return run_campaign(default_targets(), cfg);
    }();
    return r;
  }
};

TEST_F(CampaignSmoke, CoversAllThirteenApplications) {
  const auto targets = default_targets();
  EXPECT_EQ(targets.size(), 13u);
  std::set<std::string> seen;
  for (const auto& c : report().cases) seen.insert(c.target);
  for (const auto& t : targets) {
    EXPECT_TRUE(seen.count(t.name)) << "no campaign case ran for " << t.name;
  }
}

TEST_F(CampaignSmoke, EveryCaseDetectsRecoversAndRelaunchesIdentically) {
  ASSERT_GT(report().total(), 0);
  for (const auto& c : report().cases) {
    EXPECT_TRUE(c.detected)
        << c.target << "/" << fault_kind_name(c.kind) << ": fault not detected";
    EXPECT_TRUE(c.recovered)
        << c.target << "/" << fault_kind_name(c.kind)
        << ": Device::reset() did not restore a clean device";
    EXPECT_TRUE(c.identical)
        << c.target << "/" << fault_kind_name(c.kind)
        << ": post-reset relaunch diverged from the clean digest";
  }
  EXPECT_TRUE(report().all_passed()) << report().summary();
}

TEST_F(CampaignSmoke, DetectedStatusesMatchTheInjectedFaultKind) {
  for (const auto& c : report().cases) {
    switch (c.kind) {
      case FaultKind::kCorruptGlobalStore:
        EXPECT_EQ(c.status, Status::kInvalidAddress) << c.target;
        break;
      case FaultKind::kSkipBarrier:
        // A skipped barrier surfaces as whichever violation the sanitizer
        // observes first: the divergent barrier itself, or the shared-memory
        // race the missing barrier exposes.
        EXPECT_TRUE(c.status == Status::kBarrierDivergence ||
                    c.status == Status::kSharedMemoryRace)
            << c.target << ": " << status_name(c.status);
        break;
      case FaultKind::kCorruptSharedStore:
        EXPECT_EQ(c.status, Status::kSharedMemoryRace) << c.target;
        break;
    }
  }
}

TEST_F(CampaignSmoke, BarrierFaultsOnlyRunOnBarrierTargets) {
  const auto targets = default_targets();
  std::set<std::string> barrier_targets, shared_targets;
  for (const auto& t : targets) {
    if (t.has_barrier) barrier_targets.insert(t.name);
    if (t.has_shared_store) shared_targets.insert(t.name);
  }
  for (const auto& c : report().cases) {
    if (c.kind == FaultKind::kSkipBarrier) {
      EXPECT_TRUE(barrier_targets.count(c.target)) << c.target;
    }
    if (c.kind == FaultKind::kCorruptSharedStore) {
      EXPECT_TRUE(shared_targets.count(c.target)) << c.target;
    }
  }
}

}  // namespace
}  // namespace g80::resil
