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

#include "apps/suite.h"
#include "resil/campaign.h"

namespace g80::resil {
namespace {

class CampaignSmoke : public ::testing::Test {
 protected:
  static const CampaignReport& report() {
    static const CampaignReport r = [] {
      CampaignConfig cfg;
      cfg.smoke = true;
      return run_campaign(cfg);
    }();
    return r;
  }
};

TEST_F(CampaignSmoke, CoversAllThirteenApplications) {
  const auto suite = apps::make_suite();
  EXPECT_EQ(suite.size(), 13u);
  std::set<std::string> seen;
  for (const auto& c : report().cases) seen.insert(c.target);
  for (const auto& app : suite) {
    EXPECT_TRUE(seen.count(app->key)) << "no campaign case ran for "
                                      << app->key;
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

// The barrier and shared-store fault surfaces are derived from each
// application's clean launch; they must be exactly the kernels that call
// ctx.sync() and write shared<> memory.
TEST_F(CampaignSmoke, DerivedFaultSurfaceIsTheBarrierAndSharedMemoryKernels) {
  std::set<std::string> barrier_targets, shared_targets;
  for (const auto& c : report().cases) {
    if (c.kind == FaultKind::kSkipBarrier) barrier_targets.insert(c.target);
    if (c.kind == FaultKind::kCorruptSharedStore)
      shared_targets.insert(c.target);
  }
  const std::set<std::string> expected = {"matmul-tiled", "tpacf", "h264",
                                          "lbm"};
  EXPECT_EQ(barrier_targets, expected);
  EXPECT_EQ(shared_targets, expected);
}

}  // namespace
}  // namespace g80::resil
