// Fault-injection campaign over the 13-application suite (resil/campaign.h):
// for every (application, fault kind, thread, store index, block) case,
// assert the g80resil recovery contract — the fault is detected by g80check,
// Device::reset() restores a clean device, and a from-scratch relaunch
// reproduces the pre-fault output digest bit-for-bit.
//
// Emits one result row per application (cases/detected/recovered/identical)
// plus a campaign-wide total row whose `all_passed` metric the regression
// baseline pins at 1.  Set G80_CAMPAIGN_SMOKE=1 to run one case per
// applicable fault kind per application (the tier-1 / check_resil.sh mode).
#include <cstdlib>
#include <map>

#include "apps/suite.h"
#include "bench/harness.h"
#include "resil/campaign.h"

int main(int argc, char** argv) {
  using namespace g80;
  bench::Harness h(argc, argv, "resil_campaign");

  resil::CampaignConfig cfg;
  const char* smoke = std::getenv("G80_CAMPAIGN_SMOKE");
  cfg.smoke = smoke != nullptr && smoke[0] != '\0' && smoke[0] != '0';

  const auto report = resil::run_campaign(cfg);

  struct Tally {
    int total = 0, detected = 0, recovered = 0, identical = 0;
  };
  std::map<std::string, Tally> per_target;
  for (const auto& c : report.cases) {
    auto& t = per_target[c.target];
    ++t.total;
    t.detected += c.detected ? 1 : 0;
    t.recovered += c.recovered ? 1 : 0;
    t.identical += c.identical ? 1 : 0;
  }
  // Rows in suite order (the map is keyed alphabetically).
  for (const auto& app : apps::make_suite()) {
    const auto& tally = per_target[app->key];
    auto& r = h.result(app->key);
    r.set("cases", tally.total);
    r.set("detected", tally.detected);
    r.set("recovered", tally.recovered);
    r.set("identical", tally.identical);
  }
  auto& total = h.result("campaign-total");
  total.set("cases", report.total());
  total.set("detected", report.detected());
  total.set("recovered", report.recovered());
  total.set("identical", report.identical());
  total.set("all_passed", report.all_passed() ? 1 : 0);

  h.human() << report.summary() << "\n";
  const int rc = h.finish(DeviceSpec::geforce_8800_gtx());
  return report.all_passed() ? rc : 1;
}
