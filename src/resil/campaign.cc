#include "resil/campaign.h"

#include <sstream>

#include "apps/suite.h"
#include "core/app.h"
#include "cudalite/launch.h"

namespace g80::resil {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kCorruptGlobalStore:
      return "corrupt-global-store";
    case FaultKind::kSkipBarrier:
      return "skip-barrier";
    case FaultKind::kCorruptSharedStore:
      return "corrupt-shared-store";
  }
  return "unknown";
}

namespace {

// Runs one fault case end to end on a fresh device: the faulted launch
// (expected to throw with a sticky device Status), reset, a clean relaunch,
// and a compare against the application's clean digest.
CaseResult run_case(const App& app, std::uint64_t clean, FaultKind kind,
                    int tid, int index, std::int64_t block) {
  CaseResult r;
  r.target = app.key;
  r.kind = kind;
  r.tid = tid;
  r.index = index;
  r.block = block;

  LaunchOptions faulted;
  SanitizerOptions& san = faulted.sanitize;
  san.enabled = true;
  san.abort_on_error = true;
  san.fault.block = block;
  switch (kind) {
    case FaultKind::kCorruptGlobalStore:
      san.fault.corrupt_global_tid = tid;
      san.fault.corrupt_global_index = index;
      break;
    case FaultKind::kSkipBarrier:
      san.fault.skip_barrier_tid = tid;
      san.fault.skip_barrier_index = index;
      break;
    case FaultKind::kCorruptSharedStore:
      san.fault.corrupt_store_tid = tid;
      san.fault.corrupt_store_index = index;
      break;
  }

  Device dev;
  bool threw = false;
  try {
    app.launch_campaign(dev, faulted);
  } catch (const StatusError& e) {
    threw = true;
    r.status = e.status();
  } catch (const Error&) {
    threw = true;
    r.status = Status::kLaunchFailure;
  }
  r.detected = threw && dev.peek_last_error() != Status::kSuccess;

  dev.reset();
  r.recovered = dev.peek_last_error() == Status::kSuccess &&
                dev.bytes_allocated() == 0;

  r.identical = app.launch_campaign(dev, LaunchOptions{}).digest == clean;
  return r;
}

}  // namespace

int CampaignReport::detected() const {
  int n = 0;
  for (const auto& c : cases) n += c.detected ? 1 : 0;
  return n;
}

int CampaignReport::recovered() const {
  int n = 0;
  for (const auto& c : cases) n += c.recovered ? 1 : 0;
  return n;
}

int CampaignReport::identical() const {
  int n = 0;
  for (const auto& c : cases) n += c.identical ? 1 : 0;
  return n;
}

bool CampaignReport::all_passed() const {
  for (const auto& c : cases)
    if (!c.passed()) return false;
  return !cases.empty();
}

std::string CampaignReport::summary() const {
  std::ostringstream os;
  for (const auto& c : cases) {
    if (c.passed()) continue;
    os << "FAIL " << c.target << " " << fault_kind_name(c.kind) << " tid="
       << c.tid << " index=" << c.index << " block=" << c.block
       << " detected=" << c.detected << " (raised " << status_name(c.status)
       << ") recovered=" << c.recovered << " identical=" << c.identical
       << "\n";
  }
  os << "campaign: " << total() << " cases, " << detected() << " detected, "
     << recovered() << " recovered, " << identical()
     << " bit-identical relaunches";
  return os.str();
}

CampaignReport run_campaign(const CampaignConfig& cfg) {
  CampaignReport report;
  const std::vector<std::int64_t> all_blocks = cfg.smoke
                                                   ? std::vector<std::int64_t>{0}
                                                   : std::vector<std::int64_t>{0, -1};
  for (const auto& app : apps::make_suite()) {
    // One clean launch gives the digest every relaunch must reproduce and
    // the fault surface: barrier and shared-store faults apply only where
    // the kernel executes barriers and shared stores.
    Device dev;
    const CampaignRun clean = app->launch_campaign(dev, LaunchOptions{});
    const auto& ops = clean.stats.trace.total.ops;
    const bool has_barrier = ops[OpClass::kSync] > 0;
    const bool has_shared_store = ops[OpClass::kStoreShared] > 0;
    const auto run = [&](FaultKind kind, int tid, int index,
                         std::int64_t block) {
      report.cases.push_back(
          run_case(*app, clean.digest, kind, tid, index, block));
    };

    // Global-store corruption: applicable to every application.
    const std::vector<int> tids =
        cfg.smoke ? std::vector<int>{app->global_tids.front()}
                  : app->global_tids;
    const int stores = cfg.smoke ? 1 : app->global_stores_per_thread;
    for (int tid : tids) {
      for (int index = 0; index < stores; ++index) {
        for (std::int64_t block : all_blocks) {
          run(FaultKind::kCorruptGlobalStore, tid, index, block);
        }
      }
    }
    // Barrier skip: any thread of a barrier kernel (the release snapshot
    // catches both run-ahead and exited-while-waiting divergence).
    if (has_barrier) {
      const std::vector<int> btids = cfg.smoke ? std::vector<int>{0}
                                               : std::vector<int>{0, 1};
      for (int tid : btids) {
        for (std::int64_t block : all_blocks) {
          run(FaultKind::kSkipBarrier, tid, 0, block);
        }
      }
    }
    // Shared-store corruption: thread 0's first shared store redirected one
    // word up, colliding with thread 1's same-epoch slot in these kernels.
    if (has_shared_store) {
      for (std::int64_t block : all_blocks) {
        run(FaultKind::kCorruptSharedStore, 0, 0, block);
        if (cfg.smoke) break;
      }
    }
  }
  return report;
}

}  // namespace g80::resil
