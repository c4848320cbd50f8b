// Application-suite framework: the common harness behind the paper's
// Tables 2 and 3.
//
// Every ported application provides a CPU reference implementation (the
// baseline), a cudalite kernel (the port), and enough structure for the
// harness to compute the paper's per-application metrics: kernel fraction of
// CPU time (Table 2), resource usage / memory ratio / bottleneck (Table 3),
// and kernel & application speedups.
//
// An App is also the suite's one kernel registry: it carries the small
// instance the g80resil fault campaign launches, through the same GPU code
// as the Table 2/3 run, so a new app is covered by the campaign and the
// whole-suite tests by being added to apps::make_suite().
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/content_hash.h"
#include "cudalite/launch.h"

namespace g80 {

enum class RunScale {
  kQuick,  // small inputs, used by tests (functional validation included)
  kFull,   // bench-scale inputs
};

// Static description plus the values the paper's text states for this
// application (only values actually present in the paper are filled in;
// everything else stays nullopt rather than being invented).
struct AppInfo {
  std::string name;
  std::string description;
  std::optional<double> paper_kernel_pct;      // Table 2: % CPU time in kernel
  std::optional<std::string> paper_bottleneck; // Table 3 narrative
  std::optional<double> paper_kernel_speedup;
  std::optional<double> paper_app_speedup;
};

struct AppResult {
  AppInfo info;

  // --- CPU baseline (measured on this host, single thread) ---
  double cpu_kernel_seconds = 0;  // time in the data-parallel phase
  double cpu_other_seconds = 0;   // non-parallel remainder (I/O, setup, ...)

  // --- GPU port (simulated GeForce 8800) ---
  double gpu_kernel_seconds = 0;  // sum over all launches, incl. overhead
  double transfer_seconds = 0;    // host<->device copies
  int launches = 0;
  LaunchStats representative;     // stats of the dominant kernel launch

  // --- Validation ---
  bool validated = false;
  double max_rel_err = 0;

  // Derived metrics -----------------------------------------------------
  double cpu_total_seconds() const { return cpu_kernel_seconds + cpu_other_seconds; }
  // Table 2: percentage of single-thread CPU execution time spent in kernels.
  double kernel_pct() const {
    const double t = cpu_total_seconds();
    return t > 0 ? 100.0 * cpu_kernel_seconds / t : 0.0;
  }
  // Amdahl ceiling implied by kernel_pct.
  double amdahl_ceiling() const {
    const double f = cpu_kernel_seconds / std::max(cpu_total_seconds(), 1e-30);
    return 1.0 / (1.0 - f + 1e-12);
  }
  double gpu_total_seconds() const {
    return gpu_kernel_seconds + transfer_seconds + cpu_other_seconds;
  }
  double kernel_speedup() const {
    return cpu_kernel_seconds / std::max(gpu_kernel_seconds, 1e-30);
  }
  double app_speedup() const {
    return cpu_total_seconds() / std::max(gpu_total_seconds(), 1e-30);
  }
  // Table 3: GPU execution time as % of GPU-port total.
  double gpu_exec_pct() const {
    return 100.0 * gpu_kernel_seconds / std::max(gpu_total_seconds(), 1e-30);
  }
  double transfer_pct() const {
    return 100.0 * transfer_seconds / std::max(gpu_total_seconds(), 1e-30);
  }
};

// One launch of an application's fault-campaign instance: a problem small
// enough for the campaign's sequential sanitize pass (resil/campaign.h).
struct CampaignRun {
  std::uint64_t digest = 0;  // FNV-1a over the kernel's global outputs
  LaunchStats stats;
};

class App {
 public:
  App(std::string key, std::vector<int> global_tids,
      int global_stores_per_thread = 1)
      : key(std::move(key)),
        global_tids(std::move(global_tids)),
        global_stores_per_thread(global_stores_per_thread) {}
  virtual ~App() = default;

  // Stable short name; the fault campaign reports under it.
  const std::string key;
  // The campaign instance's global-store fault points: threads guaranteed to
  // perform at least `global_stores_per_thread` global stores in every block
  // (e.g. H.264 writes global output from thread 0 of each block only).
  const std::vector<int> global_tids;
  const int global_stores_per_thread;

  virtual AppInfo info() const = 0;
  // Runs CPU baseline + GPU port, validates outputs against each other, and
  // fills in the metrics.  Throws g80::Error on simulator misuse.
  // Each run constructs its own Device from `spec` (fresh address space,
  // constant-memory budget, and transfer ledger).  Every launch uses `base`
  // with the app's own registers and uses_sync folded in, so a caller picks
  // the pool, fast path or fiber engine for the whole app.
  virtual AppResult run(const DeviceSpec& spec, RunScale scale,
                        const LaunchOptions& base = {}) const = 0;
  // Launches the campaign instance once on `dev`, through the same
  // alloc/upload/launch/read-back code as run(), with `base` folded in the
  // same way.  Allocates fresh buffers, so it works on a freshly reset
  // device.
  virtual CampaignRun launch_campaign(Device& dev,
                                      const LaunchOptions& base) const = 0;
};

// `base` with an app kernel's own register count and uses_sync.
LaunchOptions app_launch_options(LaunchOptions base, int regs_per_thread,
                                 bool uses_sync);

// FNV-1a digest of output vectors read back from the device.
template <class... Vecs>
std::uint64_t output_digest(const Vecs&... outs) {
  ContentHasher h;
  (h.raw(outs.data(), outs.size() * sizeof(*outs.data())), ...);
  return h.digest();
}

// Helper used by every app: fold one launch into the result totals.
void accumulate_launch(AppResult& r, const DeviceSpec& spec,
                       const LaunchStats& stats, bool representative = false);

// Record validation outcome given the worst relative error and a tolerance.
void finish_validation(AppResult& r, double max_rel_err, double tol);

}  // namespace g80
