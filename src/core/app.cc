#include "core/app.h"

#include "common/error.h"

namespace g80 {

void accumulate_launch(AppResult& r, const DeviceSpec& spec,
                       const LaunchStats& stats, bool representative) {
  r.gpu_kernel_seconds += stats.total_seconds(spec);
  ++r.launches;
  if (representative || r.launches == 1) r.representative = stats;
}

LaunchOptions app_launch_options(LaunchOptions base, int regs_per_thread,
                                 bool uses_sync) {
  base.regs_per_thread = regs_per_thread;
  base.uses_sync = uses_sync;
  return base;
}

void finish_validation(AppResult& r, double max_rel_err, double tol) {
  r.max_rel_err = max_rel_err;
  r.validated = max_rel_err <= tol;
  G80_CHECK_MSG(r.validated, r.info.name << ": GPU port diverged from CPU "
                                            "reference (max rel err "
                                         << max_rel_err << " > " << tol << ")");
}

}  // namespace g80
