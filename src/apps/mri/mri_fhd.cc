#include "apps/mri/mri_fhd.h"

#include <cmath>

#include "common/measure.h"
#include "common/stats.h"
#include "core/cpu_calibration.h"

namespace g80::apps {

void mri_fhd_cpu(const MriWorkload& w, std::vector<float>& fr,
                 std::vector<float>& fi) {
  const std::size_t nv = w.x.size();
  fr.assign(nv, 0.0f);
  fi.assign(nv, 0.0f);
  for (std::size_t v = 0; v < nv; ++v) {
    float sum_r = 0.0f, sum_i = 0.0f;
    for (std::size_t s = 0; s < w.samples.size(); ++s) {
      const auto& k = w.samples[s];
      const auto& d = w.rho[s];
      const float arg = MriQKernel::kTwoPi *
                        (k.x * w.x[v] + (k.y * w.y[v] + k.z * w.z[v]));
      const float c = std::cos(arg);
      const float sn = std::sin(arg);
      sum_r = d.x * c + (d.y * sn + sum_r);
      sum_i = d.y * c + ((0.0f - d.x) * sn + sum_i);
    }
    fr[v] = sum_r;
    fi[v] = sum_i;
  }
}

AppInfo MriFhdApp::info() const {
  return AppInfo{
      .name = "MRI-FHD",
      .description = "F^H d vector for non-Cartesian MRI reconstruction",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "instruction issue (SFU-heavy, low global ratio)",
      .paper_kernel_speedup = std::nullopt,
      .paper_app_speedup = std::nullopt,
  };
}

namespace {

// The GPU port: voxel coordinates to global memory, k-space samples and rho
// to constant memory, one thread per voxel, read back F^H d.
LaunchStats mri_fhd_gpu(Device& dev, const MriWorkload& w, unsigned block_x,
                        const LaunchOptions& base, std::vector<float>& fr,
                        std::vector<float>& fi) {
  const int voxels = static_cast<int>(w.x.size());
  auto dx = dev.alloc<float>(voxels);
  auto dy = dev.alloc<float>(voxels);
  auto dz = dev.alloc<float>(voxels);
  dx.copy_from_host(w.x);
  dy.copy_from_host(w.y);
  dz.copy_from_host(w.z);
  auto dk = dev.alloc_constant<Float4>(w.samples.size());
  dk.copy_from_host(w.samples);
  auto drho = dev.alloc_constant<Float2>(w.rho.size());
  drho.copy_from_host(w.rho);
  auto dfr = dev.alloc<float>(voxels);
  auto dfi = dev.alloc<float>(voxels);

  const Dim3 block(block_x);
  const Dim3 grid(static_cast<unsigned>((voxels + block.x - 1) / block.x));
  const auto stats =
      launch(dev, grid, block, app_launch_options(base, 12, false),
             MriFhdKernel{voxels}, dx, dy, dz, dk, drho, dfr, dfi);
  fr = dfr.copy_to_host();
  fi = dfi.copy_to_host();
  return stats;
}

}  // namespace

AppResult MriFhdApp::run(const DeviceSpec& spec, RunScale scale,
                        const LaunchOptions& base) const {
  Device dev(spec);
  const int voxels = scale == RunScale::kQuick ? 1024 : 8192;
  const int samples = scale == RunScale::kQuick ? 128 : 1024;
  const auto w = MriWorkload::generate(voxels, samples, /*seed=*/22);

  AppResult r;
  r.info = info();

  std::vector<float> fr_ref, fi_ref;
  const double host_secs =
      measure_seconds([&] { mri_fhd_cpu(w, fr_ref, fi_ref); });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;

  dev.ledger().reset();
  std::vector<float> fr_gpu, fi_gpu;
  accumulate_launch(r, dev.spec(),
                    mri_fhd_gpu(dev, w, 256, base, fr_gpu, fi_gpu));
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  double err = 0;
  for (int v = 0; v < voxels; ++v) {
    err = std::max(err, rel_err(fr_gpu[v], fr_ref[v], 1e-2));
    err = std::max(err, rel_err(fi_gpu[v], fi_ref[v], 1e-2));
  }
  finish_validation(r, err, 1e-4);
  return r;
}

CampaignRun MriFhdApp::launch_campaign(Device& dev,
                                       const LaunchOptions& base) const {
  std::vector<float> fr, fi;
  const auto stats =
      mri_fhd_gpu(dev, MriWorkload::generate(128, 32, 33), 64, base, fr, fi);
  return {output_digest(fr, fi), stats};
}

}  // namespace g80::apps
