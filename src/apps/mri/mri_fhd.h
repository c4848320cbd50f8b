// MRI-FHD — computation of F^H d for non-Cartesian MRI reconstruction.
//
// Structurally the sibling of MRI-Q: for every voxel, accumulate the
// acquired k-space data rotated by the conjugate Fourier phase,
//   FHd(x) = sum_k conj(exp(i 2*pi k.x)) * rho(k)
// i.e. two multiply-adds more per sample than Q.  Same constant-memory
// broadcast structure, same SFU dependence; the paper reports it just below
// MRI-Q in the speedup ranking.
#pragma once

#include "apps/mri/mri_q.h"

namespace g80::apps {

void mri_fhd_cpu(const MriWorkload& w, std::vector<float>& fr,
                 std::vector<float>& fi);

struct MriFhdKernel {
  int num_voxels = 0;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& x, DeviceBuffer<float>& y,
                  DeviceBuffer<float>& z, const ConstantBuffer<Float4>& samples,
                  const ConstantBuffer<Float2>& rho, DeviceBuffer<float>& fr,
                  DeviceBuffer<float>& fi) const {
    auto X = ctx.global(x);
    auto Y = ctx.global(y);
    auto Z = ctx.global(z);
    auto K = ctx.constant(samples);
    auto Rho = ctx.constant(rho);
    auto Fr = ctx.global(fr);
    auto Fi = ctx.global(fi);

    ctx.ialu(2);
    const int v = ctx.global_thread_x();
    if (!ctx.branch(v < num_voxels)) return;
    const float px = X.ld(v), py = Y.ld(v), pz = Z.ld(v);

    float sum_r = 0.0f, sum_i = 0.0f;
    for (std::size_t s = 0; s < K.size(); ++s) {
      const Float4 k = K.ld(s);
      const Float2 d = Rho.ld(s);
      const float arg = ctx.mul(
          MriQKernel::kTwoPi,
          ctx.mad(k.x, px, ctx.mad(k.y, py, ctx.mul(k.z, pz))));
      const float c = ctx.cosf(arg);
      const float sn = ctx.sinf(arg);
      // (c - i*s) * (dr + i*di):
      sum_r = ctx.mad(d.x, c, ctx.mad(d.y, sn, sum_r));
      sum_i = ctx.mad(d.y, c, ctx.mad(ctx.sub(0.0f, d.x), sn, sum_i));
      ctx.ialu(1);
      ctx.loop_branch();
    }
    Fr.st(v, sum_r);
    Fi.st(v, sum_i);
  }
};

class MriFhdApp : public App {
 public:
  // Fr, Fi.
  MriFhdApp() : App("mri-fhd", {0, 1, 63}, 2) {}
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale,
                const LaunchOptions& base = {}) const override;
  CampaignRun launch_campaign(Device& dev,
                              const LaunchOptions& base) const override;
};

}  // namespace g80::apps
