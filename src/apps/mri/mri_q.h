// MRI-Q — computation of the Q matrix for non-Cartesian MRI reconstruction
// (Stone et al. [25]).
//
// For every voxel x:  Q(x) = sum_k |phi(k)|^2 * exp(i * 2*pi * k.x),
// accumulated as separate real/imaginary sums with one sin and one cos per
// (voxel, sample) pair.  The paper singles the MRI kernels out for the
// largest speedups in the suite (457X kernel / 431X application) and
// attributes ~30% of that to the SFUs executing the trigonometry; the
// ablation_sfu bench reproduces that decomposition.  K-space sample
// parameters are broadcast from constant memory.
#pragma once

#include <vector>

#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

struct MriWorkload {
  // Voxel coordinates (SoA for coalesced loads).
  std::vector<float> x, y, z;
  // K-space trajectory samples: kx, ky, kz, and |phi|^2 magnitude.
  std::vector<Float4> samples;
  // Acquired data (used by FHD only): real/imag parts per sample.
  std::vector<Float2> rho;

  static MriWorkload generate(int voxels, int samples, std::uint64_t seed);
};

void mri_q_cpu(const MriWorkload& w, std::vector<float>& qr,
               std::vector<float>& qi);

struct MriQKernel {
  int num_voxels = 0;
  bool use_sfu = true;  // ablation hook: false models CPU-library-style trig

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& x, DeviceBuffer<float>& y,
                  DeviceBuffer<float>& z, const ConstantBuffer<Float4>& samples,
                  DeviceBuffer<float>& qr, DeviceBuffer<float>& qi) const {
    auto X = ctx.global(x);
    auto Y = ctx.global(y);
    auto Z = ctx.global(z);
    auto K = ctx.constant(samples);
    auto Qr = ctx.global(qr);
    auto Qi = ctx.global(qi);

    ctx.ialu(2);
    const int v = ctx.global_thread_x();
    if (!ctx.branch(v < num_voxels)) return;
    const float px = X.ld(v), py = Y.ld(v), pz = Z.ld(v);

    float sum_r = 0.0f, sum_i = 0.0f;
    for (std::size_t s = 0; s < K.size(); ++s) {
      const Float4 k = K.ld(s);  // broadcast
      const float arg = ctx.mul(
          kTwoPi, ctx.mad(k.x, px, ctx.mad(k.y, py, ctx.mul(k.z, pz))));
      float c, sn;
      if (use_sfu) {
        c = ctx.cosf(arg);
        sn = ctx.sinf(arg);
      } else {
        // Software trig: the instruction cost a CPU-style polynomial
        // evaluation would pay on the SPs (range reduction + degree-7
        // Horner, ~20 ops each) — the ablation's counterfactual.
        c = software_cos(ctx, arg);
        sn = software_sin(ctx, arg);
      }
      sum_r = ctx.mad(k.w, c, sum_r);
      sum_i = ctx.mad(k.w, sn, sum_i);
      ctx.ialu(1);
      ctx.loop_branch();
    }
    Qr.st(v, sum_r);
    Qi.st(v, sum_i);
  }

  static constexpr float kTwoPi = 6.2831853071795864769f;

 private:
  // Issue cost of a software polynomial evaluation (range reduction +
  // degree-7 Horner + sign fixup, ~20 SP instructions) charged as generic
  // issue slots so the achieved-GFLOPS metric still counts one flop per
  // transcendental result, matching how the SFU path is counted.
  template <class Ctx>
  static float software_cos(Ctx& ctx, float arg) {
    ctx.misc(20);
    ctx.rec().flops(1);
    return std::cos(arg);
  }
  template <class Ctx>
  static float software_sin(Ctx& ctx, float arg) {
    ctx.misc(20);
    ctx.rec().flops(1);
    return std::sin(arg);
  }
};

class MriQApp : public App {
 public:
  // Qr, Qi.
  MriQApp() : App("mri-q", {0, 1, 63}, 2) {}
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale,
                const LaunchOptions& base = {}) const override;
  CampaignRun launch_campaign(Device& dev,
                              const LaunchOptions& base) const override;
};

}  // namespace g80::apps
