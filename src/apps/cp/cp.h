// CP — Coulombic potential (direct summation).
//
// Computes the electrostatic potential on a 2-D grid slice from a cloud of
// point charges: V(p) = sum_a q_a / |p - a|.  The paper's CP port (from the
// molecular-visualization work of Stone et al. [24]) is the archetypal
// compute-bound kernel: one thread per grid point, the atom list broadcast
// from constant memory, one rsqrt on the SFU per atom — very low global
// access ratio, near-peak utilization (Table 3's high-speedup group).
#pragma once

#include <vector>

#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

struct CpWorkload {
  int grid_dim = 0;           // potential grid is grid_dim x grid_dim
  float spacing = 0.5f;       // grid spacing (Angstrom-ish)
  float slice_z = 0.0f;
  std::vector<Float4> atoms;  // x, y, z, charge

  static CpWorkload generate(int grid_dim, int num_atoms, std::uint64_t seed);
};

void cp_cpu(const CpWorkload& w, std::vector<float>& potential);

struct CpKernel {
  int grid_dim = 0;
  float spacing = 0;
  float slice_z = 0;

  template <class Ctx>
  void operator()(Ctx& ctx, const ConstantBuffer<Float4>& atoms,
                  DeviceBuffer<float>& out) const {
    auto Atoms = ctx.constant(atoms);
    auto Out = ctx.global(out);
    body(ctx, Atoms, Out);
  }

  // Ablation variant: the same kernel with the atom list left in global
  // memory (every iteration pays a global load instead of a constant-cache
  // broadcast) — bench/ablation_constant.
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<Float4>& atoms,
                  DeviceBuffer<float>& out) const {
    auto Atoms = ctx.global(atoms);
    auto Out = ctx.global(out);
    body(ctx, Atoms, Out);
  }

 private:
  template <class Ctx, class AtomView, class OutView>
  void body(Ctx& ctx, AtomView& Atoms, OutView& Out) const {

    ctx.ialu(4);
    const int ix = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x +
                                    ctx.thread_idx().x);
    const int iy = static_cast<int>(ctx.block_idx().y * ctx.block_dim().y +
                                    ctx.thread_idx().y);
    const float px = ctx.mul(static_cast<float>(ix), spacing);
    const float py = ctx.mul(static_cast<float>(iy), spacing);

    float v = 0.0f;
    for (std::size_t a = 0; a < Atoms.size(); ++a) {
      const Float4 atom = Atoms.ld(a);  // 16 B broadcast from constant cache
      const float dx = ctx.sub(px, atom.x);
      const float dy = ctx.sub(py, atom.y);
      const float dz = ctx.sub(slice_z, atom.z);
      const float r2 = ctx.mad(dx, dx, ctx.mad(dy, dy, ctx.mul(dz, dz)));
      v = ctx.mad(atom.w, ctx.rsqrtf(r2), v);
      ctx.ialu(1);  // a++
      ctx.loop_branch();
    }
    ctx.ialu(1);
    Out.st(static_cast<std::size_t>(iy) * grid_dim + ix, v);
  }
};

class CpApp : public App {
 public:
  CpApp() : App("cp", {0, 1, 33}) {}
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale,
                const LaunchOptions& base = {}) const override;
  CampaignRun launch_campaign(Device& dev,
                              const LaunchOptions& base) const override;
};

}  // namespace g80::apps
