// FDTD — 3-D finite-difference time-domain electromagnetic solver (Yee
// scheme, PEC box, soft sinusoidal source).
//
// The paper's FDTD is its Amdahl's-Law cautionary tale: the kernel accounts
// for only 16.4% of CPU execution time, capping total application speedup at
// 1.2X, and the kernel itself is bandwidth-bound (high memory-to-compute
// ratio) and relaunched every time step for global synchronization.  Our
// port keeps that application structure: two stencil kernels per step
// (H-update, E-update) plus genuine serial work per step on the host
// (source injection and observation-plane energy recording, with the
// associated host<->device transfers).
#pragma once

#include <cstdint>
#include <vector>

#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

struct FdtdParams {
  int nx = 64, ny = 32, nz = 32;
  int steps = 4;
  float ch = 0.5f;  // curl coefficients (normalized units)
  float ce = 0.5f;

  std::size_t cells() const {
    return static_cast<std::size_t>(nx) * ny * nz;
  }
  std::size_t idx(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * ny + y) * nx + x;
  }
};

struct FdtdFields {
  std::vector<float> ex, ey, ez, hx, hy, hz;

  void resize(std::size_t cells) {
    ex.assign(cells, 0.0f);
    ey.assign(cells, 0.0f);
    ez.assign(cells, 0.0f);
    hx.assign(cells, 0.0f);
    hy.assign(cells, 0.0f);
    hz.assign(cells, 0.0f);
  }
};

// CPU reference: full `steps` loop including source injection and
// observation recording; returns per-step observed energies.
std::vector<float> fdtd_cpu(const FdtdParams& p, FdtdFields& f);

// Serial helpers shared by CPU reference and GPU host loop.
float fdtd_source(const FdtdParams& p, int step);
float fdtd_observe_plane(const FdtdParams& p, const std::vector<float>& ez);

// H-update: H_new = H_old - ch * curl(E); out-of-place for idempotence.
struct FdtdHKernel {
  FdtdParams p;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& ex, DeviceBuffer<float>& ey,
                  DeviceBuffer<float>& ez, DeviceBuffer<float>& hx_in,
                  DeviceBuffer<float>& hy_in, DeviceBuffer<float>& hz_in,
                  DeviceBuffer<float>& hx_out, DeviceBuffer<float>& hy_out,
                  DeviceBuffer<float>& hz_out) const {
    auto Ex = ctx.global(ex), Ey = ctx.global(ey), Ez = ctx.global(ez);
    auto HxI = ctx.global(hx_in), HyI = ctx.global(hy_in), HzI = ctx.global(hz_in);
    auto HxO = ctx.global(hx_out), HyO = ctx.global(hy_out), HzO = ctx.global(hz_out);

    ctx.ialu(6);
    const int x = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x +
                                   ctx.thread_idx().x);
    const int y = static_cast<int>(ctx.block_idx().y) % p.ny;
    const int z = static_cast<int>(ctx.block_idx().y) / p.ny;
    const std::size_t c = p.idx(x, y, z);

    const bool interior =
        x < p.nx - 1 && y < p.ny - 1 && z < p.nz - 1;
    if (!ctx.branch(interior)) {
      // PEC boundary: tangential H unchanged.
      HxO.st(c, HxI.ld(c));
      HyO.st(c, HyI.ld(c));
      HzO.st(c, HzI.ld(c));
      return;
    }
    ctx.ialu(6);  // neighbor index arithmetic
    const float ez_c = Ez.ld(c), ey_c = Ey.ld(c), ex_c = Ex.ld(c);
    const float ez_y1 = Ez.ld(p.idx(x, y + 1, z));
    const float ey_z1 = Ey.ld(p.idx(x, y, z + 1));
    const float ex_z1 = Ex.ld(p.idx(x, y, z + 1));
    const float ez_x1 = Ez.ld(p.idx(x + 1, y, z));
    const float ey_x1 = Ey.ld(p.idx(x + 1, y, z));
    const float ex_y1 = Ex.ld(p.idx(x, y + 1, z));

    HxO.st(c, ctx.mad(-p.ch,
                      ctx.sub(ctx.sub(ez_y1, ez_c), ctx.sub(ey_z1, ey_c)),
                      HxI.ld(c)));
    HyO.st(c, ctx.mad(-p.ch,
                      ctx.sub(ctx.sub(ex_z1, ex_c), ctx.sub(ez_x1, ez_c)),
                      HyI.ld(c)));
    HzO.st(c, ctx.mad(-p.ch,
                      ctx.sub(ctx.sub(ey_x1, ey_c), ctx.sub(ex_y1, ex_c)),
                      HzI.ld(c)));
  }
};

// E-update: E_new = E_old + ce * curl(H); out-of-place.
struct FdtdEKernel {
  FdtdParams p;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& hx, DeviceBuffer<float>& hy,
                  DeviceBuffer<float>& hz, DeviceBuffer<float>& ex_in,
                  DeviceBuffer<float>& ey_in, DeviceBuffer<float>& ez_in,
                  DeviceBuffer<float>& ex_out, DeviceBuffer<float>& ey_out,
                  DeviceBuffer<float>& ez_out) const {
    auto Hx = ctx.global(hx), Hy = ctx.global(hy), Hz = ctx.global(hz);
    auto ExI = ctx.global(ex_in), EyI = ctx.global(ey_in), EzI = ctx.global(ez_in);
    auto ExO = ctx.global(ex_out), EyO = ctx.global(ey_out), EzO = ctx.global(ez_out);

    ctx.ialu(6);
    const int x = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x +
                                   ctx.thread_idx().x);
    const int y = static_cast<int>(ctx.block_idx().y) % p.ny;
    const int z = static_cast<int>(ctx.block_idx().y) / p.ny;
    const std::size_t c = p.idx(x, y, z);

    const bool interior = x > 0 && y > 0 && z > 0;
    if (!ctx.branch(interior)) {
      ExO.st(c, ExI.ld(c));
      EyO.st(c, EyI.ld(c));
      EzO.st(c, EzI.ld(c));
      return;
    }
    ctx.ialu(6);
    const float hz_c = Hz.ld(c), hy_c = Hy.ld(c), hx_c = Hx.ld(c);
    const float hz_ym = Hz.ld(p.idx(x, y - 1, z));
    const float hy_zm = Hy.ld(p.idx(x, y, z - 1));
    const float hx_zm = Hx.ld(p.idx(x, y, z - 1));
    const float hz_xm = Hz.ld(p.idx(x - 1, y, z));
    const float hy_xm = Hy.ld(p.idx(x - 1, y, z));
    const float hx_ym = Hx.ld(p.idx(x, y - 1, z));

    ExO.st(c, ctx.mad(p.ce,
                      ctx.sub(ctx.sub(hz_c, hz_ym), ctx.sub(hy_c, hy_zm)),
                      ExI.ld(c)));
    EyO.st(c, ctx.mad(p.ce,
                      ctx.sub(ctx.sub(hx_c, hx_zm), ctx.sub(hz_c, hz_xm)),
                      EyI.ld(c)));
    EzO.st(c, ctx.mad(p.ce,
                      ctx.sub(ctx.sub(hy_c, hy_xm), ctx.sub(hx_c, hx_ym)),
                      EzI.ld(c)));
  }
};

class FdtdApp : public App {
 public:
  // HxO, HyO and HzO on both branch paths.
  FdtdApp() : App("fdtd", {0, 1, 15}, 3) {}
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale,
                const LaunchOptions& base = {}) const override;
  CampaignRun launch_campaign(Device& dev,
                              const LaunchOptions& base) const override;
};

}  // namespace g80::apps
