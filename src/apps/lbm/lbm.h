// LBM — D3Q19 lattice-Boltzmann fluid solver (BGK collision, periodic box).
//
// The paper's LBM port is its flagship "time-sliced simulator": one kernel
// launch per time step (global synchronization via kernel termination,
// §5.1), a high memory-to-compute ratio, and per-cell state staged through
// shared memory, which caps occupancy at one block per SM (Table 3's
// "shared memory capacity" bottleneck).
//
// Figure 5 contrasts this kernel's global-load patterns; we implement all
// three layouts it discusses:
//   kAoS        f[cell][q]  — half-warp strides 19 words, fully scattered
//   kSoA        f[q][cell]  — unit stride, but x-neighbor pulls are
//                             misaligned by one word, breaking the strict
//                             G80 coalescing rule for 10 of 19 loads
//   kSoAStaged  f[q][cell] with x-shifted rows staged through shared
//                             memory so every global load is aligned
#pragma once

#include <cstdint>
#include <vector>

#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

inline constexpr int kLbmQ = 19;

// D3Q19 velocity set: index 0 is rest; 1..6 face neighbors; 7..18 edges.
extern const int kLbmEx[kLbmQ];
extern const int kLbmEy[kLbmQ];
extern const int kLbmEz[kLbmQ];
extern const float kLbmW[kLbmQ];
// Staging slot for x-moving distributions (-1 when e_x == 0); kLbmXRows of
// them.  The staged kernel loads all of these rows aligned into shared
// memory behind a single barrier.
extern const int kLbmXSlot[kLbmQ];
inline constexpr int kLbmXRows = 10;

enum class LbmLayout { kAoS, kSoA, kSoAStaged };

struct LbmParams {
  int nx = 128, ny = 8, nz = 8;
  float tau = 0.6f;  // BGK relaxation time
  int steps = 4;

  std::size_t cells() const {
    return static_cast<std::size_t>(nx) * ny * nz;
  }
};

struct LbmWorkload {
  LbmParams p;
  std::vector<float> f0;  // initial distributions, stored SoA: f0[q*cells+c]

  // Initializes a shear-wave velocity profile u_y(x) = u0 sin(2 pi x / nx).
  static LbmWorkload generate(const LbmParams& p);
};

// CPU reference: `steps` pull-stream + collide sweeps over an SoA array.
void lbm_cpu(const LbmParams& p, std::vector<float>& f,
             std::vector<float>& f_tmp);

// One GPU time step: pull-stream from `src`, collide, write `dst`.
struct LbmKernel {
  LbmParams p;
  LbmLayout layout = LbmLayout::kSoAStaged;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& src,
                  DeviceBuffer<float>& dst) const {
    auto Src = ctx.global(src);
    auto Dst = ctx.global(dst);
    const std::size_t cells = p.cells();
    const int nt = static_cast<int>(ctx.block_dim().x);  // one x-line chunk

    // Per-thread distribution scratch in shared memory (the paper's LBM
    // design): layout f_sh[q*nt + tid] keeps each lane in its own bank.
    auto f_sh = ctx.template shared<float>(
        static_cast<std::size_t>(kLbmQ) * nt);
    // Staging buffer for the x-shifted rows, nt + 2 halo words each; all ten
    // are filled behind one barrier.
    const std::size_t row_pitch = static_cast<std::size_t>(nt) + 2;
    auto row_sh = ctx.template shared<float>(
        layout == LbmLayout::kSoAStaged ? kLbmXRows * row_pitch : 1);

    ctx.ialu(6);
    const int tid = static_cast<int>(ctx.thread_idx().x);
    const int x = static_cast<int>(ctx.block_idx().x) * nt + tid;
    const int y = static_cast<int>(ctx.block_idx().y) % p.ny;
    const int z = static_cast<int>(ctx.block_idx().y) / p.ny;
    const std::size_t c =
        (static_cast<std::size_t>(z) * p.ny + y) * p.nx + x;

    // --- Staged prologue: load every x-shifted source row aligned into
    // shared memory (lane i <- element i, plus two halo words), then one
    // barrier.  All subsequent global loads in this kernel are aligned
    // 16-word lines — the Figure 5 "after" pattern. ---
    if (layout == LbmLayout::kSoAStaged) {
      for (int q = 0; q < kLbmQ; ++q) {
        if (kLbmXSlot[q] < 0) continue;
        ctx.ialu(8);
        const int sy = wrap(y - kLbmEy[q], p.ny);
        const int sz = wrap(z - kLbmEz[q], p.nz);
        const std::size_t row =
            static_cast<std::size_t>(q) * cells +
            (static_cast<std::size_t>(sz) * p.ny + sy) * p.nx;
        const std::size_t base = static_cast<std::size_t>(kLbmXSlot[q]) * row_pitch;
        const int block_x0 = static_cast<int>(ctx.block_idx().x) * nt;
        row_sh.st(base + tid + 1, Src.ld(row + block_x0 + tid));
        if (ctx.branch(tid == 0)) {
          ctx.ialu(2);
          row_sh.st(base, Src.ld(row + wrap(block_x0 - 1, p.nx)));
          row_sh.st(base + nt + 1, Src.ld(row + wrap(block_x0 + nt, p.nx)));
        }
        ctx.loop_branch();
      }
      ctx.sync();
    }

    // --- Pull streaming: f_sh[q] = Src[q at cell - e_q] -----------------
    for (int q = 0; q < kLbmQ; ++q) {
      ctx.ialu(6);  // neighbor coordinate arithmetic + wraps
      const int sx = wrap(x - kLbmEx[q], p.nx);
      const int sy = wrap(y - kLbmEy[q], p.ny);
      const int sz = wrap(z - kLbmEz[q], p.nz);
      const std::size_t sc =
          (static_cast<std::size_t>(sz) * p.ny + sy) * p.nx + sx;

      float v;
      if (layout == LbmLayout::kAoS) {
        v = Src.ld(sc * kLbmQ + q);
      } else if (layout == LbmLayout::kSoA || kLbmEx[q] == 0) {
        // SoA direct; for staged, x-aligned q's are already coalesced.
        v = Src.ld(static_cast<std::size_t>(q) * cells + sc);
      } else {
        // Read the +/-1-shifted value from the staged row.
        ctx.ialu(2);
        v = row_sh.ld(static_cast<std::size_t>(kLbmXSlot[q]) * row_pitch +
                      tid + 1 - kLbmEx[q]);
      }
      f_sh.st(static_cast<std::size_t>(q) * nt + tid, v);
      ctx.loop_branch();
    }

    // --- Moments ---------------------------------------------------------
    float rho = 0, ux = 0, uy = 0, uz = 0;
    for (int q = 0; q < kLbmQ; ++q) {
      ctx.ialu(2);
      const float fq = f_sh.ld(static_cast<std::size_t>(q) * nt + tid);
      rho = ctx.add(rho, fq);
      ux = ctx.mad(static_cast<float>(kLbmEx[q]), fq, ux);
      uy = ctx.mad(static_cast<float>(kLbmEy[q]), fq, uy);
      uz = ctx.mad(static_cast<float>(kLbmEz[q]), fq, uz);
      ctx.loop_branch();
    }
    const float inv_rho = ctx.rcpf(rho);
    ux = ctx.mul(ux, inv_rho);
    uy = ctx.mul(uy, inv_rho);
    uz = ctx.mul(uz, inv_rho);
    const float usq =
        ctx.mad(ux, ux, ctx.mad(uy, uy, ctx.mul(uz, uz)));
    const float omega = 1.0f / p.tau;  // host constant folded at compile time

    // --- BGK collision + store -------------------------------------------
    for (int q = 0; q < kLbmQ; ++q) {
      ctx.ialu(2);
      const float eu = ctx.mad(static_cast<float>(kLbmEx[q]), ux,
                               ctx.mad(static_cast<float>(kLbmEy[q]), uy,
                                       ctx.mul(static_cast<float>(kLbmEz[q]), uz)));
      // feq = w rho (1 + 3 eu + 4.5 eu^2 - 1.5 u^2)
      const float poly = ctx.mad(
          4.5f, ctx.mul(eu, eu),
          ctx.mad(3.0f, eu, ctx.mad(-1.5f, usq, 1.0f)));
      const float feq = ctx.mul(ctx.mul(kLbmW[q], rho), poly);
      const float fq = f_sh.ld(static_cast<std::size_t>(q) * nt + tid);
      const float fnew = ctx.mad(omega, ctx.sub(feq, fq), fq);
      if (layout == LbmLayout::kAoS) {
        Dst.st(c * kLbmQ + q, fnew);
      } else {
        Dst.st(static_cast<std::size_t>(q) * cells + c, fnew);
      }
      ctx.loop_branch();
    }
  }

  static int wrap(int v, int n) { return v < 0 ? v + n : (v >= n ? v - n : v); }
};

// Runs `p.steps` launches with double buffering, min(nx, 128) threads per
// block and `base` options; returns final SoA state in `f_out` and
// per-launch stats via the last launch (they are homogeneous).
LaunchStats lbm_gpu(Device& dev, const LbmParams& p, LbmLayout layout,
                    const std::vector<float>& f0, std::vector<float>& f_out,
                    int* launches_out, const LaunchOptions& base = {});

class LbmApp : public App {
 public:
  // 19 distribution stores per thread.
  LbmApp() : App("lbm", {0, 1, 15}, 2) {}
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale,
                const LaunchOptions& base = {}) const override;
  CampaignRun launch_campaign(Device& dev,
                              const LaunchOptions& base) const override;
};

}  // namespace g80::apps
