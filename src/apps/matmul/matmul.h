// Dense single-precision matrix multiplication — the paper's §4 case study.
//
// Variants map one-to-one onto the paper's optimization walk:
//   kNaive            §4.1  one thread per C element, all loads from global
//   kNaiveUnrolled    Fig.4 "not tiled / tiled & unrolled" bar
//   kTiled            §4.2  TILExTILE shared-memory tiling (4/8/12/16)
//   kTiledUnrolled    §4.3  inner dot-product loop fully unrolled
//   kPrefetch         §4.4  unrolled + next-tile prefetching (11 regs =>
//                           one fewer block per SM)
//
// Instruction annotations (ialu/misc/branch) reproduce the PTX instruction
// mixes the paper counts: naive 1 MAD in 8 ops with 1/4 global loads (§4.1),
// unrolled 16 MADs in 59 ops (§4.3).  Register counts are the paper's.
#pragma once

#include <string>
#include <vector>

#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

enum class MatmulVariant {
  kNaive,
  kNaiveUnrolled,
  kTiled,
  kTiledUnrolled,
  kPrefetch,
  // Extension beyond the paper (the direction later G80 SGEMM work took):
  // each thread computes two C elements, reusing the B operand from shared
  // memory across both — "register tiling", which §5.2 mentions for H.264.
  kRegisterTiled,
};

struct MatmulConfig {
  MatmulVariant variant = MatmulVariant::kTiledUnrolled;
  int tile = 16;  // used by the tiled variants

  std::string name() const;
  int regs_per_thread() const;
};

struct MatmulWorkload {
  int n = 0;  // square matrices, n x n
  std::vector<float> a, b;

  static MatmulWorkload generate(int n, std::uint64_t seed);
};

void matmul_cpu(int n, const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c);

// --- Kernels ---------------------------------------------------------------

struct MatmulNaiveKernel {
  int n = 0;
  bool unrolled = false;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& a, DeviceBuffer<float>& b,
                  DeviceBuffer<float>& c) const {
    auto A = ctx.global(a);
    auto B = ctx.global(b);
    auto C = ctx.global(c);
    // row/col from block and thread coordinates (hardware-supported).
    ctx.ialu(4);
    const int row = static_cast<int>(ctx.block_idx().y * ctx.block_dim().y +
                                     ctx.thread_idx().y);
    const int col = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x +
                                     ctx.thread_idx().x);
    float sum = 0.0f;
    for (int k = 0; k < n; ++k) {
      // indexA = row*n + k advances by 1; indexB = k*n + col by n.
      sum = ctx.mad(A.ld(static_cast<std::size_t>(row) * n + k),
                    B.ld(static_cast<std::size_t>(k) * n + col), sum);
      if (unrolled) {
        ctx.ialu(2);  // two pointer bumps; induction/test amortized away
      } else {
        ctx.ialu(3);  // two pointer bumps + k++
        ctx.misc(1);  // setp
        ctx.loop_branch();
      }
    }
    ctx.ialu(1);
    C.st(static_cast<std::size_t>(row) * n + col, sum);
  }
};

struct MatmulTiledKernel {
  int n = 0;
  int tile = 16;
  bool unrolled = false;
  bool prefetch = false;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& a, DeviceBuffer<float>& b,
                  DeviceBuffer<float>& c) const {
    auto A = ctx.global(a);
    auto B = ctx.global(b);
    auto C = ctx.global(c);
    auto As = ctx.template shared<float>(static_cast<std::size_t>(tile) * tile);
    auto Bs = ctx.template shared<float>(static_cast<std::size_t>(tile) * tile);

    ctx.ialu(4);
    const int tx = static_cast<int>(ctx.thread_idx().x);
    const int ty = static_cast<int>(ctx.thread_idx().y);
    const int row = static_cast<int>(ctx.block_idx().y) * tile + ty;
    const int col = static_cast<int>(ctx.block_idx().x) * tile + tx;

    float sum = 0.0f;
    for (int m = 0; m < n / tile; ++m) {
      if (prefetch) ctx.misc(2);  // stage next-tile values through registers
      // Cooperative tile loads, organized for global-access coalescing.
      As.st(static_cast<std::size_t>(ty) * tile + tx,
            A.ld(static_cast<std::size_t>(row) * n + m * tile + tx));
      Bs.st(static_cast<std::size_t>(ty) * tile + tx,
            B.ld(static_cast<std::size_t>(m * tile + ty) * n + col));
      ctx.sync();

      if (unrolled) {
        // Fully unrolled dot product: constant shared-memory offsets, no
        // induction variable, no test/branch (§4.3).
        for (int k = 0; k < tile; ++k) {
          sum = ctx.mad(As.ld(static_cast<std::size_t>(ty) * tile + k),
                        Bs.ld(static_cast<std::size_t>(k) * tile + tx), sum);
        }
      } else {
        for (int k = 0; k < tile; ++k) {
          sum = ctx.mad(As.ld(static_cast<std::size_t>(ty) * tile + k),
                        Bs.ld(static_cast<std::size_t>(k) * tile + tx), sum);
          ctx.ialu(3);  // two shared-address bumps + k++
          ctx.loop_branch();
        }
      }
      ctx.sync();
      // Outer-loop overhead: tile-base advances, m++, test, branch.
      ctx.ialu(3);
      ctx.misc(1);
      ctx.loop_branch();
    }
    ctx.ialu(1);
    C.st(static_cast<std::size_t>(row) * n + col, sum);
  }
};

// Register-tiled: block (TILE, TILE/2); thread (tx, ty) computes C rows
// by*TILE+ty and by*TILE+ty+TILE/2 of column bx*TILE+tx.  The shared Bs
// operand is loaded once per k and feeds two MADs, raising the useful
// fraction of the instruction mix beyond the fully-unrolled kernel's 16/59.
struct MatmulRegTiledKernel {
  int n = 0;
  int tile = 16;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& a, DeviceBuffer<float>& b,
                  DeviceBuffer<float>& c) const {
    const int half = tile / 2;
    auto A = ctx.global(a);
    auto B = ctx.global(b);
    auto C = ctx.global(c);
    auto As = ctx.template shared<float>(static_cast<std::size_t>(tile) * tile);
    auto Bs = ctx.template shared<float>(static_cast<std::size_t>(tile) * tile);

    ctx.ialu(5);
    const int tx = static_cast<int>(ctx.thread_idx().x);
    const int ty = static_cast<int>(ctx.thread_idx().y);
    const int row0 = static_cast<int>(ctx.block_idx().y) * tile + ty;
    const int row1 = row0 + half;
    const int col = static_cast<int>(ctx.block_idx().x) * tile + tx;

    float sum0 = 0.0f, sum1 = 0.0f;
    for (int m = 0; m < n / tile; ++m) {
      // Each thread stages two rows of each input tile (coalesced).
      As.st(static_cast<std::size_t>(ty) * tile + tx,
            A.ld(static_cast<std::size_t>(row0) * n + m * tile + tx));
      As.st(static_cast<std::size_t>(ty + half) * tile + tx,
            A.ld(static_cast<std::size_t>(row1) * n + m * tile + tx));
      Bs.st(static_cast<std::size_t>(ty) * tile + tx,
            B.ld(static_cast<std::size_t>(m * tile + ty) * n + col));
      Bs.st(static_cast<std::size_t>(ty + half) * tile + tx,
            B.ld(static_cast<std::size_t>(m * tile + ty + half) * n + col));
      ctx.sync();
      // Fully unrolled; the Bs operand is shared by both accumulators.
      for (int k = 0; k < tile; ++k) {
        const float bk = Bs.ld(static_cast<std::size_t>(k) * tile + tx);
        sum0 = ctx.mad(As.ld(static_cast<std::size_t>(ty) * tile + k), bk, sum0);
        sum1 = ctx.mad(
            As.ld(static_cast<std::size_t>(ty + half) * tile + k), bk, sum1);
      }
      ctx.sync();
      ctx.ialu(3);
      ctx.misc(1);
      ctx.loop_branch();
    }
    ctx.ialu(2);
    C.st(static_cast<std::size_t>(row0) * n + col, sum0);
    C.st(static_cast<std::size_t>(row1) * n + col, sum1);
  }
};

// Launches the configured variant over n x n matrices already on the device.
// When `profiler` is non-null the launch reports its counters to it under
// the variant's `cfg.name()`; when `scope` is non-null the launch likewise
// records its g80scope time series there.
LaunchStats run_matmul(Device& dev, const MatmulConfig& cfg, int n,
                       DeviceBuffer<float>& a, DeviceBuffer<float>& b,
                       DeviceBuffer<float>& c, bool functional,
                       prof::Profiler* profiler = nullptr,
                       scope::Session* scope = nullptr);

class MatmulApp : public App {
 public:
  MatmulApp() : App("matmul-tiled", {0, 1, 33}) {}
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale,
                const LaunchOptions& base = {}) const override;
  CampaignRun launch_campaign(Device& dev,
                              const LaunchOptions& base) const override;
};

}  // namespace g80::apps
