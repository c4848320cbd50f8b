// FEM — finite-element solver kernel: Jacobi relaxation of a sparse,
// diagonally-dominant system assembled on a synthetic unstructured mesh
// (CSR storage).
//
// The characteristic behaviour the paper reports for its FEM port: gathers
// through an irregular index list (the x[col] fetches stay uncoalesced no
// matter what), a high memory-to-compute ratio that saturates DRAM
// bandwidth, and a kernel relaunch per smoothing iteration because updates
// must propagate globally (§5.1's time-sliced-simulator pattern).
//
// The device-side matrix uses the padded column-major (ELLPACK) layout the
// early CUDA sparse kernels adopted: entry k of row i lives at [k*nodes+i],
// so consecutive threads read consecutive column indices and values —
// fully coalesced — while the x[col] gather remains the scattered access
// that makes FEM bandwidth-bound.
#pragma once

#include <cstdint>
#include <vector>

#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

struct FemMesh {
  int nodes = 0;
  // CSR adjacency (off-diagonal entries only) — host/reference layout.
  std::vector<int> row_ptr;    // nodes + 1
  std::vector<int> col_idx;    // nnz
  std::vector<float> values;   // nnz
  std::vector<float> diag;     // nodes (diagonally dominant)
  std::vector<float> rhs;      // nodes

  static FemMesh generate(int nodes, int avg_degree, std::uint64_t seed);

  // Device layout: ELLPACK with `ell_width` slots per row, padded with
  // (col = row, value = 0) entries so padded slots are harmless reads.
  int ell_width() const;
  void to_ell(std::vector<int>& cols, std::vector<float>& vals) const;
};

// `iters` Jacobi sweeps: x_new[i] = (b[i] - sum_j a_ij x[j]) / a_ii.
void fem_cpu(const FemMesh& m, int iters, std::vector<float>& x);

struct FemKernel {
  int nodes = 0;
  int ell_width = 0;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& ell_cols,
                  DeviceBuffer<float>& ell_vals, DeviceBuffer<float>& diag,
                  DeviceBuffer<float>& rhs, DeviceBuffer<float>& x_in,
                  DeviceBuffer<float>& x_out) const {
    auto Ci = ctx.global(ell_cols);
    auto Va = ctx.global(ell_vals);
    auto Dg = ctx.global(diag);
    auto B = ctx.global(rhs);
    auto Xi = ctx.global(x_in);
    auto Xo = ctx.global(x_out);

    ctx.ialu(2);
    const int i = ctx.global_thread_x();
    if (!ctx.branch(i < nodes)) return;

    float acc = B.ld(i);
    for (int k = 0; k < ell_width; ++k) {
      // Column/value streams coalesce (column-major ELL); the x[col] gather
      // is the scattered access the paper's FEM suffers.
      const std::size_t slot = static_cast<std::size_t>(k) * nodes +
                               static_cast<std::size_t>(i);
      const int col = Ci.ld(slot);
      acc = ctx.mad(ctx.sub(0.0f, Va.ld(slot)), Xi.ld(col), acc);
      ctx.ialu(2);
      ctx.loop_branch();
    }
    Xo.st(i, ctx.fdiv(acc, Dg.ld(i)));
  }
};

class FemApp : public App {
 public:
  FemApp() : App("fem", {0, 1, 63}) {}
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale,
                const LaunchOptions& base = {}) const override;
  CampaignRun launch_campaign(Device& dev,
                              const LaunchOptions& base) const override;
};

}  // namespace g80::apps
