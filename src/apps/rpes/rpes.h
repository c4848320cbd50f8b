// RPES — Rys polynomial equation solver (two-electron repulsion integrals).
//
// Computational skeleton of the paper's quantum-chemistry port: every thread
// evaluates one (bra, ket) primitive-pair repulsion integral
//
//   I_ij = c_i c_j K(eta_i, eta_j) * F0(rho |P_i - P_j|^2),
//
// where the Boys function F0(T) = Int_0^1 exp(-T t^2) dt is evaluated by
// quadrature over nodes held in constant memory — the Rys-quadrature
// structure, with one SFU exponential per node.  Very high arithmetic
// density, almost no global traffic: the paper places RPES in its
// top-speedup group ("low global access ratios ... spend most of their
// execution time performing computation", §5.1).
#pragma once

#include <cstdint>
#include <vector>

#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

inline constexpr int kRpesQuadNodes = 8;
inline constexpr int kRpesContraction = 4;  // primitive pairs per shell pair

struct RpesWorkload {
  // Primitive shell-pair data (SoA).
  std::vector<float> px, py, pz;  // composite centers
  std::vector<float> eta;         // combined exponents
  std::vector<float> coef;        // contraction coefficients
  // Gauss-Legendre nodes/weights on [0,1], as (node^2, weight).
  std::vector<Float2> quad;
  // Contraction table: per primitive pair, (exponent scale, weight).
  std::vector<Float2> contraction;

  int n() const { return static_cast<int>(eta.size()); }
  static RpesWorkload generate(int pairs, std::uint64_t seed);
};

void rpes_cpu(const RpesWorkload& w, std::vector<float>& integrals);

struct RpesKernel {
  int n = 0;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& px, DeviceBuffer<float>& py,
                  DeviceBuffer<float>& pz, DeviceBuffer<float>& eta,
                  DeviceBuffer<float>& coef, const ConstantBuffer<Float2>& quad,
                  const ConstantBuffer<Float2>& contraction,
                  DeviceBuffer<float>& out) const {
    auto Px = ctx.global(px), Py = ctx.global(py), Pz = ctx.global(pz);
    auto Eta = ctx.global(eta), Coef = ctx.global(coef);
    auto Quad = ctx.constant(quad);
    auto Contr = ctx.constant(contraction);
    auto Out = ctx.global(out);

    ctx.ialu(4);
    const int i = static_cast<int>(ctx.block_idx().y * ctx.block_dim().y +
                                   ctx.thread_idx().y);
    const int j = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x +
                                   ctx.thread_idx().x);

    const float dx = ctx.sub(Px.ld(i), Px.ld(j));
    const float dy = ctx.sub(Py.ld(i), Py.ld(j));
    const float dz = ctx.sub(Pz.ld(i), Pz.ld(j));
    const float r2 = ctx.mad(dx, dx, ctx.mad(dy, dy, ctx.mul(dz, dz)));

    const float ei = Eta.ld(i), ej = Eta.ld(j);
    const float esum = ctx.add(ei, ej);
    const float rho = ctx.mul(ctx.mul(ei, ej), ctx.rcpf(esum));
    const float t_arg = ctx.mul(rho, r2);

    // Contracted Boys sum: for each primitive pair c, quadrature
    // F0(T_c) = sum_k w_k exp(-T_c x_k^2) — 32 SFU exponentials per thread,
    // all parameters broadcast from constant memory.  This is where RPES
    // earns its place in the paper's compute-bound, top-speedup group.
    float f0 = 0.0f;
    for (int c = 0; c < kRpesContraction; ++c) {
      const Float2 cc = Contr.ld(c);  // broadcast
      const float tc = ctx.mul(t_arg, cc.x);
      float fc = 0.0f;
      for (int k = 0; k < kRpesQuadNodes; ++k) {
        const Float2 q = Quad.ld(k);  // broadcast
        fc = ctx.mad(q.y, ctx.expf(ctx.mul(ctx.sub(0.0f, tc), q.x)), fc);
        ctx.ialu(1);
        ctx.loop_branch();
      }
      f0 = ctx.mad(cc.y, fc, f0);
      ctx.ialu(1);
      ctx.loop_branch();
    }

    // Prefactor: 2 pi^(5/2) / (ei * ej * sqrt(ei + ej)).
    const float pref = ctx.mul(
        kTwoPi52,
        ctx.mul(ctx.rcpf(ctx.mul(ei, ej)), ctx.rsqrtf(esum)));
    const float val =
        ctx.mul(ctx.mul(Coef.ld(i), Coef.ld(j)), ctx.mul(pref, f0));
    ctx.ialu(2);
    Out.st(static_cast<std::size_t>(i) * n + j, val);
  }

  static constexpr float kTwoPi52 = 34.986836655249725f;  // 2 * pi^(5/2)
};

class RpesApp : public App {
 public:
  RpesApp() : App("rpes", {0, 1, 33}) {}
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale,
                const LaunchOptions& base = {}) const override;
  CampaignRun launch_campaign(Device& dev,
                              const LaunchOptions& base) const override;
};

}  // namespace g80::apps
