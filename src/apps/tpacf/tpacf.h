// TPACF — two-point angular correlation function.
//
// Computes a histogram of angular separations between pairs of points on
// the celestial sphere (data-data plus data-random cross pairs).  The GPU
// port follows the structure the paper describes for its highest-speedup
// group: tiles of points staged through shared memory, per-thread private
// histograms laid out bin-major in shared memory so each lane owns a bank
// (the §5.2 "care must be taken so that threads in the same warp access
// different banks" optimization), and a cooperative reduction at the end.
// Bin selection is a binary search over precomputed dot-product thresholds
// in constant memory — the suite's canonical source of branch divergence.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

inline constexpr int kTpacfBins = 16;
inline constexpr int kTpacfBlockThreads = 64;

struct TpacfWorkload {
  // Unit vectors on the sphere (SoA).
  std::vector<float> x, y, z;
  // Bin edges as descending cos(theta) thresholds, kTpacfBins-1 of them.
  std::vector<float> bin_edges;

  static TpacfWorkload generate(int points, std::uint64_t seed);
};

void tpacf_cpu(const TpacfWorkload& w,
               std::array<std::uint64_t, kTpacfBins>& hist);

// Maps a dot product to its bin exactly as the kernel's binary search does.
int tpacf_bin(const std::vector<float>& edges, float dot);

// Shared-memory layout of the per-thread histograms — the §5.2 bank-conflict
// knob (bench/ablation_bankconflict):
//   kBinMajor    hist[bin][thread]: lane = bank, conflict-free (the paper's
//                "care must be taken so that threads in the same warp access
//                different banks" resolution)
//   kThreadMajor hist[thread][bin]: with 16 bins, every lane of a half-warp
//                maps its whole histogram onto one bank => 16-way conflicts
enum class TpacfHistLayout { kBinMajor, kThreadMajor };

struct TpacfKernel {
  int num_points = 0;
  TpacfHistLayout hist_layout = TpacfHistLayout::kBinMajor;

  // Each block owns kTpacfBlockThreads consecutive "i" points and loops over
  // all "j" points in shared-memory tiles; every thread accumulates a
  // private histogram in shared memory (layout hist[bin][thread] =>
  // bank = thread % 16, conflict-free), then the block reduces into global
  // memory (one partial histogram per block; host sums).
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& x, DeviceBuffer<float>& y,
                  DeviceBuffer<float>& z, const ConstantBuffer<float>& edges,
                  DeviceBuffer<unsigned>& block_hist) const {
    auto X = ctx.global(x);
    auto Y = ctx.global(y);
    auto Z = ctx.global(z);
    auto E = ctx.constant(edges);
    auto Out = ctx.global(block_hist);

    const int nt = kTpacfBlockThreads;
    auto tile =
        ctx.template shared<float>(3 * static_cast<std::size_t>(nt));
    auto hist = ctx.template shared<unsigned>(
        static_cast<std::size_t>(kTpacfBins) * nt);

    ctx.ialu(3);
    const int tid = static_cast<int>(ctx.thread_idx().x);
    const int i = static_cast<int>(ctx.block_idx().x) * nt + tid;

    const auto hist_slot = [&](int b) {
      return hist_layout == TpacfHistLayout::kBinMajor
                 ? static_cast<std::size_t>(b) * nt + tid
                 : static_cast<std::size_t>(tid) * kTpacfBins + b;
    };

    // Zero the private histogram.
    for (int b = 0; b < kTpacfBins; ++b) {
      hist.st(hist_slot(b), 0u);
      ctx.ialu(1);
      ctx.loop_branch();
    }

    const bool have_i = i < num_points;
    float xi = 0, yi = 0, zi = 0;
    if (ctx.branch(have_i)) {
      xi = X.ld(i);
      yi = Y.ld(i);
      zi = Z.ld(i);
    }

    for (int base = 0; base < num_points; base += nt) {
      // Stage a tile of j points (coalesced loads).
      ctx.ialu(2);
      const int j = base + tid;
      if (ctx.branch(j < num_points)) {
        tile.st(static_cast<std::size_t>(tid), X.ld(j));
        tile.st(static_cast<std::size_t>(nt + tid), Y.ld(j));
        tile.st(static_cast<std::size_t>(2 * nt + tid), Z.ld(j));
      }
      ctx.sync();

      if (have_i) {
        const int limit = std::min(nt, num_points - base);
        for (int t = 0; t < limit; ++t) {
          ctx.ialu(2);
          const int jj = base + t;
          // Count ordered pairs i < j once.
          if (ctx.branch(jj > i)) {
            const float dot = ctx.mad(
                xi, tile.ld(static_cast<std::size_t>(t)),
                ctx.mad(yi, tile.ld(static_cast<std::size_t>(nt + t)),
                        ctx.mul(zi, tile.ld(static_cast<std::size_t>(2 * nt + t)))));
            // Binary search over descending thresholds: divergent by design.
            int lo = 0, hi = kTpacfBins - 1;
            while (lo < hi) {
              ctx.ialu(2);
              const int mid = (lo + hi) / 2;
              if (ctx.branch(ctx.fcmp(dot >= E.ld(mid)))) {
                hi = mid;
              } else {
                lo = mid + 1;
              }
              ctx.loop_branch();
            }
            ctx.ialu(2);
            const std::size_t slot = hist_slot(lo);
            hist.st(slot, hist.ld(slot) + 1u);
          }
          ctx.loop_branch();
        }
      }
      ctx.sync();
      ctx.ialu(1);
      ctx.loop_branch();
    }

    // Block-level reduction: thread t sums bin t's per-thread counters
    // (kTpacfBins <= nt), then writes the block's partial histogram.
    if (ctx.branch(tid < kTpacfBins)) {
      unsigned total = 0;
      for (int t = 0; t < nt; ++t) {
        ctx.ialu(2);
        total += hist.ld(hist_layout == TpacfHistLayout::kBinMajor
                             ? static_cast<std::size_t>(tid) * nt + t
                             : static_cast<std::size_t>(t) * kTpacfBins + tid);
        ctx.loop_branch();
      }
      Out.st(static_cast<std::size_t>(ctx.block_idx().x) * kTpacfBins + tid,
             total);
    }
  }
};

class TpacfApp : public App {
 public:
  // Global output is written only by the reduction threads (tid < kTpacfBins).
  TpacfApp() : App("tpacf", {0, kTpacfBins - 1}) {}
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale,
                const LaunchOptions& base = {}) const override;
  CampaignRun launch_campaign(Device& dev,
                              const LaunchOptions& base) const override;
};

}  // namespace g80::apps
