// Block-level A/B contract of the trace recorder (cudalite/trace_arena.h).
//
// The arena records each warp-level memory instruction as an SoA row while
// the lanes run, falling back to exact per-lane reconstruction whenever a
// warp's lanes stop matching positionally.  Its contract is that nothing
// downstream can tell which path a stream took.  Each test here records
// every block of a launch twice through block_trace_oracle.h's BlockTracer:
//   A  as launch()'s trace pass does, with one arena reused block to block;
//   B  with every stream forced onto the divergence fallback, so every
//      access is regrouped by (site, occurrence-at-site);
// and requires identical per-warp traces and per-site attribution, across
// convergent, divergent, partially-converged, multi-space, barrier-heavy and
// the tiled Section 4 matmul kernels.  Launch-level tests then check that
// launch() — sequential and on worker pools — reports the summary of the B
// traces of its sampled blocks.
#include <gtest/gtest.h>

#include <vector>

#include "apps/matmul/matmul.h"
#include "block_trace_oracle.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/worker_pool.h"

namespace g80 {
namespace {

// ---- Kernels spanning the recorder's convergence regimes --------------------

// Fully converged multi-space kernel: coalesced global loads, a stride-2
// shared store (bank conflicts), a divergence-free constant broadcast, a
// texture stream, and a barrier.  Every warp stays clean in the arena.
struct ConvergedMultiSpaceKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  const ConstantBuffer<float>& c, const Texture1D<float>& t,
                  DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    auto C = ctx.constant(c);
    auto T = ctx.texture(t);
    auto S = ctx.template shared<float>(2 * 64);
    const int tid = static_cast<int>(ctx.thread_idx().x);
    const int i = ctx.global_thread_x();
    S.st(static_cast<std::size_t>(tid) * 2, In.ld(i));
    ctx.sync();
    const float v = S.ld(static_cast<std::size_t>(tid) * 2);
    Out.st(i, ctx.mad(v, C.ld(3), T.fetch(static_cast<std::size_t>(i) % t.size())));
  }
};

// Lane-dependent trip count: lane i performs (i % 32) + 1 global stores at
// the same site.  Each lane's sequence is a prefix of the next lane's, so
// the warp's rows stay clean while their active masks shrink row by row.
struct DivergentTripCountKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& out) const {
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    float v = 0;
    for (int k = 0; k <= i % 32; ++k) {
      v = ctx.add(v, 1.0f);
      O.st(i, v);
    }
  }
};

// Partially converged: half-warps branch to arms with DIFFERENT recorder
// sites (distinct source lines), then rejoin for a common coalesced store.
// The arm accesses diverge positionally; the rejoin store still matches on
// lanes that took the first arm.
struct HalfWarpArmsKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& a, DeviceBuffer<float>& b,
                  DeviceBuffer<float>& out) const {
    auto A = ctx.global(a);
    auto B = ctx.global(b);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    float v;
    if (ctx.branch(i % 32 < 16)) {
      v = A.ld(i);
    } else {
      v = ctx.mul(B.ld(static_cast<std::size_t>(i) * 2 % b.size()), 2.0f);
    }
    O.st(i, v);
  }
};

// Uniform-looking kernel with mixed access sizes at distinct sites plus a
// scattered (uncoalesced) store — exercises the coalescing analyzer's
// serialized path through the SoA rows.
struct ScatteredStoreKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in, DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    const int i = ctx.global_thread_x();
    Out.st(static_cast<std::size_t>(i) * 2 % out.size(), In.ld(i));
  }
};

// Barrier-heavy tree reduction: lanes drop out of the shared-memory
// instructions stride by stride, between barriers.
struct StagedReduceKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in, DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    auto S = ctx.template shared<float>(64);
    const int t = static_cast<int>(ctx.thread_idx().x);
    const int base = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x);
    S.st(t, In.ld(base + t));
    ctx.sync();
    for (int stride = 32; stride > 0; stride /= 2) {
      if (ctx.branch(t < stride)) S.st(t, ctx.add(S.ld(t), S.ld(t + stride)));
      ctx.sync();
    }
    if (ctx.branch(t == 0)) Out.st(ctx.block_idx().x, S.ld(0));
  }
};

// ---- A/B harness ------------------------------------------------------------

enum class Streams { kClean, kSomeDirty };

// Records every block of `grid` through the clean (A) and all-dirty (B)
// tracers and compares them block by block.  `expect` states whether A's
// recording is all clean rows or reaches the fallback somewhere, so the
// comparison is known to cover the path it claims to.  Returns the B
// traces, indexed by linear block id.
template <class Kernel, class... Args>
std::vector<BlockTrace> expect_blocks_match_oracle(
    const DeviceSpec& spec, Dim3 grid, Dim3 block, bool uses_sync,
    Streams expect, const Kernel& kernel, Args&... args) {
  BlockTracer clean(spec, grid, block, uses_sync, /*all_dirty=*/false);
  BlockTracer dirty(spec, grid, block, uses_sync, /*all_dirty=*/true);
  std::vector<BlockTrace> oracle;
  bool any_dirty = false;
  for (std::uint64_t b = 0; b < grid.count(); ++b) {
    const BlockTrace a = clean.record(b, kernel, args...);
    any_dirty = any_dirty || clean.any_dirty();
    oracle.push_back(dirty.record(b, kernel, args...));
    const BlockTrace& o = oracle.back();
    EXPECT_FALSE(o.warps.empty()) << "block " << b;
    EXPECT_TRUE(a.warps == o.warps) << "block " << b;
    EXPECT_TRUE(a.sites == o.sites) << "block " << b;
  }
  EXPECT_EQ(any_dirty, expect == Streams::kSomeDirty);
  return oracle;
}

// A launch sampling the whole grid must summarize exactly the oracle traces.
template <class Kernel, class... Args>
void expect_launch_matches(Device& dev, Dim3 grid, Dim3 block,
                           LaunchOptions opt,
                           const std::vector<BlockTrace>& oracle,
                           const Kernel& kernel, Args&... args) {
  opt.sample_blocks = static_cast<int>(grid.count());
  const LaunchStats stats = launch(dev, grid, block, opt, kernel, args...);
  EXPECT_TRUE(stats.trace == TraceSummary::summarize(oracle));
}

// ---- Tests ------------------------------------------------------------------

TEST(TraceBatch, ConvergedMultiSpaceKernelMatchesOracle) {
  Device dev;
  const int n = 256;
  auto in = dev.alloc<float>(n);
  auto out = dev.alloc<float>(n);
  auto c = dev.alloc_constant<float>(16);
  auto t = dev.alloc_texture<float>(64);
  std::vector<float> host(n);
  for (int i = 0; i < n; ++i) host[i] = 0.5f * static_cast<float>(i);
  in.copy_from_host(host);
  std::vector<float> chost(16, 3.0f), thost(64, 0.25f);
  c.copy_from_host(chost);
  t.copy_from_host(thost);
  const ConvergedMultiSpaceKernel k;
  const auto oracle = expect_blocks_match_oracle(
      dev.spec(), Dim3(n / 64), Dim3(64), true, Streams::kClean, k, in, c, t,
      out);
  expect_launch_matches(dev, Dim3(n / 64), Dim3(64), LaunchOptions{}, oracle,
                        k, in, c, t, out);
}

TEST(TraceBatch, DivergentTripCountsMatchOracle) {
  Device dev;
  auto out = dev.alloc<float>(128);
  const DivergentTripCountKernel k;
  const auto oracle = expect_blocks_match_oracle(
      dev.spec(), Dim3(2), Dim3(64), false, Streams::kClean, k, out);
  LaunchOptions opt;
  opt.uses_sync = false;
  expect_launch_matches(dev, Dim3(2), Dim3(64), opt, oracle, k, out);
}

TEST(TraceBatch, PartiallyConvergedArmsMatchOracle) {
  Device dev;
  const int n = 256;
  auto a = dev.alloc<float>(n);
  auto b = dev.alloc<float>(2 * n);
  auto out = dev.alloc<float>(n);
  std::vector<float> ha(n, 1.5f), hb(2 * n, 2.5f);
  a.copy_from_host(ha);
  b.copy_from_host(hb);
  const HalfWarpArmsKernel k;
  const auto oracle = expect_blocks_match_oracle(
      dev.spec(), Dim3(2), Dim3(128), false, Streams::kSomeDirty, k, a, b,
      out);
  LaunchOptions opt;
  opt.uses_sync = false;
  expect_launch_matches(dev, Dim3(2), Dim3(128), opt, oracle, k, a, b, out);
}

TEST(TraceBatch, ScatteredStoresMatchOracle) {
  Device dev;
  const int n = 512;
  auto in = dev.alloc<float>(n);
  auto out = dev.alloc<float>(n);
  std::vector<float> host(n, 1.0f);
  in.copy_from_host(host);
  const ScatteredStoreKernel k;
  const auto oracle = expect_blocks_match_oracle(
      dev.spec(), Dim3(n / 64), Dim3(64), false, Streams::kClean, k, in, out);
  LaunchOptions opt;
  opt.uses_sync = false;
  expect_launch_matches(dev, Dim3(n / 64), Dim3(64), opt, oracle, k, in, out);
}

TEST(TraceBatch, BarrierReduceMatchesOracle) {
  // Lanes drop out of the shared-memory instructions stride by stride; each
  // lane's sequence stays a prefix of lane 0's, so the rows stay clean.
  Device dev;
  const int blocks = 4;
  auto in = dev.alloc<float>(blocks * 64);
  auto out = dev.alloc<float>(blocks);
  std::vector<float> host(blocks * 64, 1.0f);
  in.copy_from_host(host);
  const StagedReduceKernel k;
  const auto oracle = expect_blocks_match_oracle(
      dev.spec(), Dim3(blocks), Dim3(64), true, Streams::kClean, k, in, out);
  LaunchOptions opt;
  opt.sanitize.enabled = true;  // an observed launch records the same trace
  opt.sanitize.abort_on_error = false;
  expect_launch_matches(dev, Dim3(blocks), Dim3(64), opt, oracle, k, in, out);
}

struct MatmulFixture {
  static constexpr int kN = 128, kTile = 16;
  Device dev;
  DeviceBuffer<float> a, b, c;
  apps::MatmulTiledKernel kernel{kN, kTile, /*unrolled=*/true};

  explicit MatmulFixture(std::uint64_t seed)
      : a(dev.alloc<float>(static_cast<std::size_t>(kN) * kN)),
        b(dev.alloc<float>(static_cast<std::size_t>(kN) * kN)),
        c(dev.alloc<float>(static_cast<std::size_t>(kN) * kN)) {
    const auto wl = apps::MatmulWorkload::generate(kN, seed);
    a.copy_from_host(wl.a);
    b.copy_from_host(wl.b);
  }
  Dim3 grid() const { return Dim3(kN / kTile, kN / kTile); }
  Dim3 block() const { return Dim3(kTile, kTile); }
};

TEST(TraceBatch, SectionFourMatmulMatchesOracle) {
  MatmulFixture f(7);
  const auto oracle = expect_blocks_match_oracle(
      f.dev.spec(), f.grid(), f.block(), true, Streams::kClean, f.kernel,
      f.a, f.b, f.c);
  LaunchOptions opt;
  opt.regs_per_thread = 9;
  expect_launch_matches(f.dev, f.grid(), f.block(), opt, oracle, f.kernel,
                        f.a, f.b, f.c);
}

TEST(TraceBatch, BlockParallelPoolsMatchOracle) {
  // Worker pools give each slot its own arena, reused across the blocks the
  // slot traces; per-block traces must merge to the oracle summary
  // whichever slot recorded them.
  MatmulFixture f(11);
  const int samples = 16;
  const TraceSummary oracle =
      oracle_summary(f.dev.spec(), f.grid(), f.block(), true, samples,
                     f.kernel, f.a, f.b, f.c);
  for (int workers : {1, 3}) {
    WorkerPool pool(workers);
    LaunchOptions opt;
    opt.regs_per_thread = 9;
    opt.pool = workers > 1 ? &pool : nullptr;
    opt.sample_blocks = samples;
    const LaunchStats stats =
        launch(f.dev, f.grid(), f.block(), opt, f.kernel, f.a, f.b, f.c);
    EXPECT_TRUE(stats.trace == oracle) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace g80
