// Invariant fuzzing (ROADMAP item 5): randomized launch configurations
// checked against universal properties of the simulator, rather than
// hand-computed expectations.  Tier-1 runs a small fixed-seed sweep so
// results are reproducible; the long configuration (G80_LONG_FUZZ /
// `ctest -L long`) re-runs the same binary with a larger iteration budget:
//
//   G80_FUZZ_ITERS   iterations per property sweep (default 8)
//   G80_FUZZ_SEED    RNG seed (default 12345)
//
// Properties checked on every random configuration:
//   1. block scheduling never changes results: sequential, pooled, and
//      ambient-pool launches produce bit-identical outputs and identical
//      modeled timing;
//   2. the g80check sanitize pass is sound on clean kernels (no findings)
//      and side-effect-free (outputs identical with it on or off);
//   3. an enabled-but-untriggered resilience policy is a no-op: same
//      outputs, exactly one attempt, clean history;
//   4. model sanity: occupancy fraction in (0, 1], modeled time positive,
//      achieved DRAM bandwidth never exceeds the 86.4 GB/s hardware peak;
//   5. the functional fast path is invisible in results: for every random
//      configuration, {fast path on/off} x {sequential, pooled 2, pooled 4}
//      x {fast/ucontext fiber engine} all produce bit-identical outputs, and
//      the fast-path LaunchStats themselves are identical whichever
//      scheduler ran them (empty trace/timing, same occupancy footprint);
//   6. the trace recorder (cudalite/trace_arena.h) is exact and scheduling-
//      invariant: for every random configuration, the sequential launch's
//      trace summary equals the block-level oracle's (every sampled block
//      recorded with all streams forced onto the divergence fallback, see
//      block_trace_oracle.h), and {sequential, pooled 2, pooled 4} x
//      {fast/ucontext fiber engine} agree with the sequential run on
//      outputs, the full trace summary, and modeled timing, bit for bit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "block_trace_oracle.h"
#include "common/error.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/fiber.h"
#include "exec/worker_pool.h"

namespace g80 {
namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::atoi(v);
}

int fuzz_iters() { return std::max(1, env_int("G80_FUZZ_ITERS", 8)); }
unsigned fuzz_seed() {
  return static_cast<unsigned>(env_int("G80_FUZZ_SEED", 12345));
}

// Streaming kernel, no synchronization: every thread transforms one element.
struct MadStreamKernel {
  int n = 0;
  float scale = 1.0f;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    const int i = ctx.global_thread_x();
    if (ctx.branch(i < n)) {
      float v = In.ld(i);
      v = ctx.mad(v, scale, 1.0f);
      Out.st(i, v);
    }
  }
};

// Cooperative kernel: block-wide reverse through shared memory (barrier +
// shared stores, so the sanitize pass has real work to validate).
struct ReverseKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    auto S = ctx.template shared<float>(ctx.block_dim().x);
    const int t = static_cast<int>(ctx.thread_idx().x);
    const int base = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x);
    S.st(t, In.ld(base + t));
    ctx.sync();
    Out.st(base + t, S.ld(ctx.block_dim().x - 1 - t));
  }
};

// One random launch configuration.
struct FuzzConfig {
  int blocks = 1;
  int threads = 32;
  int sample_blocks = 1;
  int regs = 10;
  bool cooperative = false;  // ReverseKernel instead of MadStreamKernel
  float scale = 1.0f;

  int n() const { return blocks * threads; }
  std::string str() const {
    return "blocks=" + std::to_string(blocks) +
           " threads=" + std::to_string(threads) +
           " sample_blocks=" + std::to_string(sample_blocks) +
           " regs=" + std::to_string(regs) +
           (cooperative ? " kernel=reverse" : " kernel=mad");
  }
};

FuzzConfig random_config(std::mt19937& rng) {
  static const int kThreads[] = {32, 64, 128, 256};
  FuzzConfig c;
  c.blocks = std::uniform_int_distribution<int>(1, 8)(rng);
  c.threads = kThreads[std::uniform_int_distribution<int>(0, 3)(rng)];
  c.sample_blocks = std::uniform_int_distribution<int>(1, 4)(rng);
  c.regs = std::uniform_int_distribution<int>(8, 16)(rng);
  c.cooperative = std::uniform_int_distribution<int>(0, 1)(rng) == 1;
  c.scale =
      0.25f * static_cast<float>(std::uniform_int_distribution<int>(1, 8)(rng));
  return c;
}

std::vector<float> random_input(std::mt19937& rng, int n) {
  std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = dist(rng);
  return v;
}

LaunchOptions base_options(const FuzzConfig& c) {
  LaunchOptions opt;
  opt.regs_per_thread = c.regs;
  opt.sample_blocks = c.sample_blocks;
  opt.uses_sync = c.cooperative;
  return opt;
}

// Runs `c` with the given options on a fresh device; returns (output, stats).
std::pair<std::vector<float>, LaunchStats> run_config(
    const FuzzConfig& c, const std::vector<float>& input,
    const LaunchOptions& opt) {
  Device dev;
  auto in = dev.alloc<float>(static_cast<std::size_t>(c.n()));
  auto out = dev.alloc<float>(static_cast<std::size_t>(c.n()));
  in.copy_from_host(input);
  LaunchStats stats;
  if (c.cooperative) {
    stats = launch(dev, Dim3(static_cast<unsigned>(c.blocks)),
                   Dim3(static_cast<unsigned>(c.threads)), opt, ReverseKernel{},
                   in, out);
  } else {
    stats = launch(dev, Dim3(static_cast<unsigned>(c.blocks)),
                   Dim3(static_cast<unsigned>(c.threads)), opt,
                   MadStreamKernel{c.n(), c.scale}, in, out);
  }
  return {out.copy_to_host(), stats};
}

TEST(InvariantFuzz, BlockSchedulingNeverChangesResults) {
  std::mt19937 rng(fuzz_seed());
  WorkerPool pool(4);
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());

    const auto [seq_out, seq_stats] = run_config(c, input, base_options(c));

    LaunchOptions pooled = base_options(c);
    pooled.pool = &pool;
    const auto [pool_out, pool_stats] = run_config(c, input, pooled);

    ScopedLaunchPool ambient(&pool);
    const auto [amb_out, amb_stats] = run_config(c, input, base_options(c));

    EXPECT_EQ(seq_out, pool_out) << c.str();
    EXPECT_EQ(seq_out, amb_out) << c.str();
    EXPECT_DOUBLE_EQ(seq_stats.timing.seconds, pool_stats.timing.seconds)
        << c.str();
    EXPECT_DOUBLE_EQ(seq_stats.trace.total.lane_flops,
                     pool_stats.trace.total.lane_flops)
        << c.str();
    EXPECT_EQ(seq_stats.smem_per_block, pool_stats.smem_per_block) << c.str();
  }
}

TEST(InvariantFuzz, SanitizerSoundAndSideEffectFreeOnCleanKernels) {
  std::mt19937 rng(fuzz_seed() + 1);
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());

    const auto [plain_out, plain_stats] = run_config(c, input, base_options(c));

    LaunchOptions sanitized = base_options(c);
    sanitized.sanitize.enabled = true;
    const auto [san_out, san_stats] = run_config(c, input, sanitized);

    EXPECT_TRUE(san_stats.sanitizer.clean())
        << c.str() << ": " << san_stats.sanitizer.summary();
    EXPECT_EQ(plain_out, san_out) << c.str();
  }
}

TEST(InvariantFuzz, UntriggeredResiliencePolicyIsNoOp) {
  std::mt19937 rng(fuzz_seed() + 2);
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());

    const auto [plain_out, plain_stats] = run_config(c, input, base_options(c));

    LaunchOptions resilient = base_options(c);
    resilient.resilience.enabled = true;
    resilient.resilience.wall_timeout_s = 60.0;  // never fires
    const auto [res_out, res_stats] = run_config(c, input, resilient);

    EXPECT_EQ(plain_out, res_out) << c.str();
    EXPECT_EQ(res_stats.resilience.attempts, 1) << c.str();
    EXPECT_FALSE(res_stats.resilience.recovered) << c.str();
    EXPECT_FALSE(res_stats.resilience.timed_out) << c.str();
    ASSERT_EQ(res_stats.resilience.history.size(), 1u) << c.str();
    EXPECT_EQ(res_stats.resilience.history[0].status, Status::kSuccess)
        << c.str();
    EXPECT_DOUBLE_EQ(plain_stats.timing.seconds, res_stats.timing.seconds)
        << c.str();
  }
}

TEST(InvariantFuzz, FastPathInvisibleAcrossSchedulersAndFiberEngines) {
  std::mt19937 rng(fuzz_seed() + 4);
  WorkerPool pool2(2);
  WorkerPool pool4(4);
  std::vector<Fiber::Backend> backends{Fiber::Backend::kUcontext};
  if (Fiber::fast_backend_supported())
    backends.push_back(Fiber::Backend::kFast);
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());

    // Traced sequential run on the default engine is the reference.
    const auto [ref_out, ref_stats] = run_config(c, input, base_options(c));

    std::vector<LaunchStats> fast_stats;
    for (Fiber::Backend backend : backends) {
      for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &pool2,
                               &pool4}) {
        LaunchOptions fast = base_options(c);
        fast.fast_path = true;
        fast.fiber_backend = backend;
        fast.pool = pool;
        const auto [out, stats] = run_config(c, input, fast);
        EXPECT_EQ(ref_out, out)
            << c.str() << " pool=" << (pool ? pool->width() : 1)
            << " backend=" << (backend == Fiber::Backend::kFast ? "fast"
                                                                : "ucontext");
        fast_stats.push_back(stats);
      }
    }
    // Every fast-path run reports the same stats, whichever scheduler and
    // fiber engine produced it: no trace, no modeled timing, but the same
    // occupancy/footprint numbers the traced run derived.
    for (const auto& s : fast_stats) {
      EXPECT_EQ(s.trace.num_blocks, 0) << c.str();
      EXPECT_EQ(s.timing.seconds, 0.0) << c.str();
      EXPECT_EQ(s.smem_per_block, ref_stats.smem_per_block) << c.str();
      EXPECT_EQ(s.occupancy.blocks_per_sm, ref_stats.occupancy.blocks_per_sm)
          << c.str();
      EXPECT_EQ(s.occupancy.limiter, ref_stats.occupancy.limiter) << c.str();
    }
  }
}

// Trace summary of `c`'s launch per the block-level all-dirty oracle.
TraceSummary oracle_trace(const FuzzConfig& c,
                          const std::vector<float>& input) {
  Device dev;
  auto in = dev.alloc<float>(static_cast<std::size_t>(c.n()));
  auto out = dev.alloc<float>(static_cast<std::size_t>(c.n()));
  in.copy_from_host(input);
  const Dim3 grid(static_cast<unsigned>(c.blocks));
  const Dim3 block(static_cast<unsigned>(c.threads));
  if (c.cooperative) {
    return oracle_summary(dev.spec(), grid, block, true, c.sample_blocks,
                          ReverseKernel{}, in, out);
  }
  return oracle_summary(dev.spec(), grid, block, false, c.sample_blocks,
                        MadStreamKernel{c.n(), c.scale}, in, out);
}

TEST(InvariantFuzz, TraceRecorderMatchesOracleAcrossSchedulersAndFiberEngines) {
  std::mt19937 rng(fuzz_seed() + 5);
  WorkerPool pool2(2);
  WorkerPool pool4(4);
  std::vector<Fiber::Backend> backends{Fiber::Backend::kUcontext};
  if (Fiber::fast_backend_supported())
    backends.push_back(Fiber::Backend::kFast);
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());

    // The sequential run on the default engine is the reference; its
    // trace must be the oracle's.
    const auto [ref_out, ref_stats] = run_config(c, input, base_options(c));
    EXPECT_TRUE(oracle_trace(c, input) == ref_stats.trace) << c.str();

    for (Fiber::Backend backend : backends) {
      for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &pool2,
                               &pool4}) {
        LaunchOptions opt = base_options(c);
        opt.fiber_backend = backend;
        opt.pool = pool;
        const auto [out, stats] = run_config(c, input, opt);
        const std::string label =
            c.str() + " pool=" + std::to_string(pool ? pool->width() : 1) +
            " backend=" +
            (backend == Fiber::Backend::kFast ? "fast" : "ucontext");
        EXPECT_EQ(ref_out, out) << label;
        // The entire trace summary — every warp counter, DRAM byte, and
        // per-site attribution row — must match the sequential run.
        EXPECT_TRUE(ref_stats.trace == stats.trace) << label;
        EXPECT_EQ(ref_stats.timing.seconds, stats.timing.seconds) << label;
        EXPECT_EQ(ref_stats.timing.kernel_cycles, stats.timing.kernel_cycles)
            << label;
      }
    }
  }
}

TEST(InvariantFuzz, ModelStaysWithinHardwareEnvelope) {
  std::mt19937 rng(fuzz_seed() + 3);
  const DeviceSpec spec = DeviceSpec::geforce_8800_gtx();
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());
    const auto [out, stats] = run_config(c, input, base_options(c));

    const double occ = stats.occupancy.fraction(spec);
    EXPECT_GT(occ, 0.0) << c.str();
    EXPECT_LE(occ, 1.0) << c.str();
    EXPECT_GT(stats.timing.seconds, 0.0) << c.str();
    EXPECT_LE(stats.timing.dram_gbs, spec.dram_bandwidth_gbs * (1 + 1e-9))
        << c.str();
    EXPECT_LE(stats.occupancy.active_warps_per_sm, spec.max_warps_per_sm())
        << c.str();
  }
}

}  // namespace
}  // namespace g80
