// PR 8 execution-engine rework: the fast fiber switch engine, warp-batched
// block scheduling, the functional fast path, and work-stealing dispatch.
//
// The contract under test everywhere: none of these throughput levers may
// change observable results.  Outputs are bit-identical to the traced
// sequential path, traced stats are bit-identical across schedulers, and
// the fast path is refused whenever an observer needs the instrumented
// passes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "apps/matmul/matmul.h"
#include "apps/suite.h"
#include "common/error.h"
#include "core/app.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/block_runner.h"
#include "exec/fiber.h"
#include "exec/worker_pool.h"
#include "prof/profiler.h"
#include "scope/session.h"

namespace g80 {
namespace {

// ---- Fiber engines behave identically -----------------------------------------

std::vector<Fiber::Backend> backends_under_test() {
  std::vector<Fiber::Backend> b{Fiber::Backend::kUcontext};
  if (Fiber::fast_backend_supported()) b.push_back(Fiber::Backend::kFast);
  return b;
}

TEST(FiberBackend, YieldOrderAndReuseMatchAcrossEngines) {
  for (Fiber::Backend backend : backends_under_test()) {
    Fiber f(64 * 1024, backend);
    std::vector<int> order;
    f.start([&] {
      order.push_back(1);
      f.yield();
      order.push_back(3);
    });
    order.push_back(0);
    EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
    order.push_back(2);
    EXPECT_EQ(f.resume(), Fiber::State::kDone);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));

    // Re-arm the same fiber (stack reuse) with the raw entry overload.
    struct Box {
      Fiber* fiber;
      int hits = 0;
    } box{&f};
    f.start(
        +[](void* arg) {
          auto* b = static_cast<Box*>(arg);
          ++b->hits;
          b->fiber->yield();
          ++b->hits;
        },
        &box);
    EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
    EXPECT_EQ(box.hits, 1);
    EXPECT_EQ(f.resume(), Fiber::State::kDone);
    EXPECT_EQ(box.hits, 2);
  }
}

TEST(FiberBackend, ExceptionsRethrowOnSchedulerStack) {
  for (Fiber::Backend backend : backends_under_test()) {
    Fiber f(64 * 1024, backend);
    f.start([&] {
      f.yield();
      throw std::runtime_error("late failure");
    });
    EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
    EXPECT_THROW(f.resume(), std::runtime_error);
    EXPECT_EQ(f.state(), Fiber::State::kDone);
  }
}

TEST(FiberBackend, UnsupportedFastRequestDegradesToUcontext) {
  if (Fiber::fast_backend_supported()) {
    Fiber f(64 * 1024, Fiber::Backend::kFast);
    EXPECT_EQ(f.backend(), Fiber::Backend::kFast);
  } else {
    Fiber f(64 * 1024, Fiber::Backend::kFast);
    EXPECT_EQ(f.backend(), Fiber::Backend::kUcontext);
  }
}

// ---- Warp-batched scheduling vs per-lane fallback ------------------------------

// Observer that forces the per-lane scheduling path without changing any
// semantics — the control for batched-vs-fallback comparisons.
class NoopObserver : public BarrierObserver {
 public:
  void on_barrier_release(const BarrierSnapshot& snap) override {
    releases_ += 1;
    waiters_ += static_cast<int>(snap.waiting.size());
  }
  int releases_ = 0;
  int waiters_ = 0;
};

// Each thread loops `trips(tid)` times, accumulating a value and hitting the
// barrier once per trip; threads therefore exit at different generations,
// exercising divergent-termination fallback inside warps.
void run_divergent_block(BlockRunner& r, int threads,
                         std::vector<int>& out, BarrierObserver* obs) {
  out.assign(threads, 0);
  r.set_barrier_observer(obs);
  r.run(threads, [&](int tid) {
    const int trips = 1 + (tid % 5);
    for (int k = 0; k < trips; ++k) {
      out[tid] += tid + k;
      r.sync(tid);
    }
  });
  r.set_barrier_observer(nullptr);
}

TEST(WarpBatching, DivergentExitMatchesObservedPerLanePath) {
  for (Fiber::Backend backend : backends_under_test()) {
    for (int threads : {1, 31, 32, 33, 96, 256}) {
      BlockRunner batched(threads, 16 * 1024, 64 * 1024, backend);
      std::vector<int> fast_out;
      run_divergent_block(batched, threads, fast_out, nullptr);
      const int fast_barriers = batched.barriers_executed();

      BlockRunner observed(threads, 16 * 1024, 64 * 1024, backend);
      std::vector<int> slow_out;
      NoopObserver obs;
      run_divergent_block(observed, threads, slow_out, &obs);

      EXPECT_EQ(fast_out, slow_out) << threads << " threads";
      EXPECT_EQ(fast_barriers, observed.barriers_executed())
          << threads << " threads";
      EXPECT_EQ(obs.releases_, observed.barriers_executed());
    }
  }
}

TEST(WarpBatching, FullyConvergedWarpsKeepBarrierSemantics) {
  const int threads = 64;
  BlockRunner r(threads, 16 * 1024);
  // Classic two-phase shared pattern: phase 2 must see every phase-1 write.
  std::vector<int> seen(threads, 0);
  std::vector<int> phase1(threads, 0);
  r.run(threads, [&](int tid) {
    phase1[tid] = tid + 1;
    r.sync(tid);
    seen[tid] = phase1[(tid + 1) % threads];
  });
  EXPECT_EQ(r.barriers_executed(), 1);
  for (int t = 0; t < threads; ++t)
    EXPECT_EQ(seen[t], (t + 1) % threads + 1) << t;
}

// ---- Launch-level fast path ----------------------------------------------------

struct MatmulSetup {
  Device dev;
  DeviceBuffer<float> a, b, c;
  int n, tile;
  apps::MatmulTiledKernel kernel;

  explicit MatmulSetup(const apps::MatmulWorkload& wl, int n_, int tile_)
      : a(dev.alloc<float>(wl.a.size())),
        b(dev.alloc<float>(wl.b.size())),
        c(dev.alloc<float>(static_cast<std::size_t>(n_) * n_)),
        n(n_),
        tile(tile_),
        kernel{n_, tile_, /*unrolled=*/true} {
    a.copy_from_host(wl.a);
    b.copy_from_host(wl.b);
  }

  LaunchStats go(const LaunchOptions& opt) {
    return launch(dev, Dim3(n / tile, n / tile), Dim3(tile, tile), opt,
                  kernel, a, b, c);
  }
};

TEST(LaunchFastPath, BitIdenticalOutputsAndEmptyStats) {
  const int n = 64, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 7);

  MatmulSetup traced(wl, n, tile);
  LaunchOptions topt;
  topt.regs_per_thread = 9;
  const LaunchStats ts = traced.go(topt);
  const auto ref = traced.c.copy_to_host();
  EXPECT_GT(ts.timing.seconds, 0.0);
  EXPECT_GT(ts.trace.num_blocks, 0);

  for (int workers : {1, 2, 4}) {
    MatmulSetup fast(wl, n, tile);
    WorkerPool pool(workers);
    LaunchOptions fopt;
    fopt.regs_per_thread = 9;
    fopt.fast_path = true;
    fopt.pool = workers > 1 ? &pool : nullptr;
    const LaunchStats fs = fast.go(fopt);
    const auto out = fast.c.copy_to_host();
    ASSERT_EQ(out.size(), ref.size()) << workers << " workers";
    EXPECT_EQ(
        std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)), 0)
        << workers << " workers";
    // The fast path skips trace/timing entirely...
    EXPECT_EQ(fs.trace.num_blocks, 0) << workers;
    EXPECT_EQ(fs.timing.seconds, 0.0) << workers;
    // ...but occupancy and the shared-memory footprint still come out
    // identical to the traced path (derived without a trace).
    EXPECT_EQ(fs.smem_per_block, ts.smem_per_block) << workers;
    EXPECT_EQ(fs.occupancy.blocks_per_sm, ts.occupancy.blocks_per_sm);
    EXPECT_EQ(fs.occupancy.limiter, ts.occupancy.limiter);
  }
}

TEST(LaunchFastPath, AmbientFastPathEquivalentToOption) {
  const int n = 32, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 11);
  MatmulSetup direct(wl, n, tile);
  LaunchOptions dopt;
  dopt.fast_path = true;
  const LaunchStats ds = direct.go(dopt);
  const auto ref = direct.c.copy_to_host();

  MatmulSetup ambient(wl, n, tile);
  LaunchStats as;
  {
    ScopedFastPath scoped;
    as = ambient.go(LaunchOptions{});
  }
  const auto out = ambient.c.copy_to_host();
  EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)),
            0);
  EXPECT_EQ(as.trace.num_blocks, ds.trace.num_blocks);
  EXPECT_EQ(as.timing.seconds, 0.0);
  EXPECT_FALSE(ambient_fast_path()) << "scope must restore the previous value";
}

TEST(LaunchFastPath, RejectedWhileObserversAttached) {
  const int n = 32, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 3);

  // Profiler attached: the traced passes must run (counters derive from
  // them), so timing comes out non-zero despite fast_path.
  {
    MatmulSetup m(wl, n, tile);
    prof::Profiler profiler;
    LaunchOptions opt;
    opt.fast_path = true;
    opt.prof.sink = &profiler;
    opt.prof.kernel_name = "mm";
    const LaunchStats s = m.go(opt);
    EXPECT_GT(s.timing.seconds, 0.0);
    EXPECT_GT(s.trace.num_blocks, 0);
    ASSERT_EQ(profiler.kernels().size(), 1u);
    EXPECT_GT(profiler.kernels().front().launches, 0);
  }
  // Scope session attached: same rejection.
  {
    MatmulSetup m(wl, n, tile);
    scope::Session session;
    LaunchOptions opt;
    opt.fast_path = true;
    opt.scope.sink = &session;
    const LaunchStats s = m.go(opt);
    EXPECT_GT(s.timing.seconds, 0.0);
  }
  // Sanitizer enabled: the sanitize pass (and the trace pass) must run.
  {
    MatmulSetup m(wl, n, tile);
    LaunchOptions opt;
    opt.fast_path = true;
    opt.sanitize.enabled = true;
    const LaunchStats s = m.go(opt);
    EXPECT_GT(s.timing.seconds, 0.0);
    EXPECT_TRUE(s.sanitizer.clean());
  }
}

TEST(LaunchFastPath, ModeledWatchdogStillArmsOneSample) {
  const int n = 64, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 5);
  MatmulSetup m(wl, n, tile);
  LaunchOptions opt;
  opt.fast_path = true;
  opt.resilience.enabled = true;
  opt.resilience.modeled_timeout_s = 1e-12;  // below any real kernel
  opt.resilience.max_retries = 0;
  opt.resilience.allow_fallback = false;
  try {
    m.go(opt);
    FAIL() << "modeled watchdog did not fire under the fast path";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kTimeout);
  }
}

TEST(LaunchFastPath, SuiteOutputsUnchangedUnderFastPathAndPool) {
  const DeviceSpec spec = DeviceSpec::geforce_8800_gtx();
  WorkerPool pool(4);
  for (const auto& app : apps::make_suite()) {
    const std::string name = app->info().name;
    const AppResult seq = app->run(spec, RunScale::kQuick);
    AppResult fast;
    {
      ScopedLaunchPool scoped_pool(&pool);
      ScopedFastPath scoped_fast;
      fast = app->run(spec, RunScale::kQuick);
    }
    // max_rel_err is computed from the GPU outputs against the CPU
    // reference; exact equality means the fast path reproduced every output
    // bit of every launch the app made.
    EXPECT_EQ(seq.validated, fast.validated) << name;
    EXPECT_EQ(seq.max_rel_err, fast.max_rel_err) << name;
    EXPECT_EQ(seq.launches, fast.launches) << name;
  }
}

// ---- Work stealing -------------------------------------------------------------

TEST(WorkStealing, SkewedCostsStillRunEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  const std::uint64_t total = 10000;
  std::vector<std::atomic<int>> hits(total);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(total, [&](int slot, std::uint64_t i) {
    // Heavy head: the first shard costs far more than the rest, so the
    // other slots drain and must steal from it to finish.
    if (i < total / 8) {
      volatile std::uint64_t sink = 0;
      for (int k = 0; k < 2000; ++k) sink = sink + k;
    }
    hits[i].fetch_add(1);
  });
  for (std::uint64_t i = 0; i < total; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkStealing, LowestIndexExceptionWinsAcrossShards) {
  WorkerPool pool(4);
  for (int trial = 0; trial < 3; ++trial) {
    try {
      pool.parallel_for(512, [&](int, std::uint64_t i) {
        if (i % 100 == 7) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "no exception propagated";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 7");
    }
  }
}

TEST(WorkStealing, TracedStatsDeterministicAcrossRuns) {
  const int n = 64, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 9);
  auto run = [&](WorkerPool* pool) {
    MatmulSetup m(wl, n, tile);
    LaunchOptions opt;
    opt.regs_per_thread = 9;
    opt.sample_blocks = 16;  // trace every block: full merge coverage
    opt.pool = pool;
    return m.go(opt);
  };
  const LaunchStats seq = run(nullptr);
  for (int trial = 0; trial < 3; ++trial) {
    WorkerPool pool(4);
    const LaunchStats par = run(&pool);
    EXPECT_EQ(par.trace.total.ops.counts, seq.trace.total.ops.counts);
    EXPECT_EQ(par.trace.total.lane_flops, seq.trace.total.lane_flops);
    EXPECT_EQ(par.trace.total.global.bytes, seq.trace.total.global.bytes);
    EXPECT_EQ(par.timing.kernel_cycles, seq.timing.kernel_cycles);
    EXPECT_EQ(par.timing.seconds, seq.timing.seconds);
  }
}

}  // namespace
}  // namespace g80
