// google-benchmark microbenchmarks of the simulator's own primitives:
// fiber context switches, barrier rounds, the coalescing/bank analyzers,
// trace collection and full launches.  These guard the engineering budget
// that makes the paper-scale experiments (4096x4096 matmul traces, the
// 13-app suite) tractable.
#include <benchmark/benchmark.h>

#include <source_location>

#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "cudalite/recorder.h"
#include "cudalite/trace_arena.h"
#include "cudalite/trace_collect.h"
#include "exec/block_runner.h"
#include "mem/bank_conflict.h"
#include "mem/coalescing.h"

namespace g80 {
namespace {

const DeviceSpec kSpec = DeviceSpec::geforce_8800_gtx();

void BM_FiberRoundTrip(benchmark::State& state) {
  Fiber f;
  bool stop = false;
  f.start([&] {
    while (!stop) f.yield();
  });
  for (auto _ : state) {
    f.resume();
  }
  stop = true;
  f.resume();
}
BENCHMARK(BM_FiberRoundTrip);

void BM_BlockBarrierRound(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  BlockRunner runner(threads, 16 * 1024);
  for (auto _ : state) {
    runner.run(threads, [&](int tid) {
      runner.sync(tid);
      runner.sync(tid);
    });
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_BlockBarrierRound)->Arg(32)->Arg(128)->Arg(512);

// Per-launch set-up as launch() pays it: a fresh runner, so every fiber and
// its stack is allocated, armed and entered once, around one barrier.
void BM_BlockRunnerSetup(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    BlockRunner runner(threads, 16 * 1024);
    runner.run(threads, [&](int tid) { runner.sync(tid); });
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_BlockRunnerSetup)->Arg(64)->Arg(256);

void BM_DirectModeBlock(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  BlockRunner runner(1, 16 * 1024);
  for (auto _ : state) {
    runner.run_direct(threads, [](int) {});
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_DirectModeBlock)->Arg(128)->Arg(512);

void BM_CoalescingAnalyzer(benchmark::State& state) {
  WarpAccess w(32);
  for (int k = 0; k < 32; ++k)
    w[k] = {static_cast<std::uint64_t>(4 * k), 4, 0, true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_warp(kSpec, w));
  }
}
BENCHMARK(BM_CoalescingAnalyzer);

void BM_CoalescingAnalyzerScattered(benchmark::State& state) {
  WarpAccess w(32);
  for (int k = 0; k < 32; ++k)
    w[k] = {static_cast<std::uint64_t>(997 * k), 4, 0, true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_warp(kSpec, w));
  }
}
BENCHMARK(BM_CoalescingAnalyzerScattered);

void BM_BankConflictAnalyzer(benchmark::State& state) {
  WarpAccess w(32);
  for (int k = 0; k < 32; ++k)
    w[k] = {static_cast<std::uint64_t>(64 * k), 4, 0, true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_shared_warp(kSpec, w));
  }
}
BENCHMARK(BM_BankConflictAnalyzer);

// SoA twin of BM_BankConflictAnalyzer over one trace-arena row; the argument
// is the lane stride in bytes: 64 is the same 16-way conflict (exact path),
// 4 is conflict-free (the power-of-two fast path).
void BM_BankConflictAnalyzerSoa(benchmark::State& state) {
  const std::uint64_t stride = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t addrs[32];
  for (int k = 0; k < 32; ++k) addrs[k] = stride * static_cast<std::uint64_t>(k);
  const SoaWarpAccess row{~0u, 4, addrs, 32};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_shared_warp_soa(kSpec, row));
  }
}
BENCHMARK(BM_BankConflictAnalyzerSoa)->Arg(64)->Arg(4);

struct StreamKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& a,
                  DeviceBuffer<float>& b) const {
    auto A = ctx.global(a);
    auto B = ctx.global(b);
    const int i = ctx.global_thread_x();
    B.st(i, ctx.mad(2.0f, A.ld(i), 1.0f));
  }
};

void BM_FunctionalLaunch(benchmark::State& state) {
  const unsigned blocks = static_cast<unsigned>(state.range(0));
  Device dev;
  auto a = dev.alloc<float>(blocks * 256);
  auto b = dev.alloc<float>(blocks * 256);
  LaunchOptions opt;
  opt.uses_sync = false;
  opt.sample_blocks = 0;  // functional pass only
  for (auto _ : state) {
    // sample_blocks=0 would break timing; run with 1 sampled block.
    LaunchOptions o = opt;
    o.sample_blocks = 1;
    benchmark::DoNotOptimize(
        launch(dev, Dim3(blocks), Dim3(256), o, StreamKernel{}, a, b));
  }
  state.SetItemsProcessed(state.iterations() * blocks * 256);
}
BENCHMARK(BM_FunctionalLaunch)->Arg(16)->Arg(256);

// Recorder cost on a many-site kernel: cycling through S distinct sites
// defeats note_site's most-recent memo, so every access pays the memo
// compare plus an O(1) intern probe.  The arg is the distinct site count.
void BM_RecorderManySites(benchmark::State& state) {
  const int sites = static_cast<int>(state.range(0));
  constexpr int kAccesses = 4096;
  TraceArena arena;
  const std::source_location loc = std::source_location::current();
  for (auto _ : state) {
    arena.begin_block(kSpec, 32);
    LaneRecorder rec(&arena, 0);
    for (int i = 0; i < kAccesses; ++i) {
      const auto site = static_cast<std::uint32_t>(i % sites) + 1;
      rec.mem(OpClass::kLoadGlobal, static_cast<std::uint64_t>(i) * 4, 4,
              site, loc);
    }
    benchmark::DoNotOptimize(arena.site_notes().data());
  }
  state.SetItemsProcessed(state.iterations() * kAccesses);
}
BENCHMARK(BM_RecorderManySites)->Arg(4)->Arg(64)->Arg(512);

// Data-dependent trip counts and branch arms with their own load sites:
// lanes of a warp fall out of positional step, so their streams go dirty.
struct DivergentArmsKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& a,
                  DeviceBuffer<float>& b) const {
    auto A = ctx.global(a);
    auto B = ctx.global(b);
    const int i = ctx.global_thread_x();
    float v = 0;
    for (int k = 0; ctx.branch(k <= i % 7); ++k) {
      if (ctx.branch((i + k) % 3 == 0)) {
        v = ctx.add(v, A.ld(static_cast<std::size_t>(i + 5 * k) % a.size()));
      } else {
        v = ctx.mul(v, B.ld(static_cast<std::size_t>(i)));
      }
    }
    B.st(static_cast<std::size_t>(i), v);
  }
};

// The two divergence shapes of Bialas & Strzelecki.  Fan-out: lane % 8
// picks one of eight arms, each behind its own ctx.branch and with its own
// load site, so the lanes' global accesses fall out of positional step.
struct FanoutKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& a,
                  DeviceBuffer<float>& b) const {
    auto A = ctx.global(a);
    auto B = ctx.global(b);
    const auto i = static_cast<std::size_t>(ctx.global_thread_x());
    const std::size_t n = a.size();
    const std::size_t arm = i % 8;
    float v = 0;
    if (ctx.branch(arm == 0)) v = A.ld(i);
    else if (ctx.branch(arm == 1)) v = A.ld((i + 1) % n);
    else if (ctx.branch(arm == 2)) v = A.ld((i + 2) % n);
    else if (ctx.branch(arm == 3)) v = A.ld((i + 3) % n);
    else if (ctx.branch(arm == 4)) v = A.ld((i + 4) % n);
    else if (ctx.branch(arm == 5)) v = A.ld((i + 5) % n);
    else if (ctx.branch(arm == 6)) v = A.ld((i + 6) % n);
    else if (ctx.branch(arm == 7)) v = A.ld((i + 7) % n);
    B.st(i, v);
  }
};

// Trip-count skew: lane l runs (l % 32) + 1 iterations of one load behind a
// ctx.branch loop condition.  Every lane's sequence is a prefix of the next
// lane's, so the rows stay clean while their masks shrink.
struct TripSkewKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& a,
                  DeviceBuffer<float>&) const {
    auto A = ctx.global(a);
    const auto i = static_cast<std::size_t>(ctx.global_thread_x());
    float v = 0;
    for (std::size_t k = 0; ctx.branch(k <= i % 32); ++k)
      v = ctx.add(v, A.ld((i + k) % a.size()));
    benchmark::DoNotOptimize(v);
  }
};

// collect_block_trace alone, over one recorded 256-thread block: the
// converged StreamKernel and TripSkewKernel (clean arena rows), or
// DivergentArmsKernel and FanoutKernel (dirty streams, regrouped by (site,
// occurrence)).
template <class Kernel>
void BM_CollectBlockTrace(benchmark::State& state, Kernel kernel,
                          bool want_dirty) {
  constexpr int kThreads = 256;
  Device dev;
  auto a = dev.alloc<float>(kThreads);
  auto b = dev.alloc<float>(kThreads);
  TraceArena arena;
  arena.begin_block(kSpec, kThreads);
  BlockRunner runner(1, kSpec.shared_mem_per_sm);
  BlockEnv env{&runner, Dim3(1), Dim3(kThreads), Dim3(0)};
  runner.run_direct(kThreads, [&](int tid) {
    TraceCtx ctx(&env, tid, LaneRecorder(&arena, tid));
    kernel(ctx, a, b);
  });
  bool dirty = false;
  for (int w = 0; w < arena.num_warps(); ++w)
    for (int s = 0; s < kNumTraceStreams; ++s)
      dirty = dirty || arena.stream(w, s)->dirty();
  if (dirty != want_dirty) {
    state.SkipWithError("the recorded block did not take the intended path");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(collect_block_trace(kSpec, arena));
  }
  state.SetItemsProcessed(state.iterations() * kThreads);
}
BENCHMARK_CAPTURE(BM_CollectBlockTrace, clean, StreamKernel{}, false);
BENCHMARK_CAPTURE(BM_CollectBlockTrace, dirty, DivergentArmsKernel{}, true);
BENCHMARK_CAPTURE(BM_CollectBlockTrace, fanout, FanoutKernel{}, true);
BENCHMARK_CAPTURE(BM_CollectBlockTrace, tripskew, TripSkewKernel{}, false);

void BM_TracedLaunch(benchmark::State& state) {
  Device dev;
  auto a = dev.alloc<float>(64 * 256);
  auto b = dev.alloc<float>(64 * 256);
  LaunchOptions opt;
  opt.uses_sync = false;
  opt.functional = false;
  opt.sample_blocks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        launch(dev, Dim3(64), Dim3(256), opt, StreamKernel{}, a, b));
  }
}
BENCHMARK(BM_TracedLaunch)->Arg(1)->Arg(4)->Arg(16);

}  // namespace
}  // namespace g80

BENCHMARK_MAIN();
