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
  LaneTrace lane;
  TraceArena arena;
  const std::source_location loc = std::source_location::current();
  for (auto _ : state) {
    lane.clear();
    arena.begin_block(kSpec, 32);
    LaneRecorder rec(&lane, &arena, 0);
    for (int i = 0; i < kAccesses; ++i) {
      const auto site = static_cast<std::uint32_t>(i % sites) + 1;
      rec.mem(OpClass::kLoadGlobal, static_cast<std::uint64_t>(i) * 4, 4,
              site, loc);
    }
    benchmark::DoNotOptimize(lane.site_notes.data());
  }
  state.SetItemsProcessed(state.iterations() * kAccesses);
}
BENCHMARK(BM_RecorderManySites)->Arg(4)->Arg(64)->Arg(512);

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
