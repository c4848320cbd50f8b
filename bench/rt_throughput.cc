// g80rt throughput benchmark: what the runtime's two levers actually buy.
//
// 1. Interpreter scalability — the §4 matmul (tiled+unrolled, full grid):
//    first a legacy reference (ucontext fiber engine, traced path, one
//    worker — the interpreter exactly as it stood before the fast engine),
//    then the traced path on the fast engine at 1/2/4 workers, then the
//    functional fast path (LaunchOptions::fast_path) at 1/2/4/8 workers.
//    Every run's outputs must be bit-identical to the reference; the traced
//    runs' modeled stats must match it exactly.  The bench FAILS (non-zero
//    exit, which run_benches.sh turns into a flagged failure document) if
//    the 4-worker fast path is less than kFloorSpeedupW4 times faster than
//    the legacy reference — this is the CI floor for ROADMAP item 1.
//    NOTE on reading the curve: worker scaling buys wall time only up to the
//    host's core count; on a single-core host the whole curve is flat and
//    the speedup comes from the fast engine + fast path alone.
//    The traced_gate row times a profiler-attached, trace-only launch with
//    64 sampled blocks, sequentially and on 4 workers; the two must report
//    bit-identical stats and counters or the bench FAILS.
// 2. Streams — the same four h2d→kernel→d2h pipelines pushed through one
//    stream vs four, with measured wall-clock and the modeled
//    serialized-vs-overlapped totals from the timeline.
//
// Emits the standard g80bench-result document (bench/harness.h); wall-clock
// metrics carry the `wall_` prefix so the regression checker skips them,
// and the gate row's `floor_` metric is one-sided (current >= baseline).
#include <chrono>
#include <cstring>
#include <iostream>
#include <numeric>
#include <vector>

#include "apps/matmul/matmul.h"
#include "bench/harness.h"
#include "common/str.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/worker_pool.h"
#include "prof/counters.h"
#include "prof/profiler.h"
#include "rt/runtime.h"

using namespace g80;
using namespace g80::apps;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScaleKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto I = ctx.global(in);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    O.st(i, ctx.mad(I.ld(i), 2.0f, 1.0f));
  }
};

}  // namespace

// Minimum acceptable (4-worker fast path) vs (legacy reference) speedup.
constexpr double kFloorSpeedupW4 = 2.5;

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "rt_throughput");
  // ---- Part 1: interpreter scalability over the §4 matmul ----
  const int n = 512, tile = 16;
  const auto wl = MatmulWorkload::generate(n, h.seed());
  const MatmulTiledKernel kernel{n, tile, /*unrolled=*/true};

  struct Run {
    double seconds = 0;
    bool bit_identical = true;
    double timing_seconds = 0;
  };
  std::vector<float> reference;
  double reference_timing = 0;

  // One timed launch.  The first call defines the reference outputs (and,
  // for traced runs, the reference modeled time); every later call is
  // compared against it byte-for-byte.
  auto run_matmul = [&](int workers, bool fast_path,
                        Fiber::Backend backend) -> Run {
    Device dev;
    auto a = dev.alloc<float>(wl.a.size());
    auto b = dev.alloc<float>(wl.b.size());
    auto c = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    a.copy_from_host(wl.a);
    b.copy_from_host(wl.b);

    WorkerPool pool(workers);
    LaunchOptions opt;
    opt.regs_per_thread = 9;
    opt.pool = workers > 1 ? &pool : nullptr;
    opt.fast_path = fast_path;
    opt.fiber_backend = backend;

    const double t0 = now_seconds();
    const LaunchStats stats = launch(dev, Dim3(n / tile, n / tile),
                                     Dim3(tile, tile), opt, kernel, a, b, c);
    const double wall = now_seconds() - t0;

    const std::vector<float> out = c.copy_to_host();
    Run r{wall, true, stats.timing.seconds};
    if (reference.empty()) {
      reference = out;
      reference_timing = stats.timing.seconds;
    } else {
      r.bit_identical =
          out.size() == reference.size() &&
          std::memcmp(out.data(), reference.data(),
                      reference.size() * sizeof(float)) == 0 &&
          // The fast path skips the timing model by contract; traced runs
          // must reproduce the reference model output exactly.
          (fast_path || stats.timing.seconds == reference_timing);
    }
    return r;
  };

  // Legacy reference: the interpreter as it stood before this fast engine —
  // ucontext switches, traced path, sequential blocks.
  const Run legacy = run_matmul(1, false, Fiber::Backend::kUcontext);
  std::vector<std::pair<int, Run>> traced, fast;
  for (int workers : {1, 2, 4})
    traced.emplace_back(workers,
                        run_matmul(workers, false, Fiber::default_backend()));
  for (int workers : {1, 2, 4, 8})
    fast.emplace_back(workers,
                      run_matmul(workers, true, Fiber::default_backend()));

  // ---- Part 1b: the traced path ----
  // A profiler-attached launch with a deep trace sample and no functional
  // pass, so the wall time is dominated by the trace pass: recorder
  // dispatch, the trace arena, and the memory analyzers.  It runs
  // sequentially and on a 4-worker pool, where each slot reuses its own
  // arena across the blocks it traces; modeled timing, the full trace
  // summary, and every derived profiler counter must match bit-for-bit.
  struct TracedRun {
    double seconds = 0;
    KernelTiming timing;
    TraceSummary trace;
    prof::KernelCounters counters;
  };
  auto run_traced = [&](WorkerPool* pool) -> TracedRun {
    Device dev;
    auto a = dev.alloc<float>(wl.a.size());
    auto b = dev.alloc<float>(wl.b.size());
    auto c = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    a.copy_from_host(wl.a);
    b.copy_from_host(wl.b);
    prof::Profiler p;
    LaunchOptions opt;
    opt.regs_per_thread = 9;
    opt.functional = false;  // isolate the traced pipeline
    opt.sample_blocks = 64;
    opt.prof.sink = &p;
    opt.prof.kernel_name = "matmul_traced";
    opt.pool = pool;
    const double t0 = now_seconds();
    const LaunchStats stats = launch(dev, Dim3(n / tile, n / tile),
                                     Dim3(tile, tile), opt, kernel, a, b, c);
    const double wall = now_seconds() - t0;
    return {wall, stats.timing, stats.trace,
            prof::derive_counters(dev.spec(), stats)};
  };
  const TracedRun traced_seq = run_traced(nullptr);
  WorkerPool traced_pool(4);
  const TracedRun traced_w4 = run_traced(&traced_pool);
  const bool traced_identical =
      traced_w4.timing.seconds == traced_seq.timing.seconds &&
      traced_w4.timing.kernel_cycles == traced_seq.timing.kernel_cycles &&
      traced_w4.trace == traced_seq.trace &&
      traced_w4.counters == traced_seq.counters;

  // ---- Part 2: one stream vs four ----
  const int sn = 1 << 18;  // 1 MB buffers per pipeline
  std::vector<float> host(sn, 1.0f);
  LaunchOptions sopt;
  sopt.uses_sync = false;

  auto run_pipelines = [&](int nstreams, double* modeled_total,
                           double* modeled_serialized) {
    Device dev;
    rt::Runtime r(dev, {.workers = 1});
    std::vector<rt::Stream> streams;
    for (int i = 0; i < nstreams; ++i) streams.push_back(r.stream_create());
    std::vector<DeviceBuffer<float>> ins, outs;
    std::vector<std::vector<float>> backs(4);
    for (int i = 0; i < 4; ++i) {
      ins.push_back(dev.alloc<float>(sn));
      outs.push_back(dev.alloc<float>(sn));
    }
    // Breadth-first issue: engines serve ops in issue order, so batching a
    // whole pipeline per stream would leave the copy engine with nothing to
    // overlap a kernel with (the classic depth-first-issue pitfall on
    // single-queue hardware).
    const double t0 = now_seconds();
    for (int i = 0; i < 4; ++i)
      r.memcpy_h2d_async(streams[i % nstreams], ins[i], host);
    for (int i = 0; i < 4; ++i)
      r.launch_async(streams[i % nstreams], Dim3(sn / 256), Dim3(256), sopt,
                     nullptr, ScaleKernel{}, ins[i], outs[i]);
    for (int i = 0; i < 4; ++i)
      r.memcpy_d2h_async(streams[i % nstreams], backs[i], outs[i]);
    r.device_synchronize();
    const double wall = now_seconds() - t0;
    *modeled_total = r.modeled_total_seconds();
    *modeled_serialized = r.modeled_serialized_seconds();
    return wall;
  };

  double one_total = 0, one_serial = 0, four_total = 0, four_serial = 0;
  const double one_wall = run_pipelines(1, &one_total, &one_serial);
  const double four_wall = run_pipelines(4, &four_total, &four_serial);

  // ---- Results ----
  bool all_identical = true;
  h.human() << "interpreter scalability, " << n << "x" << n << " matmul ("
            << (n / tile) * (n / tile) << " blocks):\n";
  h.human() << "  legacy (ucontext, traced, w1): " << fixed(legacy.seconds, 4)
            << " s wall\n";
  {
    auto& row = h.result("legacy_ucontext_w1");
    row.set("wall_seconds", legacy.seconds);
    row.set("bit_identical", 1);
    row.set("modeled_kernel_seconds", legacy.timing_seconds);
  }
  for (const auto& [workers, r] : traced) {
    all_identical = all_identical && r.bit_identical;
    h.human() << "  traced   w" << workers << ": " << fixed(r.seconds, 4)
              << " s wall (vs legacy " << fixed(legacy.seconds / r.seconds, 2)
              << "x), bit identical: " << (r.bit_identical ? "yes" : "NO")
              << "\n";
    auto& row = h.result(cat("block_parallel_w", workers));
    row.set("wall_seconds", r.seconds);
    row.set("wall_speedup", traced.front().second.seconds / r.seconds);
    row.set("wall_speedup_vs_legacy", legacy.seconds / r.seconds);
    row.set("bit_identical", r.bit_identical ? 1 : 0);
    row.set("modeled_kernel_seconds", r.timing_seconds);
  }
  double fast_w4_speedup = 0;
  for (const auto& [workers, r] : fast) {
    all_identical = all_identical && r.bit_identical;
    const double speedup = legacy.seconds / r.seconds;
    if (workers == 4) fast_w4_speedup = speedup;
    h.human() << "  fastpath w" << workers << ": " << fixed(r.seconds, 4)
              << " s wall (vs legacy " << fixed(speedup, 2)
              << "x), bit identical: " << (r.bit_identical ? "yes" : "NO")
              << "\n";
    auto& row = h.result(cat("fastpath_w", workers));
    row.set("wall_seconds", r.seconds);
    row.set("wall_speedup_vs_legacy", speedup);
    row.set("bit_identical", r.bit_identical ? 1 : 0);
  }
  {
    // Gate row: floor_ metrics are one-sided in the regression checker
    // (current >= baseline), so lowering the floor constant in this file
    // below the checked-in baseline fails CI; the measured speedup itself
    // is enforced by the non-zero exit below, not by the baseline diff.
    auto& row = h.result("fastpath_gate");
    row.set("floor_speedup_w4", kFloorSpeedupW4);
    row.set("wall_speedup_w4", fast_w4_speedup);
  }
  h.human() << "traced path (prof attached, sample_blocks=64, no "
               "functional pass):\n";
  h.human() << "  sequential: " << fixed(traced_seq.seconds, 4)
            << " s wall\n";
  h.human() << "  pool w4:    " << fixed(traced_w4.seconds, 4)
            << " s wall, stats bit identical: "
            << (traced_identical ? "yes" : "NO") << "\n";
  {
    // bit_identical compares modeled timing, the full TraceSummary (every
    // warp counter and per-site row), and all derived profiler counters
    // between the sequential and the 4-worker launch.
    auto& row = h.result("traced_gate");
    row.set("wall_seconds", traced_seq.seconds);
    row.set("wall_seconds_w4", traced_w4.seconds);
    row.set("bit_identical", traced_identical ? 1 : 0);
  }

  const double saving_pct = 100.0 * (four_serial - four_total) /
                            (four_serial > 0 ? four_serial : 1.0);
  h.human() << "streams (4 pipelines, "
            << static_cast<std::uint64_t>(sn) * sizeof(float)
            << " B/copy): 1 stream " << fixed(one_total, 6)
            << " s modeled, 4 streams " << fixed(four_total, 6)
            << " s modeled (serialized " << fixed(four_serial, 6)
            << " s, overlap saves " << fixed(saving_pct, 1) << "%)\n";
  {
    auto& row = h.result("streams_one");
    row.set("wall_seconds", one_wall);
    row.set("modeled_seconds", one_total);
    row.set("modeled_serialized_seconds", one_serial);
  }
  {
    auto& row = h.result("streams_four");
    row.set("wall_seconds", four_wall);
    row.set("modeled_seconds", four_total);
    row.set("modeled_serialized_seconds", four_serial);
    row.set("modeled_overlap_saving_pct", saving_pct);
  }

  Device spec_dev;
  const int rc = h.finish(spec_dev.spec());
  if (!all_identical) {
    std::cerr << "FAIL: outputs/stats diverged from the sequential reference\n";
    return 1;
  }
  if (fast_w4_speedup < kFloorSpeedupW4) {
    std::cerr << "FAIL: 4-worker fast path speedup " << fixed(fast_w4_speedup, 2)
              << "x vs legacy is below the " << fixed(kFloorSpeedupW4, 1)
              << "x floor (ROADMAP item 1 regression)\n";
    return 1;
  }
  if (!traced_identical) {
    std::cerr << "FAIL: traced-path stats on a 4-worker pool diverged from "
                 "the sequential launch\n";
    return 1;
  }
  return rc;
}
