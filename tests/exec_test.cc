// Tests for the fiber engine and block runner: CUDA barrier semantics,
// shared-memory arena layout, divergent-barrier detection, exception
// propagation, and the fiber-less direct mode.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/error.h"
#include "exec/block_runner.h"
#include "exec/fiber.h"

namespace g80 {
namespace {

// ---- Fiber ------------------------------------------------------------------

TEST(Fiber, RunsToCompletion) {
  Fiber f;
  int x = 0;
  f.start([&] { x = 42; });
  EXPECT_EQ(f.resume(), Fiber::State::kDone);
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  Fiber f;
  std::vector<int> log;
  f.start([&] {
    log.push_back(1);
    f.yield();
    log.push_back(2);
    f.yield();
    log.push_back(3);
  });
  EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
  log.push_back(10);
  EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
  log.push_back(20);
  EXPECT_EQ(f.resume(), Fiber::State::kDone);
  EXPECT_EQ(log, (std::vector<int>{1, 10, 2, 20, 3}));
}

TEST(Fiber, ExceptionPropagatesToScheduler) {
  Fiber f;
  f.start([] { throw Error("boom"); });
  EXPECT_THROW(f.resume(), Error);
  EXPECT_EQ(f.state(), Fiber::State::kDone);
}

TEST(Fiber, ReusableAfterCompletion) {
  Fiber f;
  int sum = 0;
  for (int i = 0; i < 5; ++i) {
    f.start([&, i] { sum += i; });
    f.resume();
  }
  EXPECT_EQ(sum, 10);
}

TEST(Fiber, DeepStackSurvives) {
  Fiber f(256 * 1024);
  double result = 0;
  f.start([&] {
    // ~2000 frames of recursion on the fiber stack.
    struct Rec {
      static double go(int n) { return n == 0 ? 1.0 : 1.0 + go(n - 1); }
    };
    result = Rec::go(2000);
  });
  f.resume();
  EXPECT_EQ(result, 2001.0);
}

// ---- Uninitialised fiber stacks ----------------------------------------------
//
// Fiber stacks are allocated without zero-filling: arming writes the initial
// frame and a body reads only what it wrote.  These tests leave junk on a
// stack (and abandon frames mid-kernel), then require a re-armed fiber and a
// freshly constructed one to behave exactly like a clean one on both engines.

std::vector<Fiber::Backend> backends_under_test() {
  std::vector<Fiber::Backend> b{Fiber::Backend::kUcontext};
  if (Fiber::fast_backend_supported()) b.push_back(Fiber::Backend::kFast);
  return b;
}

// Runs a body that fills 64 KiB of its stack with a non-zero pattern.
void scribble_stack(Fiber& f) {
  f.start([] {
    volatile unsigned char junk[64 * 1024];
    for (std::size_t i = 0; i < sizeof junk; ++i) junk[i] = 0xA5;
  });
  EXPECT_EQ(f.resume(), Fiber::State::kDone);
}

// A new body keeps its locals across two yields and then throws: the
// exception must reach the scheduler and the fiber must end kDone.
void expect_clean_run(Fiber& f) {
  std::vector<int> log;
  f.start([&] {
    int local[256];
    for (int i = 0; i < 256; ++i) local[i] = i;
    log.push_back(1);
    f.yield();
    log.push_back(std::accumulate(local, local + 256, 0));
    f.yield();
    throw Error("after the barrier");
  });
  EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
  EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
  EXPECT_THROW(f.resume(), Error);
  EXPECT_EQ(f.state(), Fiber::State::kDone);
  EXPECT_EQ(log, (std::vector<int>{1, 255 * 256 / 2}));
}

TEST(FiberStack, RearmedScribbledAndFreshFibersRunAlike) {
  for (Fiber::Backend backend : backends_under_test()) {
    SCOPED_TRACE(backend == Fiber::Backend::kFast ? "fast" : "ucontext");
    Fiber reused(128 * 1024, backend);
    scribble_stack(reused);
    expect_clean_run(reused);
    // Re-arm after the throw too: the dead frames are junk as well.
    expect_clean_run(reused);

    Fiber fresh(128 * 1024, backend);
    expect_clean_run(fresh);
    scribble_stack(fresh);
    expect_clean_run(fresh);
  }
}

TEST(FiberStack, BlockRunnerReusesScribbledStacks) {
  for (Fiber::Backend backend : backends_under_test()) {
    SCOPED_TRACE(backend == Fiber::Backend::kFast ? "fast" : "ucontext");
    constexpr int kThreads = 48;  // one converged warp, one partial
    // Each lane scribbles its stack across a barrier, then a lane throws
    // mid-kernel, leaving its siblings parked on junk frames.
    BlockRunner runner(kThreads, 16 * 1024, 128 * 1024, backend);
    runner.run(kThreads, [&](int tid) {
      volatile unsigned char junk[32 * 1024];
      for (std::size_t i = 0; i < sizeof junk; ++i)
        junk[i] = static_cast<unsigned char>(tid + i);
      runner.sync(tid);
    });
    EXPECT_THROW(runner.run(kThreads,
                            [&](int tid) {
                              runner.sync(tid);
                              if (tid == 40) throw Error("lane 40");
                              runner.sync(tid);
                            }),
                 Error);

    BlockRunner fresh(kThreads, 16 * 1024, 128 * 1024, backend);
    for (BlockRunner* r : {&runner, &fresh}) {
      std::vector<int> slot(kThreads, -1), seen(kThreads, -1);
      r->run(kThreads, [&](int tid) {
        slot[tid] = tid * 10;
        r->sync(tid);
        seen[tid] = slot[(tid + 1) % kThreads];
      });
      for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(seen[t], ((t + 1) % kThreads) * 10) << "tid " << t;
      EXPECT_EQ(r->barriers_executed(), 1);
      EXPECT_THROW(
          r->run(kThreads, [&](int tid) { if (tid == 7) throw Error("7"); }),
          Error);
    }
  }
}

// ---- SharedArena ------------------------------------------------------------

TEST(SharedArena, SameLayoutForAllThreads) {
  SharedArena arena(1024);
  arena.begin_block();
  arena.begin_thread(0);
  arena.begin_thread(1);
  std::byte* a0 = arena.allocate(0, 64);
  std::byte* b0 = arena.allocate(0, 32);
  std::byte* a1 = arena.allocate(1, 64);
  std::byte* b1 = arena.allocate(1, 32);
  EXPECT_EQ(a0, a1);
  EXPECT_EQ(b0, b1);
  EXPECT_NE(a0, b0);
  EXPECT_GE(arena.bytes_used(), 96u);
}

TEST(SharedArena, MismatchedLayoutThrows) {
  SharedArena arena(1024);
  arena.begin_block();
  arena.begin_thread(0);
  arena.begin_thread(1);
  arena.allocate(0, 64);
  EXPECT_THROW(arena.allocate(1, 128), Error);
}

TEST(SharedArena, OverflowThrows) {
  SharedArena arena(128);
  arena.begin_block();
  arena.begin_thread(0);
  arena.allocate(0, 64);
  EXPECT_THROW(arena.allocate(0, 128), Error);
}

TEST(SharedArena, ResetsBetweenBlocks) {
  SharedArena arena(256);
  for (int block = 0; block < 3; ++block) {
    arena.begin_block();
    arena.begin_thread(0);
    EXPECT_NO_THROW(arena.allocate(0, 200));
  }
}

TEST(SharedArena, SixteenByteAlignment) {
  SharedArena arena(1024);
  arena.begin_block();
  arena.begin_thread(0);
  arena.allocate(0, 3);  // odd size
  std::byte* second = arena.allocate(0, 16);
  EXPECT_EQ((second - arena.data()) % 16, 0);
}

// ---- BlockRunner barriers ----------------------------------------------------

TEST(BlockRunner, AllThreadsRun) {
  BlockRunner runner(64, 16 * 1024);
  std::vector<int> hits(64, 0);
  runner.run(64, [&](int tid) { ++hits[tid]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(BlockRunner, BarrierOrdersPhases) {
  // Classic producer/consumer: every thread writes its slot, syncs, then
  // reads its neighbour's slot.  Without a real barrier, thread 0 would read
  // thread 63's not-yet-written slot.
  BlockRunner runner(64, 16 * 1024);
  std::vector<int> slot(64, -1), seen(64, -1);
  runner.run(64, [&](int tid) {
    slot[tid] = tid * 10;
    runner.sync(tid);
    seen[tid] = slot[(tid + 1) % 64];
  });
  for (int t = 0; t < 64; ++t) EXPECT_EQ(seen[t], ((t + 1) % 64) * 10);
}

TEST(BlockRunner, ManyBarriersInLoop) {
  BlockRunner runner(32, 16 * 1024);
  std::vector<int> counter(1, 0);
  runner.run(32, [&](int tid) {
    for (int i = 0; i < 10; ++i) {
      if (tid == 0) ++counter[0];
      runner.sync(tid);
      // Every thread observes the same phase count after the barrier.
      EXPECT_EQ(counter[0], i + 1);
      runner.sync(tid);
    }
  });
  EXPECT_EQ(runner.barriers_executed(), 20);
}

TEST(BlockRunner, BarrierReleasesForLiveThreadsOnly) {
  // Half the threads exit before the barrier: the survivors' barrier still
  // releases (hardware counts only active threads) and they complete.
  BlockRunner runner(8, 16 * 1024);
  std::vector<int> after(8, 0);
  EXPECT_NO_THROW(runner.run(8, [&](int tid) {
    if (tid >= 4) return;  // early exit
    runner.sync(tid);
    after[tid] = 1;
  }));
  for (int t = 0; t < 4; ++t) EXPECT_EQ(after[t], 1);
  for (int t = 4; t < 8; ++t) EXPECT_EQ(after[t], 0);
}

TEST(BlockRunner, AllExitWithoutBarrierIsFine) {
  BlockRunner runner(8, 16 * 1024);
  EXPECT_NO_THROW(runner.run(8, [](int) {}));
}

TEST(BlockRunner, KernelExceptionPropagates) {
  BlockRunner runner(8, 16 * 1024);
  EXPECT_THROW(
      runner.run(8, [&](int tid) { if (tid == 3) throw Error("thread 3"); }),
      Error);
  // The runner must be reusable after an aborted launch.
  std::vector<int> hits(8, 0);
  EXPECT_NO_THROW(runner.run(8, [&](int tid) { ++hits[tid]; }));
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 8);
}

TEST(BlockRunner, ThreadsRunInOrderBetweenBarriers) {
  // With barrier-only yields, threads run to the barrier in tid order —
  // the determinism the functional model documents.
  BlockRunner runner(16, 16 * 1024);
  std::vector<int> order;
  runner.run(16, [&](int tid) {
    order.push_back(tid);
    runner.sync(tid);
    order.push_back(100 + tid);
  });
  for (int t = 0; t < 16; ++t) {
    EXPECT_EQ(order[t], t);
    EXPECT_EQ(order[16 + t], 100 + t);
  }
}

// ---- Direct mode --------------------------------------------------------------

TEST(BlockRunner, DirectModeRunsAllThreads) {
  BlockRunner runner(1, 16 * 1024);
  std::vector<int> hits(256, 0);
  runner.run_direct(256, [&](int tid) { ++hits[tid]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 256);
}

TEST(BlockRunner, DirectModeSyncThrows) {
  BlockRunner runner(1, 16 * 1024);
  EXPECT_THROW(runner.run_direct(4, [&](int tid) { runner.sync(tid); }), Error);
}

TEST(BlockRunner, DirectModeSharedMemoryWorks) {
  BlockRunner runner(1, 16 * 1024);
  runner.run_direct(8, [&](int tid) {
    auto* p = reinterpret_cast<int*>(runner.shared().allocate(tid, 8 * 4));
    p[tid] = tid;
  });
  EXPECT_GE(runner.shared().bytes_used(), 32u);
}

}  // namespace
}  // namespace g80
