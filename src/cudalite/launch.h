// Kernel launching: the cudalite equivalent of kernel<<<grid, block>>>(...).
//
// A launch performs (up to) three passes over the same kernel template:
//   1. a TRACE pass over a small sample of blocks, instrumented, feeding the
//      occupancy calculator and timing model;
//   2. an optional g80check SANITIZE pass over the whole grid
//      (LaunchOptions::sanitize.enabled) validating barrier and
//      shared-memory semantics — see sanitizer/sanitizer.h;
//   3. a FUNCTIONAL pass over the whole grid, uninstrumented, producing the
//      kernel's actual results.
// Sampled blocks execute twice (or more), so kernels must be idempotent at
// block granularity — true of this entire suite (each block writes a
// disjoint output region from inputs that the launch does not mutate).
//
// For very large grids (the 4096x4096 matmul of §4) callers disable the
// functional pass and rely on the trace sample for timing; functional
// correctness is established separately at smaller sizes by the test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/trace_arena.h"
#include "cudalite/trace_collect.h"
#include "exec/block_runner.h"
#include "exec/cancel.h"
#include "exec/worker_pool.h"
#include "occupancy/occupancy.h"
#include "resil/policy.h"
#include "resil/resilience.h"
#include "sanitizer/recorder.h"
#include "sanitizer/sanitizer.h"
#include "timing/model.h"

namespace g80 {

// Ctx instantiation for the g80check sanitize pass.
using SanitizeCtx = Ctx<SanitizerRecorder>;

struct LaunchStats;

// g80prof hook.  The Profiler type and the out-of-line recording bridge live
// in src/prof (prof/profiler.h); only declarations appear here so cudalite
// keeps no header dependency on the profiler layer.
namespace prof {
class Profiler;
namespace detail {
void record_launch(Profiler& sink, const std::string& kernel_name,
                   std::uint64_t stream, const DeviceSpec& spec,
                   const LaunchStats& stats);
}  // namespace detail
}  // namespace prof

// g80scope hook, same pattern: the Session type and its bridge live in
// src/scope (scope/session.h).  Returns the session-assigned record id.
namespace scope {
class Session;
namespace detail {
std::uint64_t record_launch(Session& sink, const std::string& kernel_name,
                            std::uint64_t stream, const DeviceSpec& spec,
                            const LaunchStats& stats);
}  // namespace detail
}  // namespace scope

// Opt-in per-launch profiling (g80prof).  Zero-cost when `sink` is null:
// the launch executes exactly the same passes either way — counters are
// derived after the fact from the trace pass's statistics, never measured
// in the functional pass — so kernel outputs and LaunchStats stay
// bit-identical with profiling on or off (bench/prof_overhead.cc asserts
// this).
struct ProfileOptions {
  prof::Profiler* sink = nullptr;  // enabled iff non-null
  // Aggregation key in the profiler's per-kernel tables ("" -> "kernel").
  std::string kernel_name;
  // Issuing g80rt stream id; filled by Runtime::launch_async.
  std::uint64_t stream = 0;
};

// Opt-in per-launch time-series derivation (g80scope).  Like ProfileOptions
// this is zero-cost when `sink` is null and cannot perturb results when it
// is not: the series is derived after all passes complete, from the same
// trace statistics the timing model already consumed
// (bench/scope_overhead.cc asserts bit-identical outputs either way).
// The kernel name and stream id are taken from ProfileOptions so a launch
// profiled and scoped at once aggregates under one name.
struct ScopeOptions {
  scope::Session* sink = nullptr;  // enabled iff non-null
  // When set, receives the session-assigned record id; g80rt uses it to
  // stamp the launch's timeline span for the Chrome-trace counter tracks.
  std::uint64_t* id_out = nullptr;
};

struct LaunchOptions {
  // Registers per thread, as the CUDA 0.8 compiler would report (cubin
  // metadata).  The paper's kernels state these; our kernels carry the
  // paper's numbers where given and plausible estimates otherwise.
  int regs_per_thread = 10;
  // Number of blocks to trace for the timing model.
  int sample_blocks = 4;
  // Run the functional pass over the full grid.
  bool functional = true;
  // Kernel calls __syncthreads.  Setting this false enables a much faster
  // fiber-less execution path; a kernel that then syncs anyway throws.
  bool uses_sync = true;
  // Functional fast path: skip the trace pass, timing model, and all
  // trace/stat bookkeeping, running only configuration validation, the
  // functional pass, and occupancy (from the functional pass's shared-memory
  // footprint).  Kernel outputs are bit-identical to the traced path —
  // tracing never touches results by construction — but stats.trace and
  // stats.timing stay empty, so the fast path is IGNORED while a profiler,
  // scope session, or sanitizer is attached (those need the instrumented
  // passes; tests/exec_fastpath_test.cc asserts the rejection).  When the
  // g80resil modeled watchdog is armed (resilience.modeled_timeout_s > 0) a
  // minimal 1-block trace sample is retained so the watchdog still sees a
  // modeled time.  Auto-selected by g80resil at fallback level >= 2 and by
  // g80serve for jobs requesting sample_blocks == 0.
  bool fast_path = false;
  // Fiber stack size for kernel threads.
  std::size_t stack_bytes = 128 * 1024;
  // Fiber switch engine for this launch's BlockRunners: the hand-rolled
  // stack switch (default on non-sanitized x86-64) or the legacy glibc
  // ucontext engine.  Semantics are identical; only switch cost differs.
  // Requests for the fast engine degrade to ucontext where unsupported.
  Fiber::Backend fiber_backend = Fiber::default_backend();
  // g80check: opt-in barrier-divergence and shared-memory-race validation
  // (plus deterministic fault injection).  Adds one extra pass over the
  // grid; launches with `enabled == false` execute exactly the seed paths.
  SanitizerOptions sanitize;
  // g80prof: opt-in per-launch counter collection into a session profiler.
  ProfileOptions prof;
  // g80scope: opt-in per-launch time-series derivation into a scope session.
  ScopeOptions scope;
  // g80rt block scheduling: run the trace and functional passes' independent
  // blocks across this pool's workers.  nullptr falls back to the ambient
  // pool (set_ambient_launch_pool / ScopedLaunchPool), and with neither the
  // sequential path runs.  Kernel outputs and LaunchStats are bit-identical
  // either way: each worker slot owns a private BlockRunner (fibers +
  // shared-memory arena) and per-block traces merge in sample order.  The
  // g80check pass stays sequential — its shadow state is grid-global.
  WorkerPool* pool = nullptr;
  // g80resil: opt-in watchdog timeouts, retry-with-backoff recovery, and
  // graceful degradation (see resil/policy.h and docs/error-handling.md).
  // Disabled launches execute exactly the pre-resil path.
  ResiliencePolicy resilience;
};

// Ambient default worker pool, consulted when LaunchOptions::pool is null.
// Lets whole-application layers (the §5 suite, benches) go block-parallel
// without threading a pool through every launch call.  Thread-local, so
// concurrent g80rt streams can opt in independently.
WorkerPool* ambient_launch_pool();
void set_ambient_launch_pool(WorkerPool* pool);

class ScopedLaunchPool {
 public:
  explicit ScopedLaunchPool(WorkerPool* pool) : prev_(ambient_launch_pool()) {
    set_ambient_launch_pool(pool);
  }
  ~ScopedLaunchPool() { set_ambient_launch_pool(prev_); }
  ScopedLaunchPool(const ScopedLaunchPool&) = delete;
  ScopedLaunchPool& operator=(const ScopedLaunchPool&) = delete;

 private:
  WorkerPool* prev_;
};

// Ambient fast-path default, consulted in addition to
// LaunchOptions::fast_path (either one opts the launch in; observers still
// override — see the field's comment).  Lets a whole workload (the §5
// suite, a bench sweep) run result-only without threading options through
// every launch call.  Thread-local, like the ambient pool.
bool ambient_fast_path();
void set_ambient_fast_path(bool on);

class ScopedFastPath {
 public:
  explicit ScopedFastPath(bool on = true) : prev_(ambient_fast_path()) {
    set_ambient_fast_path(on);
  }
  ~ScopedFastPath() { set_ambient_fast_path(prev_); }
  ScopedFastPath(const ScopedFastPath&) = delete;
  ScopedFastPath& operator=(const ScopedFastPath&) = delete;

 private:
  bool prev_;
};

struct LaunchStats {
  Dim3 grid, block;
  std::size_t smem_per_block = 0;
  int regs_per_thread = 0;
  Occupancy occupancy;
  TraceSummary trace;
  KernelTiming timing;
  // Findings from the g80check pass (empty unless sanitize.enabled).
  SanitizerReport sanitizer;
  // g80resil recovery provenance: how many attempts ran, at what fallback
  // level, and whether the launch recovered after transient failures.
  ResilienceStats resilience;

  // Device-side execution time of this launch.
  double kernel_seconds() const { return timing.seconds; }
  // Including the fixed driver launch overhead (dominant for the paper's
  // time-sliced simulators that relaunch every step, §5.1).
  double total_seconds(const DeviceSpec& spec) const {
    return timing.seconds + spec.launch_overhead_us * 1e-6;
  }
};

namespace detail {

// Evenly spread `n` sample indices over [0, total), always including the
// first and last block so grid-edge partial warps are represented.
std::vector<std::uint64_t> pick_sample_blocks(std::uint64_t total, int n);

// Per-slot BlockRunner scratch for the block-parallel passes.  Slot 0 is the
// launch's primary runner; other slots get lazily-constructed clones touched
// only by the worker thread owning that slot, so no locking is needed.
class RunnerSet {
 public:
  RunnerSet(BlockRunner* primary, int slots, int max_threads,
            std::size_t smem_capacity, std::size_t stack_bytes,
            Fiber::Backend backend = Fiber::default_backend())
      : primary_(primary),
        extras_(static_cast<std::size_t>(std::max(0, slots - 1))),
        max_threads_(max_threads),
        smem_capacity_(smem_capacity),
        stack_bytes_(stack_bytes),
        backend_(backend) {}

  BlockRunner& at(int slot) {
    if (slot == 0) return *primary_;
    auto& r = extras_[static_cast<std::size_t>(slot - 1)];
    if (!r)
      r = std::make_unique<BlockRunner>(max_threads_, smem_capacity_,
                                        stack_bytes_, backend_);
    return *r;
  }

  // Shared-memory footprint of the kernel: static __shared__ layout is
  // identical for every block (the CUDA model), so the max over runners that
  // executed at least one block equals the sequential path's value.
  std::size_t smem_bytes_used() const {
    std::size_t used = primary_->shared().bytes_used();
    for (const auto& r : extras_)
      if (r) used = std::max(used, r->shared().bytes_used());
    return used;
  }

 private:
  BlockRunner* primary_;
  std::vector<std::unique_ptr<BlockRunner>> extras_;
  int max_threads_;
  std::size_t smem_capacity_;
  std::size_t stack_bytes_;
  Fiber::Backend backend_;
};

// Dispatch body(slot, index) over [0, total): sequential on the caller when
// no pool is available, block-parallel otherwise.  Either way every index
// runs exactly once and failures surface as the lowest-index exception.
// `cancel` (optional) makes the gap between blocks a cancellation point on
// both paths, so a fired g80resil watchdog preempts the launch without its
// skipped work being reported as success.
template <class Body>
void for_each_block(WorkerPool* pool, std::uint64_t total, const Body& body,
                    const CancelToken* cancel = nullptr) {
  if (pool != nullptr && pool->width() > 1 && total > 1) {
    pool->parallel_for(total, body, cancel);
  } else {
    for (std::uint64_t i = 0; i < total; ++i) {
      if (cancel != nullptr) cancel->check("sequential block loop");
      body(0, i);
    }
  }
}

}  // namespace detail

namespace detail {

// One attempt of a launch: everything from configuration validation through
// the functional pass.  `att` carries the g80resil attempt context — the
// watchdog's cancellation token (threaded into every between-block and
// barrier-release cancellation point) and the graceful-degradation level:
//   level 0  exactly the configuration the caller asked for;
//   level 1  block parallelism abandoned (sequential blocks on the caller,
//            sidestepping a starved or wedged worker pool);
//   level 2  additionally the functional fast path (LaunchOptions::fast_path
//            semantics): no sanitize pass and no trace pass beyond the
//            1-block sample the modeled watchdog needs, if armed — the
//            minimum machinery that still yields correct kernel outputs.
// Kernel outputs are bit-identical across levels (block scheduling never
// changes results — the seed invariant); only trace/timing fidelity and
// validation coverage degrade.
template <class Kernel, class... Args>
void launch_impl(Device& dev, Dim3 grid, Dim3 block, const LaunchOptions& opt,
                 const AttemptConfig& att, LaunchStats& stats,
                 const Kernel& kernel, Args&... args) {
  const DeviceSpec& spec = dev.spec();
  const auto threads = static_cast<int>(block.count());

  // ---- Launch-configuration validation ----
  // Every violation records a sticky Status on the device (queryable via
  // get_last_error) and throws StatusError with full context.
  if (!supported_trace_warp_size(spec.warp_size)) {
    dev.raise(Status::kInvalidConfiguration,
              "warp size " + std::to_string(spec.warp_size) +
                  " is not an even number in [2, 32] (the trace recorder's "
                  "lane masks are 32 bits wide)");
  }
  if (threads < 1 || threads > spec.max_threads_per_block) {
    dev.raise(Status::kInvalidConfiguration,
              "block of " + std::to_string(threads) + " threads exceeds the " +
                  std::to_string(spec.max_threads_per_block) +
                  " threads/block hardware limit");
  }
  if (grid.z != 1) {
    dev.raise(Status::kInvalidConfiguration,
              "grid.z = " + std::to_string(grid.z) +
                  ": G80 grids are 2-D (grid.z must be 1)");
  }
  if (grid.x > static_cast<unsigned>(spec.max_grid_dim) ||
      grid.y > static_cast<unsigned>(spec.max_grid_dim)) {
    dev.raise(Status::kInvalidConfiguration,
              "grid " + std::to_string(grid.x) + "x" + std::to_string(grid.y) +
                  " exceeds the " + std::to_string(spec.max_grid_dim) +
                  " blocks/dimension limit");
  }
  const std::uint64_t total_blocks = grid.count();
  if (total_blocks < 1) {
    dev.raise(Status::kInvalidConfiguration, "empty grid");
  }
  // One block's registers must fit the SM's file (allocated in
  // register_alloc_unit chunks) or the launch can never be scheduled.
  const long long unit = spec.register_alloc_unit;
  const long long block_regs =
      (static_cast<long long>(opt.regs_per_thread) * threads + unit - 1) / unit *
      unit;
  if (block_regs > spec.registers_per_sm) {
    dev.raise(Status::kLaunchOutOfResources,
              "block needs " + std::to_string(block_regs) + " registers (" +
                  std::to_string(opt.regs_per_thread) + "/thread x " +
                  std::to_string(threads) + " threads, allocated in chunks of " +
                  std::to_string(unit) + ") but the SM register file holds " +
                  std::to_string(spec.registers_per_sm));
  }

  // Block scheduling: explicit pool, else the ambient one (g80rt), else the
  // sequential seed path.  Slot 0 always runs on this thread.  Fallback
  // level >= 1 forces the sequential path outright (including past the
  // ambient pool — falling back *means* not trusting the pool).
  WorkerPool* pool =
      att.fallback_level >= 1
          ? nullptr
          : (opt.pool != nullptr ? opt.pool : ambient_launch_pool());
  const bool sanitize_enabled =
      att.fallback_level < 2 && opt.sanitize.enabled;
  // Functional fast path: requested by the caller or escalated to by the
  // degradation ladder, but only when no observer needs the instrumented
  // passes — a profiler/scope/sanitizer silently falls back to the traced
  // path rather than recording empty counters.
  const bool observed = opt.sanitize.enabled || opt.prof.sink != nullptr ||
                        opt.scope.sink != nullptr;
  const bool fast = (opt.fast_path || ambient_fast_path() ||
                     att.fallback_level >= 2) &&
                    !observed;
  // Under the fast path, trace only what the modeled watchdog requires: one
  // sample block when it is armed, none otherwise.
  const bool modeled_watchdog =
      opt.resilience.enabled && opt.resilience.modeled_timeout_s > 0;
  const int sample_blocks =
      fast ? (modeled_watchdog ? 1 : 0)
           : (att.fallback_level >= 2 ? 1 : opt.sample_blocks);
  const CancelToken* cancel = att.cancel;
  const int slots =
      pool != nullptr && pool->width() > 1 ? pool->width() : 1;

  BlockRunner runner(opt.uses_sync ? threads : 1, spec.shared_mem_per_sm,
                     opt.stack_bytes, opt.fiber_backend);
  runner.set_cancel_token(cancel);
  detail::RunnerSet runners(&runner, slots, opt.uses_sync ? threads : 1,
                            spec.shared_mem_per_sm, opt.stack_bytes,
                            opt.fiber_backend);
  const auto run_block = [&](BlockRunner& r,
                             const std::function<void(int)>& body) {
    if (opt.uses_sync) {
      r.run(threads, body);
    } else {
      r.run_direct(threads, body);
    }
  };

  stats.grid = grid;
  stats.block = block;
  stats.regs_per_thread = opt.regs_per_thread;

  try {
    // ---- Trace pass ----
    // Each sampled block is traced into its own slot-private lane buffers
    // and analyzed (coalescing / bank conflicts / constant broadcast /
    // texture cache) into a self-contained BlockTrace, stored by sample
    // index.  The merge therefore happens in sample order no matter which
    // worker finished first, keeping TraceSummary bit-identical to the
    // sequential path.
    const auto samples =
        detail::pick_sample_blocks(total_blocks, sample_blocks);
    if (!samples.empty()) {
      std::vector<BlockTrace> traces(samples.size());
      std::vector<std::vector<LaneTrace>> slot_lanes(
          static_cast<std::size_t>(slots));
      // Each slot owns a TraceArena whose SoA row capacity carries across
      // the blocks it traces, so steady-state recording allocates nothing.
      std::vector<TraceArena> slot_arenas(static_cast<std::size_t>(slots));
      detail::for_each_block(
          pool, samples.size(),
          [&](int slot, std::uint64_t i) {
            BlockRunner& r = runners.at(slot);
            r.set_cancel_token(cancel);
            auto& lanes = slot_lanes[static_cast<std::size_t>(slot)];
            lanes.resize(static_cast<std::size_t>(threads));
            for (auto& l : lanes) l.clear();
            TraceArena& arena = slot_arenas[static_cast<std::size_t>(slot)];
            arena.begin_block(spec, threads);
            BlockEnv env{&r, grid, block,
                         delinearize(static_cast<unsigned>(samples[i]), grid)};
            run_block(r, [&](int tid) {
              TraceCtx ctx(&env, tid, LaneRecorder(&lanes[tid], &arena, tid));
              kernel(ctx, args...);
            });
            traces[i] = collect_block_trace(spec, lanes, arena);
          },
          cancel);
      stats.smem_per_block = runners.smem_bytes_used();
      stats.trace = TraceSummary::summarize(traces);

      // ---- Occupancy + timing ----
      const KernelResources res{opt.regs_per_thread, stats.smem_per_block,
                                threads};
      stats.occupancy = compute_occupancy(spec, res);
      stats.timing =
          simulate_kernel(spec, stats.occupancy, total_blocks, stats.trace);

      // ---- g80resil modeled watchdog ----
      // The paper's display-timeout constraint (§5.1) on the simulated
      // clock: a launch whose modeled device time exceeds the budget is
      // rejected before the (expensive) sanitize and functional passes run.
      // This is deterministic — identical retries fail identically.
      if (opt.resilience.enabled && opt.resilience.modeled_timeout_s > 0 &&
          stats.timing.seconds > opt.resilience.modeled_timeout_s) {
        std::ostringstream os;
        os << "modeled kernel time " << stats.timing.seconds
           << " s exceeds the " << opt.resilience.modeled_timeout_s
           << " s modeled watchdog budget (split the work across launches, "
              "as the paper's time-sliced simulators do)";
        dev.raise(Status::kTimeout, os.str());
      }
    }

    // ---- g80check sanitize pass ----
    // Full-grid pass under Ctx<SanitizerRecorder>: shadow memory watches
    // every shared access, the runner reports every barrier release, and
    // any configured fault injection perturbs this pass only.  Runs before
    // the functional pass so an injected corruption cannot leak into
    // results the host reads (blocks are idempotent; the functional pass
    // rewrites every output).
    if (sanitize_enabled) {
      Sanitizer san(opt.sanitize, spec.shared_mem_per_sm);
      runner.set_barrier_observer(&san);
      for (std::uint64_t b = 0; b < total_blocks; ++b) {
        BlockEnv env{&runner, grid, block,
                     delinearize(static_cast<unsigned>(b), grid)};
        san.begin_block(b);
        run_block(runner, [&](int tid) {
          SanitizeCtx ctx(&env, tid, SanitizerRecorder(&san, tid));
          kernel(ctx, args...);
        });
      }
      runner.set_barrier_observer(nullptr);
      stats.sanitizer = san.report();
      if (!stats.sanitizer.clean()) {
        dev.record_status(stats.sanitizer.findings.front().status);
        if (opt.sanitize.abort_on_error) {
          throw StatusError(stats.sanitizer.findings.front().status,
                            stats.sanitizer.summary());
        }
      }
    }

    // ---- Functional pass ----
    // Grid blocks are independent (each writes a disjoint output region, see
    // the header comment), so they distribute freely across worker slots;
    // within a block, fiber scheduling is unchanged, so results stay
    // bit-identical to sequential execution.
    if (opt.functional) {
      detail::for_each_block(
          pool, total_blocks,
          [&](int slot, std::uint64_t b) {
            BlockRunner& r = runners.at(slot);
            r.set_cancel_token(cancel);
            BlockEnv env{&r, grid, block,
                         delinearize(static_cast<unsigned>(b), grid)};
            run_block(r, [&](int tid) {
              FuncCtx ctx(&env, tid, NullRecorder{});
              kernel(ctx, args...);
            });
          },
          cancel);
    }

    // Sample-free fast path: no trace pass ran, so take the shared-memory
    // footprint from the functional pass (the static __shared__ layout is
    // identical in every pass) and fill in occupancy — the one model output
    // that needs no trace.  stats.trace/stats.timing stay empty by design.
    if (samples.empty()) {
      stats.smem_per_block = runners.smem_bytes_used();
      const KernelResources res{opt.regs_per_thread, stats.smem_per_block,
                                threads};
      stats.occupancy = compute_occupancy(spec, res);
    }
  } catch (const StatusError& e) {
    dev.record_status(e.status());
    throw;
  } catch (const Error&) {
    dev.record_status(Status::kLaunchFailure);
    throw;
  } catch (const std::exception& e) {
    // A kernel functor (or anything it called) threw a plain host exception.
    // Record the sticky status and wrap it as a StatusError so the failure
    // propagates as a g80::Status on the launching stream instead of
    // escaping untyped (and, before this clause existed, std::terminate-ing
    // a g80rt stream thread via an unhandled-exception path).
    dev.record_status(Status::kLaunchFailure);
    throw StatusError(Status::kLaunchFailure,
                      std::string("kernel threw: ") + e.what());
  } catch (...) {
    dev.record_status(Status::kLaunchFailure);
    throw StatusError(Status::kLaunchFailure,
                      "kernel threw a non-standard exception");
  }
}

}  // namespace detail

template <class Kernel, class... Args>
LaunchStats launch(Device& dev, Dim3 grid, Dim3 block, const LaunchOptions& opt,
                   const Kernel& kernel, Args&&... args) {
  LaunchStats stats;
  // Every attempt starts from fresh stats (blocks are idempotent, so a
  // partial failed attempt leaves nothing that needs undoing); the final
  // attempt's stats — plus the accumulated resilience history — survive.
  run_resilient(opt.resilience, stats.resilience,
                [&](const AttemptConfig& att) {
                  stats = LaunchStats{};
                  detail::launch_impl(dev, grid, block, opt, att, stats,
                                      kernel, args...);
                });
  // A launch that survived only through retries records the informational
  // kRecovered sticky status (last-writer-wins, like the CUDA runtime's
  // error slot), overwriting the transient failures of earlier attempts so
  // hosts polling get_last_error() see recovery rather than a stale error.
  if (stats.resilience.recovered) {
    dev.record_status(Status::kRecovered);
  }
  // ---- g80prof ----
  // Counter derivation happens here, after every pass (and every resilience
  // attempt) completed, from the trace statistics computed above — the
  // functional path never sees the profiler, and a retried launch records
  // once, with its recovery provenance attached.
  if (opt.prof.sink != nullptr) {
    prof::detail::record_launch(*opt.prof.sink, opt.prof.kernel_name,
                                opt.prof.stream, dev.spec(), stats);
  }
  // ---- g80scope ----
  // Same contract: the time series is derived from the already-computed
  // trace statistics, never measured during a pass.
  if (opt.scope.sink != nullptr) {
    const std::uint64_t id =
        scope::detail::record_launch(*opt.scope.sink, opt.prof.kernel_name,
                                     opt.prof.stream, dev.spec(), stats);
    if (opt.scope.id_out != nullptr) *opt.scope.id_out = id;
  }
  return stats;
}

}  // namespace g80
