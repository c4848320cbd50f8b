#!/usr/bin/env bash
# Build the g80rt runtime tests under ThreadSanitizer and run them.
#
# Usage: scripts/check_tsan.sh [build-dir]
#
# Uses the CMake `Tsan` configuration defined in the top-level
# CMakeLists.txt.  The ucontext fiber switches in src/exec/fiber.cc carry
# __tsan_create/switch_to/destroy_fiber annotations, so TSan's shadow stack
# follows the simulated GPU threads across stack switches instead of
# reporting phantom races.
#
# Only the concurrency-heavy tests run here
# (ctest -R '^(rt_|resil_test|serve_|obs_|exec_fastpath|trace_batch)'): they are
# the ones that exercise the WorkerPool (including its work-stealing deques),
# the stream threads, the g80resil watchdog/cancellation machinery, the
# atomic Device counters, the g80serve session/scheduler threads (many
# concurrent unix-socket sessions sharing one device pool), and the
# per-slot trace arenas (each must stay private to the worker owning its
# launch slot).  The sequential suite is
# covered by check_sanitize.sh.  Note the fast fiber engine is compiled out
# under TSan (no sanitizer annotations); requests for it degrade to the
# annotated ucontext engine, so the backend-parameterized tests still run.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-tsan}"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Tsan
cmake --build "$build" -j "$(nproc)" --target rt_stream_test rt_parallel_launch_test resil_test \
  serve_server_test serve_isolation_test serve_cache_test exec_fastpath_test trace_batch_test \
  obs_metrics_test obs_trace_test

# second_deadlock_stack: show both lock orders on any lock-inversion report.
export TSAN_OPTIONS="${TSAN_OPTIONS:-second_deadlock_stack=1}"

ctest --test-dir "$build" --output-on-failure -R '^(rt_|resil_test|serve_|obs_|exec_fastpath|trace_batch)' -j "$(nproc)"
echo "tsan: runtime tests passed"
