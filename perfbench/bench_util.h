// Shared plumbing for the perfbench workloads: the steady clock, order
// statistics, the host-speed probe, and the result record whose JSON form is
// the last line of every run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (p in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// Median over `batches` of the per-call time (ns) of `calls` calls of `f`.
double probe_ns(int batches, int calls, const std::function<void()>& f);

// Host-speed probes, in ms, timed at the start and end of every run so a
// slow host can be told apart from a slow program: a fixed integer loop,
// and a dependent walk over 8 MiB (memory latency, which other tenants'
// load moves far more than it moves the integer loop).
double host_spin_ms();
double host_chase_ms();

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// Word-wise 64-bit digest of a byte range (outputs are compared between
// repeats of one launch within one process, never across builds).
std::uint64_t digest_bytes(const void* data, std::size_t bytes,
                           std::uint64_t h = 0x9e3779b97f4a7c15ull);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // required
  bool trace = false;
  std::string scratch_dir = ".";  // where the serve socket is created
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run reports.  `failed` counts ops that produced no result (an
// error or a refusal) or a wrong one; only a wrong result clears `correct`.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why);   // the op errored or was refused
  void wrong(const std::string& why);  // the op returned a wrong output
  std::string json() const;
};

// Latencies (seconds) of the ops of one closed loop, plus how long the
// program was busy with them and how long the loop ran.
struct LoopSamples {
  std::vector<double> latency_s;
  double busy_s = 0;
  double wall_s = 0;

  void merge(const LoopSamples& o);
};

// The end-to-end metric set every workload reports.  `rate_s` is the time
// base of ops_per_s: busy time for a single caller, wall time for several
// concurrent ones.
void add_end_to_end(Result& r, const LoopSamples& s, double rate_s,
                    const std::vector<double>& setup_s);

// Runs `setup` `reps` times and returns each duration; the caller keeps the
// state the last repetition built.
std::vector<double> timed_setups(int reps, const std::function<void()>& setup);

// Prints a human-readable line ahead of the result (never the last line).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Workload entry points (launch_deck.cc, tune_sweep.cc, serve_mix.cc).
// run_* measures the end-to-end metrics; trace_* adds the workload's
// per-layer metrics, timed from outside around public calls.
void run_launch_deck(const Args& a, Result& r);
void run_tune_sweep(const Args& a, Result& r);
void run_serve_mix(const Args& a, Result& r);
void trace_launch_deck(const Args& a, double budget_s, Result& r);
void trace_tune_sweep(const Args& a, double budget_s, Result& r);
void trace_serve_mix(const Args& a, double budget_s, Result& r);

}  // namespace perfbench
