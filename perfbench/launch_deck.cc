// launch_deck: one caller thread, no WorkerPool, a closed loop of full
// default launches drawn from the seeded deck (deck.h).
#include <algorithm>
#include <array>
#include <cmath>
#include <random>

#include "bench_util.h"
#include "deck.h"
#include "exec/block_runner.h"
#include "exec/fiber.h"
#include "occupancy/occupancy.h"

namespace perfbench {

using namespace g80;

namespace {

// What every repeat of an entry must reproduce.
struct Expected {
  std::uint64_t digest = 0;
  TraceSummary trace;
  double modeled_s = 0;
};

// Builds the deck, launches each entry once, checks it against its CPU
// reference and records what later repeats must reproduce.  Returns the
// reference-check failures.
std::vector<std::string> set_up(std::uint64_t seed, Deck& deck,
                                std::vector<Expected>& expected) {
  deck.entries.clear();  // entries hold buffers of the old deck's device
  deck = make_deck(seed);
  expected.clear();
  std::vector<std::string> failures;
  for (const DeckEntry& e : deck.entries) {
    e.reset_outputs();
    const LaunchStats st = e.launch(LaunchMode::kFull);
    const std::string why = e.check_reference();
    if (!why.empty()) failures.push_back(why);
    expected.push_back({e.digest(), st.trace, st.timing.seconds});
  }
  return failures;
}

// The op order: each cycle visits every entry once, in a seeded order.
class DeckOrder {
 public:
  DeckOrder(std::size_t n, std::uint64_t seed) : rng_(seed), order_(n) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
  }
  std::size_t next() {
    if (pos_ == 0) std::shuffle(order_.begin(), order_.end(), rng_);
    const std::size_t i = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return i;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

double time_ms(const std::function<void()>& f) {
  const double t0 = now_s();
  f();
  return (now_s() - t0) * 1e3;
}

}  // namespace

void run_launch_deck(const Args& a, Result& r) {
  Deck deck;
  std::vector<Expected> expected;
  std::vector<std::string> failures;
  const auto setups =
      timed_setups(15, [&] { failures = set_up(a.seed, deck, expected); });
  r.attempted += deck.entries.size();
  for (const std::string& why : failures) r.wrong(why);

  DeckOrder order(deck.entries.size(), a.seed);
  LoopSamples s;
  const double start = now_s();
  while (now_s() - start < a.seconds) {
    const std::size_t i = order.next();
    const DeckEntry& e = deck.entries[i];
    e.reset_outputs();
    const double t0 = now_s();
    LaunchStats st;
    bool ok = true;
    try {
      st = e.launch(LaunchMode::kFull);
    } catch (const std::exception& ex) {
      ok = false;
      r.fail(e.name + ": " + ex.what());
    }
    const double dt = now_s() - t0;
    s.latency_s.push_back(dt);
    s.busy_s += dt;
    if (ok && (e.digest() != expected[i].digest ||
               !(st.trace == expected[i].trace) ||
               st.timing.seconds != expected[i].modeled_s)) {
      r.wrong(e.name + ": repeat differs from its first launch");
    }
  }
  s.wall_s = now_s() - start;
  add_end_to_end(r, s, s.busy_s, setups);
}

void trace_launch_deck(const Args& a, double budget_s, Result& r) {
  Deck deck;
  std::vector<Expected> expected;
  for (const std::string& why : set_up(a.seed, deck, expected)) r.wrong(why);
  const std::size_t n = deck.entries.size();

  // Interleaved rounds of full / fast-path / trace-only / set-up-only
  // launches of every entry, rotating which mode goes first, for 80% of the
  // budget.  Fast-path and trace-only launches each carry the fixed launch
  // set-up once, where the full launch shares one between its passes, so
  // the split adds up as L = F + T - S + residual.  S is an empty launch
  // (validation, occupancy) plus, for barrier kernels, a fresh BlockRunner's
  // first block: creating the block's fibers and touching their stacks.
  // The residual is taken per round, from four launches a few ms apart, so
  // the host's slow phases (seconds long) cancel out of it.
  const auto first_block = [&](const DeckEntry& e, const LaunchStats& st) {
    if (!e.opt.uses_sync) return;
    const int threads = static_cast<int>(st.block.count());
    BlockRunner runner(threads, deck.dev->spec().shared_mem_per_sm,
                       e.opt.stack_bytes, e.opt.fiber_backend);
    runner.run(threads, [](int) {});
  };
  constexpr LaunchMode kModes[] = {LaunchMode::kFull, LaunchMode::kFastPath,
                                   LaunchMode::kTraceOnly,
                                   LaunchMode::kSetupOnly};
  constexpr int kNumModes = 4;
  std::vector<std::array<std::vector<double>, kNumModes>> ms(n);
  std::vector<std::vector<double>> residual(n);  // % of L, per round
  std::vector<double> deck_residual;             // whole deck, per round
  std::vector<LaunchStats> traced(n);
  const auto split = [](const std::array<double, kNumModes>& t) {
    return (t[0] - t[1] - t[2] + t[3]) / t[0] * 100;
  };
  const double start = now_s();
  for (int round = 0; round == 0 || now_s() - start < 0.8 * budget_s;
       ++round) {
    std::array<double, kNumModes> deck_t{};
    for (std::size_t i = 0; i < n; ++i) {
      const DeckEntry& e = deck.entries[i];
      std::array<double, kNumModes> t{};
      for (int k = 0; k < kNumModes; ++k) {
        const int m = (k + round) % kNumModes;
        e.reset_outputs();
        LaunchStats st;
        t[m] = time_ms([&] {
          st = e.launch(kModes[m]);
          if (kModes[m] == LaunchMode::kSetupOnly) first_block(e, st);
        });
        ms[i][m].push_back(t[m]);
        deck_t[m] += t[m];
        if (kModes[m] == LaunchMode::kFull) traced[i] = st;
        if (kModes[m] == LaunchMode::kFastPath &&
            e.digest() != expected[i].digest)
          r.wrong(e.name + ": fast-path output differs from the full launch");
        ++r.attempted;
      }
      residual[i].push_back(split(t));
    }
    deck_residual.push_back(split(deck_t));
  }

  double sum_full = 0, sum_fast = 0, sum_trace = 0, sum_setup = 0;
  double threads = 0, blocks_traced = 0, occ_us = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const DeckEntry& e = deck.entries[i];
    const double L = median(ms[i][0]), F = median(ms[i][1]),
                 T = median(ms[i][2]), S = median(ms[i][3]);
    const double split_pct = median(residual[i]);
    note("launch_deck %-12s %-9s launch=%.3f ms functional=%.3f ms "
         "trace_pass=%.3f ms launch_setup=%.3f ms split_residual=%+.2f%%%s",
         e.name.c_str(), e.kind.c_str(), L, F, T, S, split_pct,
         std::fabs(split_pct) > 10
             ? "  FLAG: fast-path + trace-only no longer add up to the launch"
             : "");
    r.add("launch_deck.cudalite.split_residual_pct." + e.name, split_pct,
          "%");
    sum_full += L;
    sum_fast += F;
    sum_trace += T;
    sum_setup += S;
    threads += static_cast<double>(e.threads);
    blocks_traced += static_cast<double>(traced[i].trace.num_blocks);
    const KernelResources res{e.opt.regs_per_thread, traced[i].smem_per_block,
                              static_cast<int>(traced[i].block.count())};
    const DeviceSpec spec = deck.dev->spec();
    occ_us += probe_ns(9, 2000, [&] {
                Occupancy o = compute_occupancy(spec, res);
                asm volatile("" : : "r"(&o) : "memory");
              }) / 1e3;
  }
  const double nd = static_cast<double>(n);
  r.add("launch_deck.cudalite.launch_ms", sum_full / nd, "ms");
  r.add("launch_deck.exec.functional_ms", sum_fast / nd, "ms");
  r.add("launch_deck.cudalite.trace_pass_ms", sum_trace / nd, "ms");
  r.add("launch_deck.cudalite.launch_setup_ms", sum_setup / nd, "ms");
  r.add("launch_deck.cudalite.split_residual_pct", median(deck_residual),
        "%");
  r.add("launch_deck.exec.ns_per_thread", sum_fast * 1e6 / threads, "ns");
  r.add("launch_deck.occupancy.calc_us", occ_us / nd, "us");
  r.add("launch_deck.sim.threads_per_op", threads / nd, "count");
  r.add("launch_deck.sim.blocks_traced_per_op", blocks_traced / nd, "count");

  // exec probes: a 256-thread block parking at repeated barriers, a
  // direct-mode (fiber-less) block, and a bare fiber round trip.
  constexpr int kThreads = 256, kSyncs = 8;
  BlockRunner barrier_runner(kThreads, 16 * 1024);
  r.add("launch_deck.exec.barrier_ns_per_thread",
        probe_ns(15, 20,
                 [&] {
                   barrier_runner.run(kThreads, [&](int tid) {
                     for (int k = 0; k < kSyncs; ++k) barrier_runner.sync(tid);
                   });
                 }) /
            (kThreads * kSyncs),
        "ns");
  BlockRunner direct_runner(1, 16 * 1024);
  volatile int sink = 0;
  const auto direct_block = [&] {
    direct_runner.run_direct(kThreads, [&](int t) { sink = t; });
  };
  r.add("launch_deck.exec.direct_ns_per_thread",
        probe_ns(15, 400, direct_block) / kThreads, "ns");
  Fiber f;
  bool stop = false;
  f.start([&] {
    while (!stop) f.yield();
  });
  r.add("launch_deck.exec.fiber_switch_ns",
        probe_ns(15, 20000, [&] { f.resume(); }), "ns");
  stop = true;
  f.resume();
}

}  // namespace perfbench
