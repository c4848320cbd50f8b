// tune_sweep: a closed loop of core::Autotuner::sweep() calls over matmul
// variants x tiles — trace-only launches (functional = false) with a
// prof::Profiler attached, the paper's §4 / Figure 4 user path.
#include <algorithm>
#include <memory>
#include <random>

#include "apps/matmul/matmul.h"
#include "bench_util.h"
#include "core/autotuner.h"
#include "prof/counters.h"
#include "prof/profiler.h"
#include "timing/model.h"

namespace perfbench {

using namespace g80;
using namespace g80::apps;

namespace {

constexpr int kTuneN = 48;  // divisible by every tile below
constexpr int kMinSubset = 2;
constexpr int kSetups = 25;

// Figure 4's candidates: not tiled, and 4/8/12/16 tiles, each plain and
// fully unrolled.
std::vector<MatmulConfig> candidate_configs() {
  std::vector<MatmulConfig> c{{MatmulVariant::kNaive, 16}};
  for (int tile : {4, 8, 12, 16}) {
    c.push_back({MatmulVariant::kTiled, tile});
    c.push_back({MatmulVariant::kTiledUnrolled, tile});
  }
  return c;
}

// A sweep over some of the candidates, and the report it must return.
struct SubsetSweep {
  Autotuner tuner;
  TuneReport expected;
};

struct Tuning {
  std::unique_ptr<Device> dev;
  std::unique_ptr<DeviceBuffer<float>> a, b, c;
  prof::Profiler profiler;
  std::vector<MatmulConfig> configs;
  std::vector<std::function<LaunchStats()>> runs;  // one per candidate
  Autotuner tuner;      // every candidate
  TuneReport expected;  // its first sweep, the reference for all others
  // The timed ops: sweeps over 2 to 8 of the 9 candidates.  Their costs
  // spread continuously, so the host's slow phases (seconds long) move the
  // latency quantiles smoothly instead of flipping them between two modes.
  std::vector<SubsetSweep> subsets;
};

// The report a sweep over `picked` (indices into the full candidate list,
// in registration order) must return, from the full sweep's entries.
TuneReport expected_for(const TuneReport& full,
                        const std::vector<std::size_t>& picked) {
  TuneReport rep;
  for (std::size_t i : picked) rep.entries.push_back(full.entries[i]);
  for (std::size_t i = 1; i < rep.entries.size(); ++i)
    if (rep.entries[i].seconds < rep.entries[rep.best_index].seconds)
      rep.best_index = i;
  return rep;
}

std::unique_ptr<Tuning> set_up(std::uint64_t seed) {
  auto t = std::make_unique<Tuning>();
  t->dev = std::make_unique<Device>(DeviceSpec::geforce_8800_gtx());
  const auto w = MatmulWorkload::generate(kTuneN, seed);
  const auto buffer = [&](std::size_t n) {
    return std::make_unique<DeviceBuffer<float>>(t->dev->alloc<float>(n));
  };
  t->a = buffer(w.a.size());
  t->b = buffer(w.b.size());
  t->c = buffer(w.a.size());
  t->a->copy_from_host(w.a);
  t->b->copy_from_host(w.b);
  t->configs = candidate_configs();
  Tuning* raw = t.get();
  for (const MatmulConfig& cfg : t->configs) {
    auto run = [raw, cfg] {
      return run_matmul(*raw->dev, cfg, kTuneN, *raw->a, *raw->b, *raw->c,
                        /*functional=*/false, &raw->profiler);
    };
    t->runs.push_back(run);
    t->tuner.add(cfg.name(), run);
  }
  t->expected = t->tuner.sweep();  // warm-up

  // For every size k, the n windows of k consecutive candidates on a
  // seeded ring, in a seeded order.  Every candidate is in the same number
  // of sweeps, so one pass over the subsets costs the same for every seed.
  // No size has n windows of equal cost (k = n would), so p50 and p90 each
  // fall among distinct costs.
  std::mt19937_64 rng(seed);
  const std::size_t n = t->runs.size();
  std::vector<std::size_t> ring(n);
  for (std::size_t i = 0; i < n; ++i) ring[i] = i;
  std::shuffle(ring.begin(), ring.end(), rng);
  std::vector<std::vector<std::size_t>> picks;
  for (std::size_t k = kMinSubset; k < n; ++k) {
    for (std::size_t first = 0; first < n; ++first) {
      std::vector<std::size_t> picked;
      for (std::size_t j = 0; j < k; ++j) picked.push_back(ring[(first + j) % n]);
      std::sort(picked.begin(), picked.end());
      picks.push_back(std::move(picked));
    }
  }
  std::shuffle(picks.begin(), picks.end(), rng);
  t->subsets.resize(picks.size());
  for (std::size_t s = 0; s < picks.size(); ++s) {
    for (std::size_t i : picks[s])
      t->subsets[s].tuner.add(t->configs[i].name(), t->runs[i]);
    t->subsets[s].expected = expected_for(t->expected, picks[s]);
  }
  return t;
}

// Empty when `got` picks the expected winner with identical modeled times.
std::string compare(const TuneReport& got, const TuneReport& want) {
  if (got.entries.size() != want.entries.size() ||
      got.best_index != want.best_index)
    return "sweep picked another winner";
  for (std::size_t i = 0; i < want.entries.size(); ++i)
    if (got.entries[i].seconds != want.entries[i].seconds)
      return "modeled time of '" + want.entries[i].name + "' changed";
  return "";
}

}  // namespace

void run_tune_sweep(const Args& a, Result& r) {
  std::unique_ptr<Tuning> t;
  const auto setups = timed_setups(kSetups, [&] { t = set_up(a.seed); });
  note("tune_sweep: %zu candidates at n=%d, winner '%s'", t->configs.size(),
       kTuneN, t->expected.best().name.c_str());

  LoopSamples s;
  const double start = now_s();
  for (std::size_t op = 0; now_s() - start < a.seconds; ++op) {
    const SubsetSweep& sw = t->subsets[op % t->subsets.size()];
    const double t0 = now_s();
    TuneReport rep;
    bool ok = true;
    try {
      rep = sw.tuner.sweep();
    } catch (const std::exception& ex) {
      ok = false;
      r.fail(std::string("sweep: ") + ex.what());
    }
    const double dt = now_s() - t0;
    s.latency_s.push_back(dt);
    s.busy_s += dt;
    if (ok) {
      const std::string why = compare(rep, sw.expected);
      if (!why.empty()) r.wrong(why);
    }
  }
  s.wall_s = now_s() - start;
  add_end_to_end(r, s, s.busy_s, setups);
}

void trace_tune_sweep(const Args& a, double budget_s, Result& r) {
  auto t = set_up(a.seed);
  const DeviceSpec spec = t->dev->spec();
  const std::size_t n = t->runs.size();

  // Alternate a whole sweep with the same candidates called one by one.
  std::vector<double> sweep_ms, cand_ms, ns_per_inst;
  std::vector<LaunchStats> stats(n);
  double insts = 0;
  const double start = now_s();
  while (sweep_ms.empty() || now_s() - start < 0.85 * budget_s) {
    double t0 = now_s();
    const std::string why = compare(t->tuner.sweep(), t->expected);
    if (!why.empty()) r.wrong(why);
    sweep_ms.push_back((now_s() - t0) * 1e3);
    double total_s = 0;
    insts = 0;
    for (std::size_t i = 0; i < n; ++i) {
      t0 = now_s();
      stats[i] = t->runs[i]();
      total_s += now_s() - t0;
      insts += static_cast<double>(stats[i].trace.total.ops.total());
    }
    cand_ms.push_back(total_s * 1e3 / static_cast<double>(n));
    ns_per_inst.push_back(total_s * 1e9 / insts);
    r.attempted += 1 + n;
  }

  // The layers downstream of the trace pass, on the candidates' summaries
  // (per-call times in us).
  const auto nd = static_cast<double>(n);
  const double model_us = probe_ns(15, 20, [&] {
    for (const LaunchStats& st : stats) {
      KernelTiming kt =
          simulate_kernel(spec, st.occupancy, st.grid.count(), st.trace);
      asm volatile("" : : "r"(&kt) : "memory");
    }
  }) / nd / 1e3;
  const double derive_us = probe_ns(15, 20, [&] {
    for (const LaunchStats& st : stats) {
      prof::KernelCounters kc = prof::derive_counters(spec, st);
      asm volatile("" : : "r"(&kc) : "memory");
    }
  }) / nd / 1e3;

  note("tune_sweep: sweep=%.3f ms over %zu candidates, %.0f traced warp "
       "instructions per sweep",
       median(sweep_ms), n, insts);
  r.add("tune_sweep.core.sweep_ms", median(sweep_ms), "ms");
  r.add("tune_sweep.cudalite.trace_pass_ms", median(cand_ms), "ms");
  r.add("tune_sweep.cudalite.ns_per_traced_warp_inst", median(ns_per_inst),
        "ns");
  r.add("tune_sweep.timing.model_us", model_us, "us");
  r.add("tune_sweep.prof.derive_us", derive_us, "us");
  r.add("tune_sweep.sim.traced_warp_insts_per_op", insts, "count");
}

}  // namespace perfbench
