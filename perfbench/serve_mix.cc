// serve_mix: an in-process serve::Server (two gtx slots, memory-only cache)
// driven by two client connections in a closed loop.  80% of requests read
// a warmed hot set (cache hits); 20% write a fresh seed (cache misses that
// go through admission, the scheduler, run_job and cache.store).
#include <unistd.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench_util.h"
#include "common/rng.h"
#include "cudalite/device.h"
#include "hw/device_spec.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/kernels.h"
#include "serve/server.h"

namespace perfbench {

using namespace g80;
using namespace g80::serve;

namespace {

constexpr int kClients = 2;
constexpr int kHotKeys = 8;
constexpr int kGroup = 5;  // one write in every group of five requests

JobRequest job(bool matmul, std::int64_t seed) {
  JobRequest req;
  req.op = Op::kLaunch;
  req.seed = seed;
  if (matmul) {
    req.kernel = "matmul";
    req.n = 64;
    req.tile = 16;
    req.variant = "tiled";
  } else {
    req.kernel = "saxpy";
    req.n = 65536;
  }
  return req;
}

// The hot set: half matmul, half saxpy, seeds drawn from the run seed.
std::vector<JobRequest> hot_set(std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<JobRequest> hot;
  for (int i = 0; i < kHotKeys; ++i) {
    const auto seed_i = static_cast<std::int64_t>(rng.next_below(1u << 30));
    hot.push_back(job(i % 2 == 0, seed_i));
  }
  return hot;
}

// One client's request sequence.  Writes fall at a seeded position within
// each group of kGroup requests, so every run has exactly 20% writes; their
// seeds lie above 2^40 (the hot seeds lie below 2^30), so each is a miss.
// One write in four is matmul and three are saxpy, so the two miss kinds
// never split the misses evenly: p90 (the misses' median) stays inside one
// mode.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, int client)
      : rng_(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(client)),
        fresh_base_((std::int64_t{1} << 40) +
                    (std::int64_t{client} << 32) +
                    (static_cast<std::int64_t>(seed % 4096) << 20)) {}

  // Returns the hot-set index of a read, or -1 for a write (into `req`).
  int next(const std::vector<JobRequest>& hot, JobRequest& req) {
    if (pos_ == 0) write_at_ = static_cast<int>(rng_.next_below(kGroup));
    const bool write = pos_ == write_at_;
    pos_ = (pos_ + 1) % kGroup;
    if (write) {
      req = job(rng_.next_below(4) == 0, fresh_base_ + fresh_++);
      return -1;
    }
    const int k = static_cast<int>(rng_.next_below(hot.size()));
    req = hot[static_cast<std::size_t>(k)];
    return k;
  }

 private:
  SplitMix64 rng_;
  std::int64_t fresh_base_;
  std::int64_t fresh_ = 0;
  int pos_ = 0;
  int write_at_ = 0;
};

struct Service {
  std::unique_ptr<Server> server;
  std::string socket;
  std::vector<JobRequest> hot;
  std::vector<std::string> hot_ref;  // first response per hot key

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() {
    if (server) server->shutdown();
  }
};

// Starts a server and warms the hot set: each key once as a miss (its
// reference response), then once as a hit.
std::unique_ptr<Service> set_up(const Args& a, int instance,
                                std::vector<std::string>& failures) {
  auto svc = std::make_unique<Service>();
  svc->socket = a.scratch_dir + "/perfbench-" + std::to_string(::getpid()) +
                "-" + std::to_string(instance) + ".sock";
  ServerConfig cfg;
  cfg.socket_path = svc->socket;
  cfg.pool.gtx_slots = 2;
  cfg.pool.ultra_slots = 0;
  cfg.pool.gts_slots = 0;
  cfg.obs.log_level = obs::LogLevel::kWarn;
  svc->server = std::make_unique<Server>(cfg);
  svc->server->start();

  svc->hot = hot_set(a.seed);
  Client warmer(svc->socket, "perfbench-warmer");
  for (const JobRequest& req : svc->hot) {
    const Response cold = warmer.call(req);
    const Response warm = warmer.call(req);
    if (!cold.ok() || cold.source != "sim")
      failures.push_back("hot key warm-up did not simulate: " + cold.error);
    if (!warm.ok() || warm.result_json != cold.result_json)
      failures.push_back("hot key hit differs from its first response");
    svc->hot_ref.push_back(cold.result_json);
  }
  return svc;
}

struct ClientRun {
  LoopSamples all;
  std::vector<double> hit_s, miss_s;
  std::vector<std::string> errors;  // ops answered with an error
  std::vector<std::string> wrong;   // ops answered with a wrong result
  std::string miss_payload;         // one miss result, for the cache probes
};

// One client's closed loop for `seconds`.  Every response must be ok; every
// read must be byte-identical to its key's reference.
void client_loop(const Service& svc, std::uint64_t seed, int client,
                 double seconds, ClientRun& out) {
  try {
    Client c(svc.socket, "perfbench-" + std::to_string(client));
    RequestStream stream(seed, client);
    JobRequest req;
    const double start = now_s();
    while (now_s() - start < seconds) {
      const int hot = stream.next(svc.hot, req);
      const double t0 = now_s();
      const Response resp = c.call(req);
      const double dt = now_s() - t0;
      out.all.latency_s.push_back(dt);
      out.all.busy_s += dt;
      (resp.source == "sim" ? out.miss_s : out.hit_s).push_back(dt);
      if (!resp.ok()) {
        out.errors.push_back("request failed: " + resp.error);
      } else if (hot >= 0 && resp.result_json !=
                                 svc.hot_ref[static_cast<std::size_t>(hot)]) {
        out.wrong.push_back("hit differs from its key's first response");
      } else if (hot < 0 && out.miss_payload.empty()) {
        out.miss_payload = resp.result_json;
      }
    }
    out.all.wall_s = now_s() - start;
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("client: ") + e.what());
  }
}

std::vector<ClientRun> drive(const Service& svc, std::uint64_t seed,
                             double seconds) {
  std::vector<ClientRun> runs(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back(client_loop, std::cref(svc), seed, c, seconds,
                         std::ref(runs[static_cast<std::size_t>(c)]));
  for (auto& t : threads) t.join();
  return runs;
}

void report(Result& r, const ClientRun& run) {
  for (const std::string& why : run.errors) r.fail(why);
  for (const std::string& why : run.wrong) r.wrong(why);
}

}  // namespace

void run_serve_mix(const Args& a, Result& r) {
  std::unique_ptr<Service> svc;
  std::vector<std::string> failures;
  int instance = 0;
  const auto setups = timed_setups(15, [&] {
    svc.reset();
    failures.clear();
    svc = set_up(a, instance++, failures);
  });
  r.attempted += svc->hot.size();
  for (const std::string& why : failures) r.wrong(why);

  LoopSamples s;
  for (const ClientRun& run : drive(*svc, a.seed, a.seconds)) {
    s.merge(run.all);
    report(r, run);
  }
  add_end_to_end(r, s, s.wall_s, setups);
}

void trace_serve_mix(const Args& a, double budget_s, Result& r) {
  const double start = now_s();
  std::vector<std::string> failures;
  auto svc = set_up(a, 0, failures);
  for (const std::string& why : failures) r.wrong(why);

  // Client-side latency split by response source, on the live server.
  const CacheCounters before = svc->server->cache_counters();
  const auto runs = drive(*svc, a.seed, 0.5 * budget_s);
  std::vector<double> hit_s, miss_s;
  std::string miss_payload;
  for (const ClientRun& run : runs) {
    hit_s.insert(hit_s.end(), run.hit_s.begin(), run.hit_s.end());
    miss_s.insert(miss_s.end(), run.miss_s.begin(), run.miss_s.end());
    if (miss_payload.empty()) miss_payload = run.miss_payload;
    report(r, run);
    r.attempted += run.all.latency_s.size();
  }
  const CacheCounters after = svc->server->cache_counters();
  const auto lookups = static_cast<double>(after.lookups() - before.lookups());
  const auto hits = static_cast<double>(after.hits() - before.hits());

  // Server-side phase p50s from the metrics op.  Its histograms use x2 log
  // buckets, so these are approximate; the exact counters sit beside them.
  double queue_p50 = 0, sim_p50 = 0, retries = 0;
  {
    Client probe(svc->socket, "perfbench-probe");
    JobRequest req;
    req.op = Op::kMetrics;
    const Response resp = probe.call(req);
    if (!resp.ok())
      throw std::runtime_error("metrics op failed: " + resp.error);
    const JsonValue& metrics = resp.doc.require("result").require("metrics");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const JsonValue& m = metrics.at(i);
      const std::string name = m.get_string("name", "");
      if (name == "serve.latency.queue_wait")
        queue_p50 = m.get_number("p50", 0);
      if (name == "serve.latency.simulate") sim_p50 = m.get_number("p50", 0);
      if (name == "serve.job_retries_total")
        retries = m.get_number("value", 0);
    }
  }
  const double rejected =
      static_cast<double>(svc->server->scheduler_stats().rejected_not_ready);
  std::vector<JobRequest> hot = svc->hot;
  std::vector<std::string> hot_payload = svc->hot_ref;
  svc.reset();

  // The request stream of client 0, replayed against each layer alone.
  std::vector<std::pair<JobRequest, bool>> stream;  // (request, is write)
  {
    RequestStream rs(a.seed, 0);
    JobRequest req;
    for (int i = 0; i < 1000; ++i) {
      const bool write = rs.next(hot, req) < 0;
      stream.emplace_back(req, write);
    }
  }
  const DeviceSpec spec = spec_for_class("gtx");
  // Per-request times in us, over the whole stream.
  const auto per_request = 1e3 * static_cast<double>(stream.size());
  const double protocol_us = probe_ns(9, 1, [&] {
    for (const auto& [req, write] : stream) {
      const JobRequest back =
          parse_request(JsonValue::parse(encode_request(req)));
      asm volatile("" : : "r"(&back) : "memory");
    }
  }) / per_request;
  const double key_us = probe_ns(9, 1, [&] {
    for (const auto& [req, write] : stream) {
      const DeviceSpec s = spec_for_class(req.device_class);
      std::uint64_t key =
          job_cache_key(req, resolve_config(req), device_spec_hash(s));
      asm volatile("" : : "r"(&key) : "memory");
    }
  }) / per_request;

  // A standalone ResultCache fed the same key stream: reads hit the hot
  // keys, writes miss and then store a fresh key.
  ResultCache cache;
  const auto key_of = [&](const JobRequest& req) {
    return job_cache_key(req, resolve_config(req), device_spec_hash(spec));
  };
  for (std::size_t k = 0; k < hot.size(); ++k)
    cache.store(key_of(hot[k]), hot_payload[k]);
  std::vector<double> lookup_us, store_us;
  std::int64_t fresh = 0;
  for (int rep = 0; rep < 9; ++rep) {
    std::vector<std::pair<std::uint64_t, bool>> keys;
    for (const auto& [req, write] : stream) {
      JobRequest q = req;
      if (write) q.seed = (std::int64_t{1} << 50) + fresh++;
      keys.emplace_back(key_of(q), write);
    }
    std::string payload;
    double lookup_s = 0, store_s = 0;
    std::size_t stores = 0;
    for (const auto& [key, write] : keys) {
      double t0 = now_s();
      const ResultCache::Tier tier = cache.lookup(key, payload);
      lookup_s += now_s() - t0;
      if ((tier == ResultCache::Tier::kMiss) != write) {
        r.wrong("standalone cache: unexpected hit/miss");
        break;
      }
      if (write) {
        t0 = now_s();
        cache.store(key, miss_payload);
        store_s += now_s() - t0;
        ++stores;
      }
    }
    lookup_us.push_back(lookup_s * 1e6 / static_cast<double>(keys.size()));
    store_us.push_back(store_s * 1e6 /
                       static_cast<double>(std::max<std::size_t>(stores, 1)));
  }

  // run_job on a private Device for the stream's writes, in the remaining
  // budget (at least a few jobs).
  std::vector<double> run_job_ms;
  {
    Device dev(spec);
    const ResiliencePolicy policy = PoolConfig{}.policy;
    for (const auto& [req, write] : stream) {
      if (!write) continue;
      if (run_job_ms.size() >= 5 && now_s() - start > 0.95 * budget_s) break;
      const double t0 = now_s();
      const JobOutcome out = run_job(dev, req, policy);
      run_job_ms.push_back((now_s() - t0) * 1e3);
      ++r.attempted;
      if (out.status != Status::kSuccess) r.fail("run_job: " + out.error);
    }
  }

  note("serve_mix: %zu hits (p50 %.4f ms), %zu misses (p50 %.3f ms); "
       "server-side p50s below are approximate (x2 log buckets)",
       hit_s.size(), median(hit_s) * 1e3, miss_s.size(), median(miss_s) * 1e3);
  r.add("serve_mix.serve.protocol_us", protocol_us, "us");
  r.add("serve_mix.serve.cache_key_us", key_us, "us");
  r.add("serve_mix.serve.cache_lookup_us", median(lookup_us), "us");
  r.add("serve_mix.serve.cache_store_us", median(store_us), "us");
  r.add("serve_mix.serve.run_job_ms", median(run_job_ms), "ms");
  r.add("serve_mix.serve.client_hit_ms", median(hit_s) * 1e3, "ms");
  r.add("serve_mix.serve.client_miss_ms", median(miss_s) * 1e3, "ms");
  r.add("serve_mix.serve.approx.queue_wait_p50_ms", queue_p50 * 1e3, "ms");
  r.add("serve_mix.serve.approx.simulate_p50_ms", sim_p50 * 1e3, "ms");
  r.add("serve_mix.serve.hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  r.add("serve_mix.serve.rejected", rejected, "count");
  r.add("serve_mix.resil.retries", retries, "count");
}

}  // namespace perfbench
