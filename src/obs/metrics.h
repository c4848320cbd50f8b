// g80obs metrics registry: named counters, gauges, and log-bucketed latency
// histograms for the serving stack, following the paper's measurement-first
// discipline (§4/§5 back every claim with counters) at the request layer.
//
// Design constraints, in order:
//   1. The *update* path must be lock-cheap: a counter increment or a
//      histogram observation is one relaxed atomic RMW on a per-thread
//      shard — no mutex, no allocation, no syscall — so instrumenting the
//      daemon's hot request path costs nanoseconds whether or not anyone
//      ever scrapes.  (bench/obs_overhead gates this end to end.)
//   2. The *scrape* path (snapshot()) may be arbitrarily slow: it walks all
//      shards, sums them, and samples callback gauges under the registry
//      mutex.  Scrapes are rare (a monitoring poll), updates are not.
//   3. Scrapes never reset: counters and histograms are cumulative, in the
//      Prometheus style, so concurrent scrapers see consistent monotonic
//      series and a missed scrape loses nothing.  reset() exists for tests
//      and zeroes counters/histograms (callback gauges re-sample, set
//      gauges keep their last value — they are instantaneous, not
//      cumulative).
//
// Handle lifetime: counter()/gauge()/histogram() return stable pointers
// owned by the registry (same name => same handle), valid until the
// registry is destroyed.  Handles are safe to use from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace g80::obs {

// Shard count for counters and histogram bucket rows.  Each thread hashes
// to one shard (round-robin at first touch), so concurrent writers mostly
// touch distinct cache lines.
inline constexpr std::size_t kMetricShards = 16;

namespace detail {
// One cache line per shard so two hot threads never false-share.
struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};
// This thread's shard index (assigned round-robin on first use).
std::size_t this_thread_shard();
}  // namespace detail

// Monotonic counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    shards_[detail::this_thread_shard()].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  detail::PaddedU64 shards_[kMetricShards];
};

// Instantaneous signed value (queue depth, bytes outstanding).  set() is a
// plain store, add() an RMW; both relaxed — gauges are sampled, not summed.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Log-bucketed histogram for latency-like quantities spanning orders of
// magnitude.  Bucket layout comes from common/stats.h's LogBuckets; counts
// are relaxed atomics, the sum accumulates in integer nanounits so observe()
// needs no CAS loop and totals stay exact under concurrency.
class LatencyHistogram {
 public:
  // Default layout: 1 µs first bucket, ×2 growth, 28 buckets — covers
  // 1 µs .. ~134 s with the last bucket open-ended.
  explicit LatencyHistogram(LogBuckets layout = LogBuckets(1e-6, 2.0, 28));

  void observe(double v) {
    counts_[layout_.index_for(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Nanounit integer accumulation: exact, order-independent, atomic.
    sum_nano_.fetch_add(static_cast<std::uint64_t>(v * 1e9 + 0.5),
                        std::memory_order_relaxed);
  }

  const LogBuckets& layout() const { return layout_; }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const {
    return static_cast<double>(sum_nano_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  std::vector<std::uint64_t> bucket_counts() const;
  double quantile(double q) const;
  void reset();

 private:
  LogBuckets layout_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_nano_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

// One scraped metric.  Histograms carry their bucket layout flattened into
// (upper bound, cumulative count) pairs plus precomputed quantiles, so
// exporters need no access to the live registry.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;  // counter value / sampled gauge; histogram count
  // Histogram-only fields.
  std::uint64_t count = 0;
  double sum = 0;
  double p50 = 0, p90 = 0, p99 = 0;
  std::vector<std::pair<double, std::uint64_t>> buckets;  // (le, cumulative)
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  const MetricSample* find(std::string_view name) const;
  // Convenience: counter/gauge value by name, 0 when absent.
  double value(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent by name: re-registering returns the existing handle.
  // Registering a name under a different kind throws g80::Error (a metric
  // name means one thing).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  LatencyHistogram* histogram(const std::string& name,
                              LogBuckets layout = LogBuckets(1e-6, 2.0, 28));
  // Gauge whose value is computed at scrape time (queue depths, ledger
  // totals): zero steady-state cost, the callback runs only under
  // snapshot().  The callback must be safe to invoke from any thread.
  void gauge_callback(const std::string& name,
                      std::function<std::int64_t()> fn);

  // Cumulative scrape: never resets, safe to call concurrently with
  // updates (counters are monotonic; histogram count/sum/buckets are each
  // individually consistent).
  MetricsSnapshot snapshot() const;

  // Test hook: zero all counters and histograms.
  void reset();

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> hist;
    std::function<std::int64_t()> callback;  // kGauge with no gauge ptr
  };
  Entry* find_locked(const std::string& name, MetricKind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
};

// Serializes a snapshot as the `metrics` protocol op's result payload:
//   {"metrics":[{"name":..,"kind":"counter","value":N},
//               {"name":..,"kind":"histogram","count":N,"sum":S,
//                "p50":..,"p90":..,"p99":..,"buckets":[[le,cum],...]},...]}
std::string metrics_json(const MetricsSnapshot& snap);

}  // namespace g80::obs
