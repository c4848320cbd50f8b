// Lightweight statistics accumulators used by the timing model, the
// benchmarks, and the tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace g80 {

// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Geometric (log-spaced) bucket layout for quantities that span orders of
// magnitude — request latencies in g80obs being the motivating customer.
// Bucket i covers (first_upper * growth^(i-1), first_upper * growth^i];
// values at or below first_upper land in bucket 0 and values beyond the last
// bound clamp to the final bucket, so index_for() is total.  The layout is
// pure arithmetic (no storage): callers pair it with their own count array,
// which is what lets obs::LatencyHistogram keep the counts in relaxed
// atomics.
class LogBuckets {
 public:
  // `first_upper` > 0, `growth` > 1, `n` >= 1.
  LogBuckets(double first_upper, double growth, std::size_t n);

  std::size_t buckets() const { return n_; }
  std::size_t index_for(double v) const;
  // Inclusive upper bound of bucket i ("le" in Prometheus terms); the last
  // bucket reports +infinity since it absorbs every larger sample.
  double upper_bound(std::size_t i) const;
  double lower_bound(std::size_t i) const;  // 0 for bucket 0

  // Quantile estimate from per-bucket counts laid out by this object:
  // rank-selects the target bucket, then interpolates linearly inside it.
  // `q` in [0, 1]; returns 0 when the counts sum to zero.  Deterministic —
  // the metrics-registry golden tests pin exact values.
  double quantile(const std::uint64_t* counts, std::size_t n, double q) const;

 private:
  double first_upper_;
  double growth_;
  double inv_log_growth_;
  std::size_t n_;
};

// Relative error |a-b| / max(|b|, eps); used by functional-equivalence tests.
double rel_err(double a, double b, double eps = 1e-30);

}  // namespace g80
