#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace g80 {

void RunningStat::add(double x) {
  ++n_;
  sum_ += x;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

LogBuckets::LogBuckets(double first_upper, double growth, std::size_t n)
    : first_upper_(first_upper),
      growth_(growth),
      inv_log_growth_(1.0 / std::log(growth)),
      n_(n) {
  G80_CHECK(first_upper > 0 && growth > 1 && n >= 1);
}

std::size_t LogBuckets::index_for(double v) const {
  if (!(v > first_upper_)) return 0;  // also catches NaN and negatives
  const double i = std::ceil(std::log(v / first_upper_) * inv_log_growth_);
  if (i >= static_cast<double>(n_ - 1)) return n_ - 1;
  const auto idx = static_cast<std::size_t>(i);
  // Guard the float rounding at exact bucket bounds: index_for(upper_bound(i))
  // must be i, never i+1.
  if (idx > 0 && v <= upper_bound(idx - 1)) return idx - 1;
  return idx;
}

double LogBuckets::upper_bound(std::size_t i) const {
  if (i + 1 >= n_) return std::numeric_limits<double>::infinity();
  return first_upper_ * std::pow(growth_, static_cast<double>(i));
}

double LogBuckets::lower_bound(std::size_t i) const {
  return i == 0 ? 0.0 : upper_bound(i - 1);
}

double LogBuckets::quantile(const std::uint64_t* counts, std::size_t n,
                            double q) const {
  G80_CHECK(n == n_);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += counts[i];
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [1, total]: the smallest sample index covering quantile q.
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] < rank) {
      seen += counts[i];
      continue;
    }
    // Interpolate the rank's position inside bucket i.  The open-ended last
    // bucket has no finite upper bound; report its lower bound instead of
    // inventing one.
    const double lo = lower_bound(i);
    const double hi = upper_bound(i);
    if (!std::isfinite(hi)) return lo;
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(counts[i]);
    return lo + (hi - lo) * frac;
  }
  return lower_bound(n - 1);  // unreachable: rank <= total
}

double rel_err(double a, double b, double eps) {
  return std::abs(a - b) / std::max(std::abs(b), eps);
}

}  // namespace g80
