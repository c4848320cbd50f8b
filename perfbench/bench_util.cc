#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstring>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double probe_ns(int batches, int calls, const std::function<void()>& f) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const double t0 = now_s();
    for (int i = 0; i < calls; ++i) f();
    per_call.push_back((now_s() - t0) * 1e9 / calls);
  }
  return median(per_call);
}

double host_spin_ms() {
  // Median of five passes of a dependent integer chain the compiler cannot
  // fold: the multiplier is read through a volatile and the result is kept.
  volatile std::uint64_t mul = 6364136223846793005ull;
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = now_s();
    std::uint64_t x = 1;
    const std::uint64_t m = mul;
    for (int i = 0; i < 4'000'000; ++i) x = x * m + 1442695040888963407ull;
    asm volatile("" : : "r"(x));
    passes.push_back((now_s() - t0) * 1e3);
  }
  return median(passes);
}

double host_chase_ms() {
  // next[i] = (a*i + c) mod 2^21 is one full-period cycle (Hull-Dobell).
  constexpr std::uint32_t kN = 1u << 21;
  std::vector<std::uint32_t> next(kN);
  for (std::uint32_t i = 0; i < kN; ++i)
    next[i] = (i * 1664525u + 1013904223u) & (kN - 1);
  std::vector<double> passes;
  std::uint32_t j = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = now_s();
    for (int i = 0; i < 1'000'000; ++i) j = next[j];
    passes.push_back((now_s() - t0) * 1e3);
  }
  asm volatile("" : : "r"(j));
  return median(passes);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t digest_bytes(const void* data, std::size_t bytes,
                           std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

void Result::fail(const std::string& why) {
  if (++failed <= 5) note("FAILED: %s", why.c_str());
}

void Result::wrong(const std::string& why) {
  fail("wrong output: " + why);
  correct = false;
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.12g", v);
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void LoopSamples::merge(const LoopSamples& o) {
  latency_s.insert(latency_s.end(), o.latency_s.begin(), o.latency_s.end());
  busy_s += o.busy_s;
  wall_s = std::max(wall_s, o.wall_s);
}

void add_end_to_end(Result& r, const LoopSamples& s, double rate_s,
                    const std::vector<double>& setup_s) {
  r.attempted += s.latency_s.size();
  const auto ms = [&](double p) { return quantile(s.latency_s, p) * 1e3; };
  r.add("ops_per_s",
        rate_s > 0 ? static_cast<double>(s.latency_s.size()) / rate_s : 0,
        "1/s");
  r.add("p50_ms", ms(0.50), "ms");
  r.add("p90_ms", ms(0.90), "ms");
  r.add("setup_s", median(setup_s), "s");
  note("ops=%zu busy_s=%.3f wall_s=%.3f setups=%zu latency_ms p75=%.4f "
       "p95=%.4f p99=%.4f p99.9=%.4f max=%.4f peak_rss_mb=%.2f",
       s.latency_s.size(), s.busy_s, s.wall_s, setup_s.size(), ms(0.75),
       ms(0.95), ms(0.99), ms(0.999), ms(1.0), peak_rss_mb());
}

std::vector<double> timed_setups(int reps, const std::function<void()>& setup) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    setup();
    out.push_back(now_s() - t0);
  }
  return out;
}

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("# ", stdout);
  std::vprintf(fmt, ap);
  std::fputc('\n', stdout);
  va_end(ap);
}

}  // namespace perfbench
