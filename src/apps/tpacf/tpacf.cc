#include "apps/tpacf/tpacf.h"

#include <algorithm>
#include <cmath>

#include "common/measure.h"
#include "common/rng.h"
#include "core/cpu_calibration.h"

namespace g80::apps {

TpacfWorkload TpacfWorkload::generate(int points, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TpacfWorkload w;
  w.x.resize(points);
  w.y.resize(points);
  w.z.resize(points);
  for (int i = 0; i < points; ++i) {
    // Uniform on the sphere via normalized Gaussians.
    float gx, gy, gz, n2;
    do {
      gx = static_cast<float>(rng.normal());
      gy = static_cast<float>(rng.normal());
      gz = static_cast<float>(rng.normal());
      n2 = gx * gx + gy * gy + gz * gz;
    } while (n2 < 1e-6f);
    const float inv = 1.0f / std::sqrt(n2);
    w.x[i] = gx * inv;
    w.y[i] = gy * inv;
    w.z[i] = gz * inv;
  }
  // Logarithmic angular bins from 0.01 rad to pi, expressed as descending
  // cos(theta) thresholds (bin 0 = smallest separations).
  w.bin_edges.resize(kTpacfBins - 1);
  const float lo = 0.01f, hi = static_cast<float>(M_PI);
  for (int b = 0; b < kTpacfBins - 1; ++b) {
    const float t = static_cast<float>(b + 1) / kTpacfBins;
    const float ang = lo * std::pow(hi / lo, t);
    w.bin_edges[b] = std::cos(ang);
  }
  std::sort(w.bin_edges.begin(), w.bin_edges.end(), std::greater<float>());
  return w;
}

int tpacf_bin(const std::vector<float>& edges, float dot) {
  int lo = 0, hi = kTpacfBins - 1;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (dot >= edges[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void tpacf_cpu(const TpacfWorkload& w,
               std::array<std::uint64_t, kTpacfBins>& hist) {
  hist.fill(0);
  const int n = static_cast<int>(w.x.size());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const float dot =
          w.x[i] * w.x[j] + (w.y[i] * w.y[j] + w.z[i] * w.z[j]);
      ++hist[static_cast<std::size_t>(tpacf_bin(w.bin_edges, dot))];
    }
  }
}

AppInfo TpacfApp::info() const {
  return AppInfo{
      .name = "TPACF",
      .description = "two-point angular correlation histogram of sky points",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "instruction issue (low global ratio; shared-memory "
                          "histograms avoid bank conflicts, §5.2)",
      .paper_kernel_speedup = std::nullopt,
      .paper_app_speedup = std::nullopt,
  };
}

namespace {

// The GPU port: upload the points and bin edges, one launch, read back one
// partial histogram per block.
LaunchStats tpacf_gpu(Device& dev, const TpacfWorkload& w,
                      const LaunchOptions& base,
                      std::vector<unsigned>& partials) {
  const int points = static_cast<int>(w.x.size());
  auto dx = dev.alloc<float>(points);
  auto dy = dev.alloc<float>(points);
  auto dz = dev.alloc<float>(points);
  dx.copy_from_host(w.x);
  dy.copy_from_host(w.y);
  dz.copy_from_host(w.z);
  auto de = dev.alloc_constant<float>(w.bin_edges.size());
  de.copy_from_host(w.bin_edges);

  const unsigned num_blocks =
      (points + kTpacfBlockThreads - 1) / kTpacfBlockThreads;
  auto dhist = dev.alloc<unsigned>(static_cast<std::size_t>(num_blocks) *
                                   kTpacfBins);
  const auto stats = launch(
      dev, Dim3(num_blocks), Dim3(kTpacfBlockThreads),
      app_launch_options(base, 14, true),
      TpacfKernel{points, TpacfHistLayout::kBinMajor}, dx, dy, dz, de, dhist);
  partials = dhist.copy_to_host();
  return stats;
}

}  // namespace

AppResult TpacfApp::run(const DeviceSpec& spec, RunScale scale,
                        const LaunchOptions& base) const {
  Device dev(spec);
  const int points = scale == RunScale::kQuick ? 512 : 4096;
  const auto w = TpacfWorkload::generate(points, /*seed=*/31);

  AppResult r;
  r.info = info();

  std::array<std::uint64_t, kTpacfBins> hist_ref{};
  const double host_secs = measure_seconds([&] { tpacf_cpu(w, hist_ref); });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;

  dev.ledger().reset();
  std::vector<unsigned> partials;
  const auto stats = tpacf_gpu(dev, w, base, partials);

  // Host-side merge of per-block partial histograms (the serial tail).
  Timer merge_timer;
  std::array<std::uint64_t, kTpacfBins> hist_gpu{};
  for (std::size_t i = 0; i < partials.size(); ++i)
    hist_gpu[i % kTpacfBins] += partials[i];
  r.cpu_other_seconds = to_opteron_seconds(merge_timer.seconds());

  accumulate_launch(r, dev.spec(), stats);
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  // Histograms are integer counts: require exact equality.
  double err = 0;
  for (int k = 0; k < kTpacfBins; ++k) {
    if (hist_gpu[static_cast<std::size_t>(k)] !=
        hist_ref[static_cast<std::size_t>(k)])
      err = 1.0;
  }
  finish_validation(r, err, 0.0);
  return r;
}

CampaignRun TpacfApp::launch_campaign(Device& dev,
                                      const LaunchOptions& base) const {
  std::vector<unsigned> partials;
  const auto stats =
      tpacf_gpu(dev, TpacfWorkload::generate(128, 17), base, partials);
  return {output_digest(partials), stats};
}

}  // namespace g80::apps
