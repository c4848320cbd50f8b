#include "apps/h264/h264.h"

#include <cmath>

#include "common/measure.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/cpu_calibration.h"

namespace g80::apps {

H264Workload H264Workload::generate(int width, int height, std::uint64_t seed) {
  SplitMix64 rng(seed);
  H264Workload w;
  w.width = width;
  w.height = height;
  w.ref.resize(static_cast<std::size_t>(width) * height);
  w.cur.resize(w.ref.size());

  // Reference frame: smooth gradients plus texture noise (so SADs are
  // informative rather than flat).
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const double v = 96.0 + 50.0 * std::sin(x * 0.11) * std::cos(y * 0.07) +
                       30.0 * rng.next_double();
      w.ref[static_cast<std::size_t>(y) * width + x] =
          static_cast<std::int32_t>(v);
    }
  }
  // Current frame: each macroblock is the reference shifted by a planted
  // motion vector, plus mild noise.
  w.true_mvx.resize(w.num_mbs());
  w.true_mvy.resize(w.num_mbs());
  for (int mby = 0; mby < H264Workload::mbs_y_of(height); ++mby) {
    for (int mbx = 0; mbx < H264Workload::mbs_x_of(width); ++mbx) {
      const int mvx = static_cast<int>(rng.next_below(2 * kSearch)) - kSearch;
      const int mvy = static_cast<int>(rng.next_below(2 * kSearch)) - kSearch;
      w.true_mvx[static_cast<std::size_t>(mby) * H264Workload::mbs_x_of(width) + mbx] = mvx;
      w.true_mvy[static_cast<std::size_t>(mby) * H264Workload::mbs_x_of(width) + mbx] = mvy;
      for (int y = 0; y < kMb; ++y) {
        for (int x = 0; x < kMb; ++x) {
          const int fx = H264MeKernel::clampi(mbx * kMb + x + mvx, 0, width - 1);
          const int fy = H264MeKernel::clampi(mby * kMb + y + mvy, 0, height - 1);
          const auto noise = static_cast<std::int32_t>(rng.next_below(3));
          w.cur[static_cast<std::size_t>(mby * kMb + y) * width + mbx * kMb + x] =
              w.ref[static_cast<std::size_t>(fy) * width + fx] + noise;
        }
      }
    }
  }
  return w;
}

void h264_me_cpu(const H264Workload& w, std::vector<H264Motion>& motion) {
  motion.assign(w.num_mbs(), {});
  for (int mby = 0; mby < w.mbs_y(); ++mby) {
    for (int mbx = 0; mbx < w.mbs_x(); ++mbx) {
      std::int32_t best_sad = INT32_MAX;
      std::int32_t best_cand = 0;
      for (int cand = 0; cand < kCandidates; ++cand) {
        const auto [mvx, mvy] = H264Motion::decode_mv(cand);
        std::int32_t sad = 0;
        for (int y = 0; y < kMb; ++y) {
          for (int x = 0; x < kMb; ++x) {
            const std::int32_t a =
                w.cur[static_cast<std::size_t>(mby * kMb + y) * w.width +
                      mbx * kMb + x];
            const int fx =
                H264MeKernel::clampi(mbx * kMb + x + mvx, 0, w.width - 1);
            const int fy =
                H264MeKernel::clampi(mby * kMb + y + mvy, 0, w.height - 1);
            const std::int32_t b =
                w.ref[static_cast<std::size_t>(fy) * w.width + fx];
            sad += a > b ? a - b : b - a;
          }
        }
        if (sad < best_sad) {
          best_sad = sad;
          best_cand = cand;
        }
      }
      motion[static_cast<std::size_t>(mby) * w.mbs_x() + mbx] = {best_sad,
                                                                 best_cand};
    }
  }
}

std::uint64_t h264_encode_residual_cpu(const H264Workload& w,
                                       const std::vector<H264Motion>& motion) {
  // Serial remainder: motion compensation, residual, 4x4 Hadamard-ish
  // transform, dead-zone quantization, checksum.
  std::uint64_t checksum = 0;
  std::int32_t res[kMb][kMb];
  for (int mb = 0; mb < w.num_mbs(); ++mb) {
    const int mbx = mb % w.mbs_x(), mby = mb / w.mbs_x();
    const auto [mvx, mvy] = H264Motion::decode_mv(motion[mb].best_cand);
    for (int y = 0; y < kMb; ++y) {
      for (int x = 0; x < kMb; ++x) {
        const int fx = H264MeKernel::clampi(mbx * kMb + x + mvx, 0, w.width - 1);
        const int fy = H264MeKernel::clampi(mby * kMb + y + mvy, 0, w.height - 1);
        res[y][x] =
            w.cur[static_cast<std::size_t>(mby * kMb + y) * w.width +
                  mbx * kMb + x] -
            w.ref[static_cast<std::size_t>(fy) * w.width + fx];
      }
    }
    // 4x4 horizontal+vertical butterfly per sub-block, then quantize.
    for (int by = 0; by < kMb; by += 4) {
      for (int bx = 0; bx < kMb; bx += 4) {
        for (int y = 0; y < 4; ++y) {
          const std::int32_t a = res[by + y][bx], b = res[by + y][bx + 1],
                             c = res[by + y][bx + 2], d = res[by + y][bx + 3];
          res[by + y][bx] = a + b + c + d;
          res[by + y][bx + 1] = a - b + c - d;
          res[by + y][bx + 2] = a + b - c - d;
          res[by + y][bx + 3] = a - b - c + d;
        }
        for (int x = 0; x < 4; ++x) {
          const std::int32_t a = res[by][bx + x], b = res[by + 1][bx + x],
                             c = res[by + 2][bx + x], d = res[by + 3][bx + x];
          res[by][bx + x] = (a + b + c + d) / 8;
          res[by + 1][bx + x] = (a - b + c - d) / 8;
          res[by + 2][bx + x] = (a + b - c - d) / 8;
          res[by + 3][bx + x] = (a - b - c + d) / 8;
        }
      }
    }
    for (int y = 0; y < kMb; ++y)
      for (int x = 0; x < kMb; ++x)
        checksum = checksum * 1099511628211ull ^
                   static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(res[y][x]));
  }
  return checksum;
}

AppInfo H264App::info() const {
  return AppInfo{
      .name = "H.264",
      .description = "full-search motion estimation kernel + serial encoder "
                     "remainder",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "CPU-GPU transfer: \"spends more time in data "
                          "transfer than GPU execution\" (Table 3)",
      .paper_kernel_speedup = std::nullopt,
      .paper_app_speedup = std::nullopt,
  };
}

namespace {

// The GPU port: upload both frames, one block per macroblock and one thread
// per candidate, read back each macroblock's winning (SAD, candidate).
LaunchStats h264_gpu(Device& dev, const H264Workload& w,
                     const LaunchOptions& base, std::vector<std::int32_t>& sad,
                     std::vector<std::int32_t>& cand) {
  auto d_cur = dev.alloc<std::int32_t>(w.cur.size());
  auto d_ref = dev.alloc<std::int32_t>(w.ref.size());
  d_cur.copy_from_host(w.cur);
  d_ref.copy_from_host(w.ref);
  auto d_sad = dev.alloc<std::int32_t>(w.num_mbs());
  auto d_cand = dev.alloc<std::int32_t>(w.num_mbs());

  const Dim3 block(kCandidates);
  const Dim3 grid(static_cast<unsigned>(w.mbs_x()),
                  static_cast<unsigned>(w.mbs_y()));
  const auto stats = launch(dev, grid, block,
                            app_launch_options(base, 15, true),
                            H264MeKernel{w.width, w.height}, d_cur, d_ref,
                            d_sad, d_cand);
  sad = d_sad.copy_to_host();
  cand = d_cand.copy_to_host();
  return stats;
}

}  // namespace

AppResult H264App::run(const DeviceSpec& spec, RunScale scale,
                      const LaunchOptions& base) const {
  Device dev(spec);
  const int width = scale == RunScale::kQuick ? 64 : 192;
  const int height = scale == RunScale::kQuick ? 48 : 128;
  const auto w = H264Workload::generate(width, height, /*seed=*/91);

  AppResult r;
  r.info = info();

  // --- CPU baseline: full search (kernel) + residual path (serial) ---
  std::vector<H264Motion> motion_ref;
  const double host_me = measure_seconds([&] { h264_me_cpu(w, motion_ref); });
  std::uint64_t checksum_ref = 0;
  const double host_res = measure_seconds(
      [&] { checksum_ref = h264_encode_residual_cpu(w, motion_ref); });
  r.cpu_kernel_seconds = to_opteron_seconds(host_me);
  r.cpu_other_seconds = to_opteron_seconds(host_res);

  // --- GPU port: upload both frames, run ME kernel, read back motion ---
  dev.ledger().reset();
  std::vector<std::int32_t> sad_gpu, cand_gpu;
  accumulate_launch(r, dev.spec(), h264_gpu(dev, w, base, sad_gpu, cand_gpu));
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  // Serial remainder runs on the host in the GPU path too.
  std::vector<H264Motion> motion_gpu(w.num_mbs());
  for (int i = 0; i < w.num_mbs(); ++i)
    motion_gpu[static_cast<std::size_t>(i)] = {
        sad_gpu[static_cast<std::size_t>(i)],
        cand_gpu[static_cast<std::size_t>(i)]};
  const std::uint64_t checksum_gpu =
      h264_encode_residual_cpu(w, motion_gpu);

  // --- Validate: identical motion field and residual checksum ---
  double err = 0;
  for (int i = 0; i < w.num_mbs(); ++i) {
    if (motion_gpu[static_cast<std::size_t>(i)].best_sad !=
            motion_ref[static_cast<std::size_t>(i)].best_sad ||
        motion_gpu[static_cast<std::size_t>(i)].best_cand !=
            motion_ref[static_cast<std::size_t>(i)].best_cand)
      err = 1.0;
  }
  if (checksum_gpu != checksum_ref) err = 1.0;
  finish_validation(r, err, 0.0);
  return r;
}

CampaignRun H264App::launch_campaign(Device& dev,
                                     const LaunchOptions& base) const {
  std::vector<std::int32_t> sad, cand;
  const auto stats =
      h264_gpu(dev, H264Workload::generate(32, 32, 23), base, sad, cand);
  return {output_digest(sad, cand), stats};
}

}  // namespace g80::apps
