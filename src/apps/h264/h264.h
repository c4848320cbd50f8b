// H.264 — full-search motion estimation (the extracted kernel) plus the
// serial encoder remainder.
//
// The paper's H.264 port required "a large-scale code transformation to
// extract the motion estimation kernel from non-parallel application code",
// and is the suite's cautionary transfer-cost tale: it "spends more time in
// data transfer than GPU execution" (Table 3), because every frame must
// cross the PCIe link.  We reproduce that structure:
//   - GPU kernel: one thread block per 16x16 macroblock, one thread per
//     candidate motion vector in a +/-8 full-search window; current block
//     and reference window staged through shared memory; block-wide
//     min-reduction picks the best SAD;
//   - serial host code: motion compensation, residual, 4x4 Hadamard-style
//     transform and quantization (the unported encoder path).
#pragma once

#include <cstdint>
#include <vector>

#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

inline constexpr int kMb = 16;        // macroblock size
inline constexpr int kSearch = 8;     // +/- search range
inline constexpr int kWindow = 2 * kSearch + kMb - 1;  // 31: staged ref extent
inline constexpr int kCandidates = (2 * kSearch) * (2 * kSearch);  // 256

struct H264Workload {
  int width = 0, height = 0;  // multiples of kMb
  std::vector<std::int32_t> cur, ref;  // luma planes, row-major
  std::vector<int> true_mvx, true_mvy;  // planted motion per macroblock

  int mbs_x() const { return width / kMb; }
  int mbs_y() const { return height / kMb; }
  int num_mbs() const { return mbs_x() * mbs_y(); }
  static int mbs_x_of(int width) { return width / kMb; }
  static int mbs_y_of(int height) { return height / kMb; }

  static H264Workload generate(int width, int height, std::uint64_t seed);
};

struct H264Motion {
  std::int32_t best_sad = 0;
  std::int32_t best_cand = 0;  // candidate index; mv = decode_mv(best_cand)

  static std::pair<int, int> decode_mv(int cand) {
    return {cand % (2 * kSearch) - kSearch, cand / (2 * kSearch) - kSearch};
  }
};

// CPU reference full search (identical candidate ordering and tie-breaking:
// lowest SAD, then lowest candidate index).
void h264_me_cpu(const H264Workload& w, std::vector<H264Motion>& motion);

// Serial encoder remainder: residual + 4x4 transform + quantization; returns
// a checksum so the work is observable.  Shared by CPU and GPU paths.
std::uint64_t h264_encode_residual_cpu(const H264Workload& w,
                                       const std::vector<H264Motion>& motion);

struct H264MeKernel {
  int width = 0, height = 0;
  // §5.2's shared-memory buffering knob (bench/ablation_staging): when
  // false, every SAD term reads the frames straight from global memory —
  // 512 scattered global loads per candidate instead of two staged tiles.
  bool stage_in_shared = true;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<std::int32_t>& cur,
                  DeviceBuffer<std::int32_t>& ref,
                  DeviceBuffer<std::int32_t>& out_sad,
                  DeviceBuffer<std::int32_t>& out_cand) const {
    auto Cur = ctx.global(cur);
    auto Ref = ctx.global(ref);
    auto OutSad = ctx.global(out_sad);
    auto OutCand = ctx.global(out_cand);

    auto cur_sh = ctx.template shared<std::int32_t>(kMb * kMb);
    auto ref_sh = ctx.template shared<std::int32_t>(kWindow * kWindow);
    auto red_sad = ctx.template shared<std::int32_t>(kCandidates);
    auto red_idx = ctx.template shared<std::int32_t>(kCandidates);

    ctx.ialu(6);
    const int tid = static_cast<int>(ctx.thread_idx().x);
    const int mbx = static_cast<int>(ctx.block_idx().x);
    const int mby = static_cast<int>(ctx.block_idx().y);
    const int mb_px = mbx * kMb;  // macroblock origin in the frame
    const int mb_py = mby * kMb;

    // --- Stage the current macroblock and reference window (skippable for
    // the §5.2 buffering ablation) ---
    if (stage_in_shared) {
      {
        ctx.ialu(4);
        const int lx = tid % kMb, ly = tid / kMb;
        cur_sh.st(static_cast<std::size_t>(tid),
                  Cur.ld(static_cast<std::size_t>(mb_py + ly) * width + mb_px + lx));
      }
      // Reference window is 31x31, clamped at frame edges.
      for (int base = tid; base < kWindow * kWindow; base += kCandidates) {
        ctx.ialu(6);
        const int wx = base % kWindow, wy = base / kWindow;
        const int fx = clampi(mb_px - kSearch + wx, 0, width - 1);
        const int fy = clampi(mb_py - kSearch + wy, 0, height - 1);
        ref_sh.st(static_cast<std::size_t>(base),
                  Ref.ld(static_cast<std::size_t>(fy) * width + fx));
        ctx.loop_branch();
      }
    }
    ctx.sync();

    // --- Each thread: SAD of its candidate displacement ---
    ctx.ialu(3);
    const int dx = tid % (2 * kSearch);  // window offset 0..15 => mv -8..7
    const int dy = tid / (2 * kSearch);
    std::int32_t sad = 0;
    for (int y = 0; y < kMb; ++y) {
      for (int x = 0; x < kMb; ++x) {
        ctx.ialu(4);  // addressing + abs-diff accumulate
        std::int32_t a, b;
        if (stage_in_shared) {
          a = cur_sh.ld(static_cast<std::size_t>(y) * kMb + x);
          b = ref_sh.ld(static_cast<std::size_t>(dy + y) * kWindow + dx + x);
        } else {
          ctx.ialu(4);
          a = Cur.ld(static_cast<std::size_t>(mb_py + y) * width + mb_px + x);
          const int fx = clampi(mb_px - kSearch + dx + x, 0, width - 1);
          const int fy = clampi(mb_py - kSearch + dy + y, 0, height - 1);
          b = Ref.ld(static_cast<std::size_t>(fy) * width + fx);
        }
        sad += a > b ? a - b : b - a;
        ctx.loop_branch();
      }
    }
    red_sad.st(static_cast<std::size_t>(tid), sad);
    red_idx.st(static_cast<std::size_t>(tid), tid);
    ctx.sync();

    // --- Block-wide min reduction (lexicographic on (sad, index)) ---
    for (int stride = kCandidates / 2; stride > 0; stride /= 2) {
      ctx.ialu(2);
      if (ctx.branch(tid < stride)) {
        const std::int32_t s0 = red_sad.ld(static_cast<std::size_t>(tid));
        const std::int32_t s1 =
            red_sad.ld(static_cast<std::size_t>(tid) + stride);
        const std::int32_t i0 = red_idx.ld(static_cast<std::size_t>(tid));
        const std::int32_t i1 =
            red_idx.ld(static_cast<std::size_t>(tid) + stride);
        ctx.ialu(3);
        if (s1 < s0 || (s1 == s0 && i1 < i0)) {
          red_sad.st(static_cast<std::size_t>(tid), s1);
          red_idx.st(static_cast<std::size_t>(tid), i1);
        }
      }
      ctx.sync();
      ctx.loop_branch();
    }
    if (ctx.branch(tid == 0)) {
      ctx.ialu(2);
      const std::size_t mb = static_cast<std::size_t>(mby) *
                                 static_cast<std::size_t>(width / kMb) +
                             mbx;
      OutSad.st(mb, red_sad.ld(0));
      OutCand.st(mb, red_idx.ld(0));
    }
  }

  static int clampi(int v, int lo, int hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  }
};

class H264App : public App {
 public:
  // The motion-estimation kernel's only global stores are thread 0's
  // post-reduction writes of the winning (SAD, candidate) pair.
  H264App() : App("h264", {0}, 2) {}
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale,
                const LaunchOptions& base = {}) const override;
  CampaignRun launch_campaign(Device& dev,
                              const LaunchOptions& base) const override;
};

}  // namespace g80::apps
