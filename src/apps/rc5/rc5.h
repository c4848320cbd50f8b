// RC5-72 — brute-force key search (distributed.net style).
//
// Each thread tests a batch of candidate 72-bit keys: run the RC5 key
// schedule, encrypt a known plaintext, compare with the target ciphertext.
// Pure integer work with one defining quirk the paper calls out (§5.1): the
// GeForce 8800 lacks a modulus-shift (rotate) instruction, so every
// data-dependent rotate is emulated with a shift/shift/or sequence — the
// paper estimates performance "several times higher" with a native rotate,
// which bench/ablation_rotate reproduces via the native_rotate flag.
#pragma once

#include <cstdint>
#include <vector>

#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

struct Rc5Workload {
  std::uint32_t plain[2] = {0x20646557, 0x65746957};   // known plaintext
  std::uint32_t target[2] = {0, 0};                    // ciphertext to match
  std::uint64_t key_base = 0;   // low 64 bits of the key window start
  std::uint8_t key_hi = 0;      // high byte (bits 64..71), fixed per window
  std::uint32_t num_keys = 0;   // window size
  std::uint32_t planted = 0;    // offset of the hidden key (for validation)

  static Rc5Workload generate(std::uint32_t num_keys, std::uint64_t seed);
};

// Encrypts `plain` under key (key_base + offset, key_hi); used by workload
// generation, the CPU reference and (through ctx annotations) the kernel.
void rc5_encrypt_host(std::uint64_t key_lo64, std::uint8_t key_hi,
                      const std::uint32_t plain[2], std::uint32_t out[2]);

// CPU reference search: returns the matching offset (or num_keys if none)
// and fills per-key partial-match flags (low byte of ciphertext word 0).
std::uint32_t rc5_cpu(const Rc5Workload& w, std::vector<std::uint8_t>& partial);

inline constexpr int kRc5Rounds = 12;
inline constexpr int kRc5ScheduleWords = 2 * (kRc5Rounds + 1);  // 26

struct Rc5Kernel {
  Rc5Workload w;
  std::uint32_t keys_per_thread = 4;
  bool native_rotate = false;  // ablation: pretend the ISA has a rotate

  template <class Ctx>
  std::uint32_t rotl(Ctx& ctx, std::uint32_t v, std::uint32_t n) const {
    if (native_rotate) {
      ctx.ialu(1);
    } else {
      ctx.ialu(5);  // and 31, shl, sub, shr, or — the emulation sequence
    }
    n &= 31u;
    return n == 0 ? v : ((v << n) | (v >> (32u - n)));
  }

  template <class Ctx>
  void encrypt(Ctx& ctx, std::uint64_t key_lo64, std::uint8_t key_hi,
               std::uint32_t out[2]) const {
    constexpr std::uint32_t P = 0xB7E15163u, Q = 0x9E3779B9u;
    std::uint32_t L[3] = {static_cast<std::uint32_t>(key_lo64),
                          static_cast<std::uint32_t>(key_lo64 >> 32),
                          static_cast<std::uint32_t>(key_hi)};
    std::uint32_t S[kRc5ScheduleWords];
    S[0] = P;
    ctx.ialu(1);
    for (int i = 1; i < kRc5ScheduleWords; ++i) {
      S[i] = S[i - 1] + Q;
      ctx.ialu(2);
      ctx.loop_branch();
    }
    std::uint32_t A = 0, B = 0;
    int i = 0, j = 0;
    for (int k = 0; k < 3 * kRc5ScheduleWords; ++k) {
      A = S[i] = rotl(ctx, S[i] + A + B, 3);
      B = L[j] = rotl(ctx, L[j] + A + B, A + B);
      i = (i + 1) % kRc5ScheduleWords;
      j = (j + 1) % 3;
      ctx.ialu(8);  // adds + index updates
      ctx.loop_branch();
    }
    std::uint32_t a = w.plain[0] + S[0];
    std::uint32_t b = w.plain[1] + S[1];
    ctx.ialu(2);
    for (int r2 = 1; r2 <= kRc5Rounds; ++r2) {
      a = rotl(ctx, a ^ b, b) + S[2 * r2];
      b = rotl(ctx, b ^ a, a) + S[2 * r2 + 1];
      ctx.ialu(6);
      ctx.loop_branch();
    }
    out[0] = a;
    out[1] = b;
  }

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<std::uint32_t>& found,
                  DeviceBuffer<std::uint8_t>& partial) const {
    auto Found = ctx.global(found);
    auto Partial = ctx.global(partial);

    ctx.ialu(3);
    const std::uint32_t t = static_cast<std::uint32_t>(ctx.global_thread_x());
    for (std::uint32_t k = 0; k < keys_per_thread; ++k) {
      ctx.ialu(2);
      const std::uint32_t offset = t * keys_per_thread + k;
      if (!ctx.branch(offset < w.num_keys)) continue;
      std::uint32_t ct[2];
      encrypt(ctx, w.key_base + offset, w.key_hi, ct);
      // Partial-match statistics (keeps every thread's work observable).
      ctx.ialu(2);
      Partial.st(offset, static_cast<std::uint8_t>(
                             (ct[0] & 0xFFu) == (w.target[0] & 0xFFu)));
      if (ctx.branch(ct[0] == w.target[0] && ct[1] == w.target[1])) {
        Found.st(0, offset);
      }
      ctx.loop_branch();
    }
  }
};

class Rc5App : public App {
 public:
  // Per-key partial-match flag stores.
  Rc5App() : App("rc5", {0, 1, 63}, 2) {}
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale,
                const LaunchOptions& base = {}) const override;
  CampaignRun launch_campaign(Device& dev,
                              const LaunchOptions& base) const override;
};

}  // namespace g80::apps
