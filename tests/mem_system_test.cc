// Tests for the shared-memory bank-conflict analyzer, the constant-cache
// broadcast model, the texture cache and the DRAM model.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "hw/device_spec.h"
#include "mem/bank_conflict.h"
#include "mem/coalescing.h"
#include "mem/const_cache.h"
#include "mem/dram.h"
#include "mem/texture_cache.h"

namespace g80 {
namespace {

const DeviceSpec kSpec = DeviceSpec::geforce_8800_gtx();

WarpAccess lanes_with_words(std::initializer_list<std::uint64_t> words) {
  WarpAccess w;
  for (std::uint64_t word : words) w.push_back({word * 4, 4, 0, true});
  while (w.size() < 16) w.push_back({0, 4, 0, false});
  return w;
}

// ---- Shared-memory banks ------------------------------------------------------

TEST(BankConflict, SequentialWordsConflictFree) {
  WarpAccess w(16);
  for (int k = 0; k < 16; ++k) w[k] = {static_cast<std::uint64_t>(4 * k), 4, 0, true};
  const auto r = analyze_shared_half_warp(kSpec, w.data(), 16);
  EXPECT_EQ(r.serialization, 1);
  EXPECT_FALSE(r.broadcast);
}

TEST(BankConflict, SameWordBroadcasts) {
  WarpAccess w(16);
  for (int k = 0; k < 16; ++k) w[k] = {128, 4, 0, true};
  const auto r = analyze_shared_half_warp(kSpec, w.data(), 16);
  EXPECT_EQ(r.serialization, 1);
  EXPECT_TRUE(r.broadcast);
}

TEST(BankConflict, StrideTwoGivesTwoWay) {
  // Words 0,2,4,...,30: banks 0,2,...,14 each hit twice with distinct words.
  WarpAccess w(16);
  for (int k = 0; k < 16; ++k) w[k] = {static_cast<std::uint64_t>(8 * k), 4, 0, true};
  EXPECT_EQ(analyze_shared_half_warp(kSpec, w.data(), 16).serialization, 2);
}

TEST(BankConflict, StrideSixteenIsWorstCase) {
  // All 16 lanes in bank 0 with distinct words: 16-way serialization.
  WarpAccess w(16);
  for (int k = 0; k < 16; ++k) w[k] = {static_cast<std::uint64_t>(64 * k), 4, 0, true};
  EXPECT_EQ(analyze_shared_half_warp(kSpec, w.data(), 16).serialization, 16);
}

TEST(BankConflict, OddStrideConflictFree) {
  // Classic fix: any odd word stride is conflict-free across 16 banks.
  for (int stride : {1, 3, 5, 7, 9, 11, 13, 15, 17}) {
    WarpAccess w(16);
    for (int k = 0; k < 16; ++k)
      w[k] = {static_cast<std::uint64_t>(4 * stride * k), 4, 0, true};
    EXPECT_EQ(analyze_shared_half_warp(kSpec, w.data(), 16).serialization, 1)
        << "stride " << stride;
  }
}

TEST(BankConflict, EvenStridesConflict) {
  for (int stride : {2, 4, 8, 16}) {
    WarpAccess w(16);
    for (int k = 0; k < 16; ++k)
      w[k] = {static_cast<std::uint64_t>(4 * stride * k), 4, 0, true};
    EXPECT_GT(analyze_shared_half_warp(kSpec, w.data(), 16).serialization, 1)
        << "stride " << stride;
  }
}

TEST(BankConflict, PartialBroadcastStillConflicts) {
  // 15 lanes on word 0, one lane on word 16 (same bank, different word):
  // two passes.
  auto w = lanes_with_words({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16});
  const auto r = analyze_shared_half_warp(kSpec, w.data(), 16);
  EXPECT_EQ(r.serialization, 2);
  EXPECT_FALSE(r.broadcast);
}

TEST(BankConflict, WarpCostSumsHalfWarps) {
  WarpAccess w(32);
  for (int k = 0; k < 16; ++k)
    w[k] = {static_cast<std::uint64_t>(4 * k), 4, 0, true};  // clean
  for (int k = 16; k < 32; ++k)
    w[k] = {static_cast<std::uint64_t>(64 * (k - 16)), 4, 0, true};  // 16-way
  const auto cost = analyze_shared_warp(kSpec, w);
  EXPECT_EQ(cost.passes, 1 + 16);
  EXPECT_EQ(cost.extra_passes, (1 - 1) + (16 - 1));
}

TEST(BankConflict, Float2SpansTwoBanks) {
  // 8-byte accesses at stride 8 touch banks (2k, 2k+1): conflict-free for a
  // half-warp only up to 8 lanes; 16 lanes wrap and collide with distinct
  // words -> 2-way.
  WarpAccess w(16);
  for (int k = 0; k < 16; ++k)
    w[k] = {static_cast<std::uint64_t>(8 * k), 8, 0, true};
  EXPECT_EQ(analyze_shared_half_warp(kSpec, w.data(), 16).serialization, 2);
}

// The SoA analyzer (conflict-free fast path for power-of-two bank counts
// <= 64, counter table otherwise, per-bank sets beyond 64 banks) must agree
// with the AoS reference on every row.  Address shapes: stride-1, broadcast,
// clustered words (forcing clashes), random strides and random words.
TEST(BankConflict, SoaMatchesReferenceOnRandomRows) {
  SplitMix64 rng(0x5eedba4c);
  for (const int banks : {16, 12, 128}) {
    SCOPED_TRACE(::testing::Message() << banks << " banks");
    DeviceSpec spec = kSpec;
    spec.shared_mem_banks = banks;
    int conflict_free = 0, conflicted = 0;
    for (int iter = 0; iter < 4000; ++iter) {
      const std::uint32_t size = 4u << rng.next_below(3);  // 4, 8, 16
      const int lanes = rng.next_below(4) == 0
                            ? 1 + static_cast<int>(rng.next_below(32))
                            : 32;
      std::uint32_t mask = 0;
      switch (rng.next_below(4)) {
        case 0: mask = ~0u; break;
        case 1: mask = 0xFFFFu << (16 * rng.next_below(2)); break;
        default: mask = static_cast<std::uint32_t>(rng.next_u64()); break;
      }
      if (lanes < 32) mask &= (1u << lanes) - 1u;

      const std::uint64_t base = 4 * rng.next_below(1 << 12);
      const int shape = static_cast<int>(rng.next_below(5));
      const std::uint64_t stride = 4 * (1 + rng.next_below(33));
      const std::uint64_t cluster = 1 + rng.next_below(3 * banks);
      std::uint64_t addrs[32];
      WarpAccess ref(static_cast<std::size_t>(lanes));
      for (int k = 0; k < lanes; ++k) {
        const std::uint64_t kk = static_cast<std::uint64_t>(k);
        switch (shape) {
          case 0: addrs[k] = base + kk * size; break;  // stride-1
          case 1: addrs[k] = base; break;              // broadcast
          case 2: addrs[k] = base + 4 * rng.next_below(cluster); break;
          case 3: addrs[k] = base + kk * stride; break;
          default: addrs[k] = 4 * rng.next_below(1 << 16); break;
        }
        const bool active = (mask >> k & 1u) != 0;
        // Inactive lanes keep their address: the SoA path must ignore it.
        ref[static_cast<std::size_t>(k)] = {addrs[k], size, 0, active};
      }
      const WarpBankCost want = analyze_shared_warp(spec, ref);
      const WarpBankCost got =
          analyze_shared_warp_soa(spec, SoaWarpAccess{mask, size, addrs, lanes});
      ASSERT_EQ(got.passes, want.passes)
          << "iter " << iter << " shape " << shape << " size " << size;
      ASSERT_EQ(got.extra_passes, want.extra_passes)
          << "iter " << iter << " shape " << shape << " size " << size;
      if (want.passes > 0) ++(want.extra_passes == 0 ? conflict_free : conflicted);
    }
    // Both the conflict-free exit and the clash fall-through were exercised.
    EXPECT_GT(conflict_free, 200);
    EXPECT_GT(conflicted, 200);
  }
}

// ---- Constant cache -----------------------------------------------------------

TEST(ConstCache, UniformAddressBroadcasts) {
  WarpAccess w(16);
  for (int k = 0; k < 16; ++k) w[k] = {1024, 4, 0, true};
  const auto r = analyze_const_half_warp(kSpec, w.data(), 16);
  EXPECT_TRUE(r.broadcast);
  EXPECT_EQ(r.serialization, 1);
}

TEST(ConstCache, DistinctAddressesSerialize) {
  WarpAccess w(16);
  for (int k = 0; k < 16; ++k) w[k] = {static_cast<std::uint64_t>(4 * k), 4, 0, true};
  const auto r = analyze_const_half_warp(kSpec, w.data(), 16);
  EXPECT_FALSE(r.broadcast);
  EXPECT_EQ(r.serialization, 16);
}

TEST(ConstCache, PartialDivergenceCostsDistinctCount) {
  auto w = lanes_with_words({0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3});
  EXPECT_EQ(analyze_const_half_warp(kSpec, w.data(), 16).serialization, 4);
}

TEST(ConstCache, WarpExtraPasses) {
  WarpAccess w(32);
  for (int k = 0; k < 32; ++k) w[k] = {static_cast<std::uint64_t>(k < 16 ? 0 : 4 * k), 4, 0, true};
  const auto cost = analyze_const_warp(kSpec, w);
  EXPECT_EQ(cost.passes, 1 + 16);
  EXPECT_EQ(cost.extra_passes, (1 - 1) + (16 - 1));
}

// ---- Random SoA rows against the AoS analyzers --------------------------------

// One random trace-arena row and its AoS expansion (inactive lanes keep
// their address, which the SoA analyzers must ignore).  Shapes: aligned
// stride-1 (coalescable), misaligned stride-1, broadcast, a few clustered
// words, a random stride, random words.  Partial warps and sparse masks
// throughout; `max_size_log2` > 2 adds widths beyond 16 bytes.
struct RandomRow {
  std::uint32_t size = 4;
  int lanes = 32;
  std::uint32_t mask = 0;
  std::uint64_t addrs[32] = {};
  WarpAccess aos;
  int shape = 0;

  SoaWarpAccess soa() const { return SoaWarpAccess{mask, size, addrs, lanes}; }
};

RandomRow random_row(SplitMix64& rng, int max_size_log2) {
  RandomRow r;
  r.size = 4u << rng.next_below(static_cast<std::uint64_t>(max_size_log2) + 1);
  if (r.size > 16 && rng.next_below(4) != 0) r.size = 4;
  r.lanes = rng.next_below(4) == 0 ? 1 + static_cast<int>(rng.next_below(32))
                                   : 32;
  switch (rng.next_below(4)) {
    case 0: r.mask = ~0u; break;
    case 1: r.mask = 0xFFFFu << (16 * rng.next_below(2)); break;
    default: r.mask = static_cast<std::uint32_t>(rng.next_u64()); break;
  }
  if (r.lanes < 32) r.mask &= (1u << r.lanes) - 1u;
  r.shape = static_cast<int>(rng.next_below(6));
  const std::uint64_t seg = 16ull * r.size;
  const std::uint64_t base = r.shape == 0 ? seg * rng.next_below(1 << 8)
                                          : 4 * rng.next_below(1 << 12);
  const std::uint64_t stride = 4 * (1 + rng.next_below(33));
  const std::uint64_t cluster = 1 + rng.next_below(4);
  r.aos.resize(static_cast<std::size_t>(r.lanes));
  for (int k = 0; k < r.lanes; ++k) {
    const std::uint64_t kk = static_cast<std::uint64_t>(k) % 16;
    std::uint64_t& a = r.addrs[k];
    switch (r.shape) {
      case 0:
      case 1: a = base + kk * r.size; break;
      case 2: a = base; break;
      case 3: a = base + 4 * rng.next_below(cluster); break;
      case 4: a = base + kk * stride; break;
      default: a = 4 * rng.next_below(1 << 16); break;
    }
    r.aos[static_cast<std::size_t>(k)] = {a, r.size, 0,
                                          (r.mask >> k & 1u) != 0};
  }
  return r;
}

TEST(Coalescing, SoaMatchesReferenceOnRandomRows) {
  SplitMix64 rng(0xc0a1e5ce);
  int coalesced = 0, serialized = 0, giant = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    const RandomRow r = random_row(rng, 6);
    const CoalesceResult want = analyze_warp(kSpec, r.aos);
    const CoalesceResult got = analyze_warp_soa(kSpec, r.soa());
    const auto where = ::testing::Message()
                       << "iter " << iter << " shape " << r.shape << " size "
                       << r.size << " mask " << r.mask;
    ASSERT_EQ(got.transactions, want.transactions) << where;
    ASSERT_EQ(got.dram_bytes, want.dram_bytes) << where;
    ASSERT_EQ(got.scattered_bytes, want.scattered_bytes) << where;
    ASSERT_EQ(got.useful_bytes, want.useful_bytes) << where;
    ASSERT_EQ(got.coalesced, want.coalesced) << where;
    if (want.transactions > 0) ++(want.coalesced ? coalesced : serialized);
    if (r.size > 64 && !want.coalesced) ++giant;
  }
  // Coalesced rows, serialized rows, and widths past the scratch array.
  EXPECT_GT(coalesced, 200);
  EXPECT_GT(serialized, 200);
  EXPECT_GT(giant, 20);
}

TEST(ConstCache, SoaMatchesReferenceOnRandomRows) {
  SplitMix64 rng(0xc0257a47);
  int broadcast = 0, serialized = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    const RandomRow r = random_row(rng, 2);
    const WarpConstCost want = analyze_const_warp(kSpec, r.aos);
    const WarpConstCost got = analyze_const_warp_soa(kSpec, r.soa());
    ASSERT_EQ(got.passes, want.passes) << "iter " << iter;
    ASSERT_EQ(got.extra_passes, want.extra_passes) << "iter " << iter;
    if (want.passes > 0) ++(want.extra_passes == 0 ? broadcast : serialized);
  }
  EXPECT_GT(broadcast, 200);
  EXPECT_GT(serialized, 200);
}

// ---- Texture cache ------------------------------------------------------------

TEST(TextureCache, SpatialLocalityHits) {
  TextureCache cache(kSpec);
  // 32-byte lines: 8 consecutive floats share a line.
  EXPECT_FALSE(cache.access(0));   // cold miss
  for (int i = 1; i < 8; ++i) EXPECT_TRUE(cache.access(4 * i));
  EXPECT_FALSE(cache.access(32));  // next line
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 7.0 / 9.0);
}

TEST(TextureCache, RepeatedSmallTableStaysResident) {
  TextureCache cache(kSpec);
  // A 1 KB table fits in the 8 KB cache: after one pass everything hits.
  for (int i = 0; i < 256; ++i) cache.access(4 * i);
  cache.reset_stats();
  for (int rep = 0; rep < 4; ++rep)
    for (int i = 0; i < 256; ++i) cache.access(4 * i);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 1.0);
}

TEST(TextureCache, StreamLargerThanCacheThrashes) {
  TextureCache cache(kSpec);
  // 64 KB stream through an 8 KB cache, revisited: all misses.
  for (int rep = 0; rep < 2; ++rep)
    for (std::uint64_t a = 0; a < 64 * 1024; a += 32) cache.access(a);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TextureCache, LruEvictsOldest) {
  TextureCache cache(kSpec, /*ways=*/2);
  const std::uint64_t set_stride = 8 * 1024 / 2;  // maps to the same set
  cache.access(0);
  cache.access(set_stride);
  EXPECT_TRUE(cache.access(0));            // refresh line 0
  cache.access(2 * set_stride);            // evicts set_stride (LRU)
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(set_stride));  // was evicted
}

// ---- DRAM model ----------------------------------------------------------------

TEST(Dram, CoalescedBandwidthCycles) {
  const DramModel dram(kSpec);
  DramTraffic t;
  t.bytes = static_cast<std::uint64_t>(kSpec.dram_bandwidth_gbs *
                                       kSpec.dram_efficiency * 1e9);
  // Exactly one second worth of coalesced traffic = one second of cycles.
  EXPECT_NEAR(dram.bandwidth_cycles(t) / (kSpec.core_clock_ghz * 1e9), 1.0,
              1e-9);
}

TEST(Dram, ScatteredTrafficCostsMore) {
  const DramModel dram(kSpec);
  DramTraffic seq{0, 1 << 20, 0};
  DramTraffic rnd{0, 1 << 20, 1 << 20};
  EXPECT_GT(dram.bandwidth_cycles(rnd), 2.0 * dram.bandwidth_cycles(seq));
}

TEST(Dram, DepartureDelayMatchesTransactionSize) {
  const DramModel dram(kSpec);
  const double bpc = dram.effective_bandwidth_gbs() / kSpec.core_clock_ghz;
  EXPECT_NEAR(dram.departure_delay_cycles(), 32.0 / bpc, 1e-12);
}

}  // namespace
}  // namespace g80
