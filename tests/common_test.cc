#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/str.h"
#include "common/table.h"

namespace g80 {
namespace {

// ---- SplitMix64 -------------------------------------------------------------

TEST(SplitMix, DeterministicAcrossInstances) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SplitMix, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(SplitMix, DoublesInUnitInterval) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix, UniformMeanIsCentered) {
  SplitMix64 rng(9);
  RunningStat s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniform(-1.0, 1.0));
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_GT(s.min(), -1.0 - 1e-12);
  EXPECT_LT(s.max(), 1.0);
}

TEST(SplitMix, NormalMomentsAreSane) {
  SplitMix64 rng(11);
  RunningStat s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(SplitMix, NextBelowRespectsBound) {
  SplitMix64 rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

// ---- CounterRng -------------------------------------------------------------

TEST(CounterRng, PureFunctionOfSeedAndCounter) {
  const CounterRng a(42), b(42);
  for (std::uint64_t c : {0ull, 1ull, 17ull, 1ull << 40}) {
    EXPECT_EQ(a.at(c), b.at(c));
    EXPECT_EQ(a.at(c), a.at(c));  // stateless: re-query gives same value
  }
}

TEST(CounterRng, AdjacentCountersDecorrelated) {
  const CounterRng rng(5);
  // Count bit differences between adjacent counters: should be ~32.
  RunningStat s;
  for (std::uint64_t c = 0; c < 2000; ++c) {
    s.add(std::popcount(rng.at(c) ^ rng.at(c + 1)));
  }
  EXPECT_NEAR(s.mean(), 32.0, 1.5);
}

TEST(CounterRng, FloatRangesValid) {
  const CounterRng rng(77);
  for (std::uint64_t c = 0; c < 5000; ++c) {
    EXPECT_GE(rng.float_at(c), 0.0f);
    EXPECT_LT(rng.float_at(c), 1.0f);
    EXPECT_GE(rng.double_at(c), 0.0);
    EXPECT_LT(rng.double_at(c), 1.0);
  }
}

// ---- RunningStat ------------------------------------------------------------

TEST(RunningStat, KnownSequence) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleElementHasZeroVariance) {
  RunningStat s;
  s.add(3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.5);
}

// ---- rel_err ----------------------------------------------------------------

TEST(RelErr, Basics) {
  EXPECT_DOUBLE_EQ(rel_err(1.0, 1.0), 0.0);
  EXPECT_NEAR(rel_err(1.01, 1.0), 0.01, 1e-12);
  EXPECT_DOUBLE_EQ(rel_err(0.0, 0.0), 0.0);
  // eps floor keeps tiny denominators from exploding.
  EXPECT_LE(rel_err(1e-9, 0.0, 1e-6), 1e-3 + 1e-12);
}

// ---- string helpers ---------------------------------------------------------

TEST(Str, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Str, HumanBytes) {
  EXPECT_EQ(human_bytes(64), "64 B");
  EXPECT_EQ(human_bytes(16 * 1024), "16.0 KB");
  EXPECT_EQ(human_bytes(1.5 * 1024 * 1024 * 1024), "1.5 GB");
}

TEST(Str, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 3), "abcde");  // no truncation
}

TEST(Str, Cat) {
  EXPECT_EQ(cat("x=", 3, ", y=", 1.5), "x=3, y=1.5");
}

// ---- TextTable --------------------------------------------------------------

TEST(TextTable, AlignsAndUnderlines) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "20"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  // Numeric cells right-align: "  1.5" under "value".
  EXPECT_NE(s.find("  1.5"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

}  // namespace
}  // namespace g80
