// Tests for util/: the table printer, number formatting, and the seeded RNG.
#include <gtest/gtest.h>

#include "util/bitset.h"
#include "util/rng.h"
#include "util/strings.h"

namespace dowork {
namespace {

TEST(TablePrinter, AlignsColumnsAndPadsShortRows) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "23,456"});
  t.add_row({"only-one-cell"});
  std::string out = t.render();
  EXPECT_NE(out.find("| name          | value  |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name   | 23,456 |"), std::string::npos);
  EXPECT_NE(out.find("| only-one-cell |        |"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TablePrinter, TruncatesOverlongRows) {
  TablePrinter t({"a"});
  t.add_row({"1", "spillover"});
  // The extra cell is dropped by resize; rendering must not crash.
  std::string out = t.render();
  EXPECT_EQ(out.find("spillover"), std::string::npos);
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(18446744073709551615ull), "18,446,744,073,709,551,615");
}

TEST(Strings, Ratio) {
  EXPECT_EQ(ratio(1.0), "1.00x");
  EXPECT_EQ(ratio(12.345), "12.35x");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, SubsetMaskSized) {
  Rng r(7);
  EXPECT_EQ(r.subset_mask(13).size(), 13u);
  EXPECT_TRUE(r.subset_mask(0).empty());
}

TEST(Rng, ShufflePermutes) {
  Rng r(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  r.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(55);
  Rng child = a.fork();
  // Same construction replayed gives the same child stream.
  Rng b(55);
  Rng child2 = b.fork();
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(child.uniform(0, 1 << 30), child2.uniform(0, 1 << 30));
}

TEST(DynBitset, RetainIntersectsAndReportsClearedBits) {
  // 130 bits: two full words plus a ragged tail.
  DynBitset a(130), mask(130, true);
  for (std::size_t i : {0u, 63u, 64u, 129u}) a.set(i);
  EXPECT_FALSE(a.retain(mask));  // a is inside the mask: nothing cleared
  EXPECT_EQ(a.count(), 4u);
  mask.reset(64);
  mask.reset(100);  // not in a: clearing it is not a change
  EXPECT_TRUE(a.retain(mask));
  EXPECT_FALSE(a.test(64));
  EXPECT_TRUE(a.test(0));
  EXPECT_TRUE(a.test(63));
  EXPECT_TRUE(a.test(129));
  EXPECT_FALSE(a.retain(mask));  // idempotent: the second pass clears nothing
  DynBitset none(130);
  EXPECT_TRUE(a.retain(none));
  EXPECT_TRUE(a.none());
  EXPECT_FALSE(a.retain(none));
}

TEST(DynBitset, RetainMatchesPerBitLoop) {
  Rng rng(9);
  for (std::size_t n : {1u, 63u, 64u, 65u, 200u}) {
    DynBitset a(n), mask(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.chance(0.6)) a.set(i);
      if (rng.chance(0.7)) mask.set(i);
    }
    DynBitset want = a;
    bool cleared = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (want.test(i) && !mask.test(i)) {
        want.reset(i);
        cleared = true;
      }
    }
    EXPECT_EQ(a.retain(mask), cleared) << n;
    EXPECT_EQ(a, want) << n;
  }
}

}  // namespace
}  // namespace dowork
