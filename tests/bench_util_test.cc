// Tests for the bench workload helpers: the shared record generator
// must produce exactly n distinct keys — a bench dataset with silent
// duplicates under-counts inserts and over-counts updates, skewing
// every figure built on it.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench/bench_util.h"

namespace spitz {
namespace bench {
namespace {

TEST(BenchUtilTest, MakeRecordsKeysAreUnique) {
  // Regression: the old variable-width hex suffix could collide — a
  // short key that was exactly the suffix ("12ab" for i=0x12ab) equaled
  // another record's prefix+suffix ("1" + "2ab" for i=0x2ab). The
  // fixed-width suffix makes equal keys imply equal indices.
  for (uint64_t seed : {42ull, 7ull, 20260808ull}) {
    for (size_t n : {1ul, 16ul, 17ul, 4096ul, 70000ul}) {
      std::vector<PosEntry> records = MakeRecords(n, seed);
      ASSERT_EQ(records.size(), n);
      std::set<std::string> keys;
      for (const PosEntry& r : records) keys.insert(r.key);
      EXPECT_EQ(keys.size(), n) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(BenchUtilTest, MakeRecordsKeepsThePapersShape) {
  // Paper section 6.2: key length in [5, 12] (stretched only when the
  // fixed-width suffix itself is longer), value length 20.
  std::vector<PosEntry> records = MakeRecords(10000);
  for (const PosEntry& r : records) {
    EXPECT_GE(r.key.size(), 5u);
    EXPECT_LE(r.key.size(), 12u);
    EXPECT_EQ(r.value.size(), 20u);
  }
}

TEST(BenchUtilTest, MakeRecordsIsDeterministicPerSeed) {
  std::vector<PosEntry> a = MakeRecords(500, 9);
  std::vector<PosEntry> b = MakeRecords(500, 9);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  std::vector<PosEntry> c = MakeRecords(500, 10);
  bool any_difference = false;
  for (size_t i = 0; i < c.size(); i++) {
    if (c[i].key != a[i].key) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(BenchUtilTest, RankChecksFailOnceARankInverts) {
  FILE* out = tmpfile();
  ASSERT_NE(out, nullptr);
  RankChecks ranks("records", out);
  EXPECT_TRUE(ranks.AtLeast("equal at factor one", 10, 5.0, 5.0, 1.0));
  EXPECT_TRUE(ranks.AtLeast("within 2x", 10, 5.0, 9.0, 0.5));
  EXPECT_EQ(ranks.ExitCode(), 0);
  EXPECT_FALSE(ranks.AtLeast("short of its margin", 20, 5.0, 4.0, 1.5));
  EXPECT_TRUE(ranks.AtLeast("a later pass", 20, 8.0, 4.0, 1.5));
  EXPECT_NE(ranks.ExitCode(), 0);  // one failure fails the run

  rewind(out);
  char line[256];
  ASSERT_NE(fgets(line, sizeof(line), out), nullptr);
  EXPECT_STREQ(line,
               "rank ok: equal at factor one at 10 records: ratio 1.00, "
               "needs >= 1.00\n");
  ASSERT_NE(fgets(line, sizeof(line), out), nullptr);
  ASSERT_NE(fgets(line, sizeof(line), out), nullptr);
  EXPECT_STREQ(line,
               "rank FAILED: short of its margin at 20 records: ratio 1.25, "
               "needs >= 1.50\n");
  fclose(out);
}

}  // namespace
}  // namespace bench
}  // namespace spitz
