#include <gtest/gtest.h>

#include <set>

#include "util/check.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/strings.h"

namespace nanomap {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  EXPECT_NE(r.next_u64(), 0u);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int v = r.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) {
    double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, PickThrowsOnEmpty) {
  Rng r(1);
  std::vector<int> empty;
  EXPECT_THROW(r.pick(empty), CheckError);
}

TEST(Strings, SplitSkipsEmptyTokens) {
  EXPECT_EQ(split("a  b   c", ' '),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("  lead trail  ", ' '),
            (std::vector<std::string>{"lead", "trail"}));
  EXPECT_TRUE(split("", ' ').empty());
  EXPECT_TRUE(split("   ", ' ').empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("\t a b \n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("plane=3", "plane="));
  EXPECT_FALSE(starts_with("pla", "plane="));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, ParseIntValid) {
  EXPECT_EQ(parse_int("42", "t"), 42);
  EXPECT_EQ(parse_int("-7", "t"), -7);
  EXPECT_EQ(parse_int("0", "t"), 0);
}

TEST(Strings, ParseIntInvalidThrows) {
  EXPECT_THROW(parse_int("4x", "t"), InputError);
  EXPECT_THROW(parse_int("", "t"), InputError);
  EXPECT_THROW(parse_int("abc", "t"), InputError);
  EXPECT_THROW(parse_int("4294967338", "t"), InputError);  // 2^32 + 42
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("18446744073709551615", "t"), ~std::uint64_t{0});
  EXPECT_EQ(parse_u64("0", "t"), 0u);
  EXPECT_THROW(parse_u64("-1", "t"), InputError);
  EXPECT_THROW(parse_u64("18446744073709551616", "t"), InputError);
  EXPECT_THROW(parse_u64("7s", "t"), InputError);
  EXPECT_THROW(parse_u64("", "t"), InputError);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5", "t"), 2.5);
  EXPECT_THROW(parse_double("2.5x", "t"), InputError);
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(str_format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(str_format("%.2f", 1.234), "1.23");
}

TEST(Check, MacroThrowsWithLocation) {
  try {
    NM_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(NM_CHECK(2 + 2 == 4));
}

TEST(Log, LevelFiltering) {
  LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Filtered message must not crash.
  NM_LOG(kDebug) << "dropped";
  set_log_level(before);
}

}  // namespace
}  // namespace nanomap
