#include <gtest/gtest.h>

#include <vector>

#include "util/bitio.hpp"
#include "util/bitvec.hpp"

namespace nc {
namespace {

// ---------------------------------------------------------------- BitVec --

TEST(BitVec, StartsAllZero) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.count(), 0u);
  EXPECT_TRUE(v.none());
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(v.test(i));
}

TEST(BitVec, SetAndClear) {
  BitVec v(100);
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(99);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(63));
  EXPECT_TRUE(v.test(64));
  EXPECT_TRUE(v.test(99));
  EXPECT_EQ(v.count(), 4u);
  v.set(63, false);
  EXPECT_FALSE(v.test(63));
  EXPECT_EQ(v.count(), 3u);
}

TEST(BitVec, CountAndAcrossWords) {
  BitVec a(200), b(200);
  for (std::size_t i = 0; i < 200; i += 3) a.set(i);
  for (std::size_t i = 0; i < 200; i += 5) b.set(i);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < 200; i += 15) ++expected;
  EXPECT_EQ(a.count_and(b), expected);
}

TEST(BitVec, UnionIntersectDifference) {
  BitVec a(70), b(70);
  a.set(1);
  a.set(65);
  b.set(65);
  b.set(2);
  BitVec u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  BitVec i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(65));
  BitVec d = a;
  d.subtract(b);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
}

TEST(BitVec, IndicesRoundTrip) {
  const std::vector<std::uint32_t> idx{0, 5, 63, 64, 127, 128};
  const BitVec v = BitVec::from_indices(200, idx);
  EXPECT_EQ(v.to_indices(), idx);
}

TEST(BitVec, EqualityIncludesSize) {
  BitVec a(10), b(10), c(11);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  a.set(3);
  EXPECT_FALSE(a == b);
  b.set(3);
  EXPECT_EQ(a, b);
}

TEST(BitVec, AssignZeroResizes) {
  BitVec v(10);
  v.set(5);
  v.assign_zero(300);
  EXPECT_EQ(v.size(), 300u);
  EXPECT_TRUE(v.none());
}

// ------------------------------------------------------------ ID width --

TEST(BitIo, IdWidthBounds) {
  EXPECT_EQ(id_width(0), 1u);
  EXPECT_EQ(id_width(1), 1u);
  EXPECT_EQ(id_width(2), 2u);
  EXPECT_EQ(id_width(3), 2u);
  EXPECT_EQ(id_width(4), 3u);
  EXPECT_EQ(id_width(255), 8u);
  EXPECT_EQ(id_width(256), 9u);
  EXPECT_EQ(id_width(1000), 10u);
  // Any value in [0, n] must fit in id_width(n) bits.
  for (std::uint64_t n : {1ULL, 7ULL, 100ULL, 4097ULL}) {
    const unsigned w = id_width(n);
    EXPECT_GE((w == 64 ? ~0ULL : (1ULL << w) - 1), n);
  }
}

}  // namespace
}  // namespace nc
