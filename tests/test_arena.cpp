#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/arena.hpp"

// Unit tests of the per-shard bump allocator and the arena-backed flat
// vector that the staging lanes are built on (src/runtime/msgblock.hpp).

namespace nc {
namespace {

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(1, 64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  // Disjoint: writing one span must not clobber another.
  std::memset(a, 0xaa, 3);
  std::memset(b, 0xbb, 8);
  std::memset(c, 0xcc, 1);
  EXPECT_EQ(static_cast<unsigned char*>(a)[0], 0xaa);
  EXPECT_EQ(static_cast<unsigned char*>(b)[7], 0xbb);
  EXPECT_EQ(static_cast<unsigned char*>(c)[0], 0xcc);
}

TEST(Arena, DefaultAlignmentIsMaxAlign) {
  Arena arena;
  for (int i = 0; i < 5; ++i) {
    void* p = arena.allocate(1);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                  alignof(std::max_align_t),
              0u);
  }
}

TEST(Arena, ResetReusesMemoryWithoutFreeing) {
  Arena arena;
  void* first = arena.allocate(256, 8);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // A single-block arena hands back the same storage after reset.
  void* again = arena.allocate(256, 8);
  EXPECT_EQ(first, again);
  EXPECT_GE(arena.capacity(), 256u);
}

TEST(Arena, GrowthAcrossBlocksThenCoalescesOnReset) {
  Arena arena;
  // Force several block growths.
  std::vector<void*> ptrs;
  for (int i = 0; i < 64; ++i) ptrs.push_back(arena.allocate(1024, 8));
  const std::size_t used = arena.bytes_used();
  EXPECT_GE(used, 64u * 1024u);
  EXPECT_GE(arena.high_water_bytes(), used);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // After the coalescing reset everything fits in one block: the same total
  // re-allocated again must not raise the high-water mark.
  const std::size_t hw = arena.high_water_bytes();
  for (int i = 0; i < 64; ++i) arena.allocate(1024, 8);
  EXPECT_EQ(arena.high_water_bytes(), hw);
}

TEST(Arena, LargeOneShotAllocation) {
  Arena arena;
  constexpr std::size_t kBig = 8u << 20;  // 8 MiB, far past kMinBlockBytes
  auto* p = static_cast<unsigned char*>(arena.allocate(kBig, 8));
  ASSERT_NE(p, nullptr);
  p[0] = 1;
  p[kBig - 1] = 2;  // the whole span must be addressable
  EXPECT_GE(arena.capacity(), kBig);
}

TEST(Arena, HighWaterTracksPeakNotCurrent) {
  Arena arena;
  arena.allocate(4096, 8);
  arena.allocate(4096, 8);
  const std::size_t peak = arena.high_water_bytes();
  EXPECT_GE(peak, 8192u);
  arena.reset();
  arena.allocate(16, 8);
  EXPECT_GE(arena.high_water_bytes(), peak);  // monotone
  EXPECT_LT(arena.bytes_used(), peak);
}

TEST(Arena, AllocateArrayIsTyped) {
  Arena arena;
  std::uint64_t* xs = arena.allocate_array<std::uint64_t>(100);
  for (int i = 0; i < 100; ++i) xs[i] = static_cast<std::uint64_t>(i) * 7;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(xs[i], static_cast<std::uint64_t>(i) * 7);
  }
}

TEST(ArenaVec, HeapModeGrowsAndPreserves) {
  ArenaVec<std::uint32_t> v;  // unbound: heap mode
  for (std::uint32_t i = 0; i < 1000; ++i) *v.append(1) = i;
  ASSERT_EQ(v.size(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
  v.truncate(400);
  ASSERT_EQ(v.size(), 400u);
  for (std::uint32_t i = 0; i < 400; ++i) EXPECT_EQ(v[i], i);
  v.truncate(0);
  EXPECT_TRUE(v.empty());
  EXPECT_GE(v.capacity_slots(), 1000u);  // truncate keeps the span
  v.release();
  EXPECT_EQ(v.capacity_slots(), 0u);
}

TEST(ArenaVec, ArenaModeGrowsAndPreserves) {
  Arena arena;
  ArenaVec<std::uint64_t> v;
  v.bind(&arena);
  for (std::uint64_t i = 0; i < 500; ++i) *v.append(1) = i * 3;
  ASSERT_EQ(v.size(), 500u);
  for (std::uint64_t i = 0; i < 500; ++i) EXPECT_EQ(v[i], i * 3);
  // Growth abandoned spans inside the arena; used bytes must cover at least
  // the live span.
  EXPECT_GE(arena.bytes_used(), 500u * sizeof(std::uint64_t));
}

TEST(ArenaVec, AppendReturnsWritableSlots) {
  Arena arena;
  ArenaVec<std::uint16_t> v;
  v.bind(&arena);
  *v.append(1) = 1;
  std::uint16_t* slots = v.append(3);
  slots[0] = 10;
  slots[1] = 20;
  slots[2] = 30;
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[1], 10u);
  EXPECT_EQ(v[3], 30u);
}

TEST(ArenaVec, RoundLifecycleMatchesLaneUsage) {
  // The lane pattern: bind once, then per round release + reserve(the
  // round's count) against a freshly reset arena.
  Arena arena;
  ArenaVec<std::uint32_t> v;
  v.bind(&arena);
  for (int round = 0; round < 10; ++round) {
    arena.reset();
    v.release();
    v.reserve(64);
    for (std::uint32_t i = 0; i < 64; ++i) *v.append(1) = i + round;
    ASSERT_EQ(v.size(), 64u);
    EXPECT_EQ(v[63], 63u + static_cast<std::uint32_t>(round));
  }
  // Steady state: one block, no growth past the first round's high water.
  const std::size_t hw = arena.high_water_bytes();
  arena.reset();
  v.release();
  v.reserve(64);
  for (std::uint32_t i = 0; i < 64; ++i) *v.append(1) = i;
  EXPECT_EQ(arena.high_water_bytes(), hw);
}

}  // namespace
}  // namespace nc
