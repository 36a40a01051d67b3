#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/pool.hpp"

// Direct unit tests of SlotPool, the size-classed slab behind every link's
// stream list and every inbox bucket: the quarter-octave class sizes, slot
// reuse, the fallback to a free slot of the next class up, chunk layout
// and the byte counters.

namespace nc {
namespace {

TEST(SlotPool, ClassSizesAreQuarterOctaves) {
  const std::vector<std::size_t> first{1,  2,  3,  4,  5,  6,  7,  8,  10, 12,
                                       14, 16, 20, 24, 28, 32, 40, 48, 56, 64};
  for (unsigned cls = 0; cls < first.size(); ++cls) {
    EXPECT_EQ(slot_class_size(cls), first[cls]) << cls;
  }
  EXPECT_EQ(slot_class_size(kSlotClasses - 1), std::size_t{1} << 31);
  for (unsigned cls = 0; cls < kSlotClasses; ++cls) {
    SCOPED_TRACE(cls);
    const std::size_t size = slot_class_size(cls);
    // Each class is the tightest for its own size and the one below the
    // tightest for one element more.
    EXPECT_EQ(slot_class_for(size), cls);
    if (cls + 1 < kSlotClasses) {
      EXPECT_EQ(slot_class_for(size + 1), cls + 1);
      // A step is at most a quarter of the size (or one element).
      EXPECT_LE(slot_class_size(cls + 1), size + (size + 3) / 4);
    }
    if (cls < kSlotClasses - 4) {
      // Growth at least doubles, to the tightest class that does.
      const unsigned grown = slot_class_grown(cls);
      EXPECT_GE(slot_class_size(grown), 2 * size);
      EXPECT_EQ(grown, slot_class_for(2 * size));
    }
  }
  EXPECT_EQ(slot_class_for(0), 0u);
}

TEST(SlotPool, EverySlotHoldsItsClassSize) {
  // One slot of every class up to 4,096 elements: each carves exactly its
  // class size, and all of its elements are addressable and distinct.
  SlotPool<std::uint32_t> pool;
  std::size_t carved = 0;
  for (unsigned cls = 0; slot_class_size(cls) <= 4096; ++cls) {
    SCOPED_TRACE(cls);
    unsigned got = cls;
    const std::uint32_t slot = pool.alloc(got);
    ASSERT_EQ(got, cls);
    std::uint32_t* data = pool.data(cls, slot);
    const std::size_t size = slot_class_size(cls);
    for (std::size_t i = 0; i < size; ++i) data[i] = static_cast<std::uint32_t>(i);
    carved += size;
    EXPECT_EQ(pool.carved_bytes(), carved * sizeof(std::uint32_t));
    EXPECT_EQ(data[size - 1], size - 1);
  }
  EXPECT_EQ(pool.live_bytes(), pool.carved_bytes());
}

TEST(SlotPool, FreedSlotsAreReusedLastInFirstOut) {
  SlotPool<int> pool;
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 3; ++i) {
    unsigned cls = 5;
    slots.push_back(pool.alloc(cls));
  }
  int* second = pool.data(5, slots[1]);
  pool.free(5, slots[0]);
  pool.free(5, slots[1]);
  unsigned cls = 5;
  EXPECT_EQ(pool.alloc(cls), slots[1]);  // the most recently freed
  EXPECT_EQ(pool.data(5, slots[1]), second);  // at the same address
  EXPECT_EQ(pool.alloc(cls), slots[0]);
  EXPECT_EQ(pool.carved_slots(), 3u);  // reused, not carved
  EXPECT_EQ(pool.live_slots(), 3u);
}

TEST(SlotPool, AnEmptyClassTakesAFreedSlotOfTheNextClassUp) {
  SlotPool<int> pool;
  unsigned six = 5;  // six elements
  const std::uint32_t next = pool.alloc(six);
  unsigned seven = 6;  // seven elements
  const std::uint32_t two_up = pool.alloc(seven);
  pool.free(5, next);
  pool.free(6, two_up);
  // Class 4 (five elements) has no free slot: the alloc takes class 5's
  // and raises the class it reports.
  unsigned cls = 4;
  EXPECT_EQ(pool.alloc(cls), next);
  EXPECT_EQ(cls, 5u);
  // Class 5's list is empty again and class 6 is two classes up, too far:
  // class 4 carves a slot of its own.
  cls = 4;
  const std::uint32_t own = pool.alloc(cls);
  EXPECT_EQ(cls, 4u);
  EXPECT_EQ(pool.carved_slots(), 3u);
  // A class with a free slot of its own uses it, not the one above.
  pool.free(4, own);
  pool.free(5, next);
  cls = 4;
  EXPECT_EQ(pool.alloc(cls), own);
  EXPECT_EQ(cls, 4u);
  EXPECT_EQ(pool.live_slots(), 1u);  // class 5's and 6's slots are free
}

TEST(SlotPool, ChunksAreStableAndByteCountersSplitCarvedFromLive) {
  // Class 0's first chunk holds 16 one-element slots; the 17th opens a
  // chunk of 32. Carved bytes count every carved slot at its class size,
  // live bytes only those not freed; uncarved chunk tails count in
  // neither.
  SlotPool<std::uint64_t> pool;
  std::vector<std::uint32_t> slots;
  std::vector<std::uint64_t*> where;
  for (int i = 0; i < 17; ++i) {
    unsigned cls = 0;
    slots.push_back(pool.alloc(cls));
    where.push_back(pool.data(0, slots.back()));
  }
  for (int i = 1; i < 16; ++i) EXPECT_EQ(where[i], where[0] + i) << i;
  EXPECT_EQ(pool.carved_bytes(), 17 * sizeof(std::uint64_t));
  unsigned ten = 8;  // ten elements
  const std::uint32_t big = pool.alloc(ten);
  EXPECT_EQ(pool.carved_bytes(), 27 * sizeof(std::uint64_t));
  EXPECT_EQ(pool.live_bytes(), 27 * sizeof(std::uint64_t));
  pool.free(ten, big);
  pool.free(0, slots[3]);
  EXPECT_EQ(pool.carved_bytes(), 27 * sizeof(std::uint64_t));
  EXPECT_EQ(pool.live_bytes(), 16 * sizeof(std::uint64_t));
  // No element moved while the pool grew.
  for (int i = 0; i < 17; ++i) EXPECT_EQ(pool.data(0, slots[i]), where[i]);
}

}  // namespace
}  // namespace nc
