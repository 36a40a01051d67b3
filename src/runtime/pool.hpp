#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace nc {

/// Size-classed slab of T: the cross-round storage behind every link's
/// stream list and every inbox bucket's key and stream columns.
///
/// A *slot* of class c is a run of 2^c contiguous elements named by a
/// 32-bit handle. A container that outgrows its slot takes one of the next
/// class, moves its elements over and frees the old one — the vector
/// reallocation pattern — but a freed slot goes on its class's free list
/// and the next allocation of that class reuses it, and elements live in a
/// few large chunks per class instead of one heap block per container. So
/// millions of small per-edge and per-bucket arrays cost a handful of
/// allocations, and destroying the pool frees chunks, not blocks (the idiom
/// of SNIPPETS.md's flat per-thread miner state).
///
/// Chunk k of class c holds 2^(first + k) slots (first = 4 − c, floored at
/// 0), so a class's chunk list stays logarithmic in its slot count and a
/// chunk never moves: an element address is stable until its slot is
/// freed. Elements are constructed when their slot is first carved out of
/// a chunk and destroyed with the pool, so untouched chunk tails are never
/// written. A freed slot's elements stay constructed: callers release what
/// they hold (e.g. a stream's shared payload) before calling free(), and
/// assign every element before reading it after alloc().
///
/// Ownership: one pool per shard (src/runtime/network.hpp), touched only
/// by the thread running that shard's phase — not thread-safe.
template <typename T>
class SlotPool {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;
  // Movable so a shard can be built in place by vector::resize; the
  // moved-from pool is empty.
  SlotPool(SlotPool&& other) noexcept : classes_(std::move(other.classes_)) {
    for (auto& c : other.classes_) c = Class{};
  }
  SlotPool& operator=(SlotPool&&) = delete;
  ~SlotPool() { destroy(); }

  /// A slot of 2^cls elements: the most recently freed one of that class,
  /// else a fresh one carved from the class's last chunk.
  [[nodiscard]] std::uint32_t alloc(unsigned cls) {
    nc_invariant(cls < kClasses, "slot class out of range");
    Class& c = classes_[cls];
    if (!c.free.empty()) {
      const std::uint32_t slot = c.free.back();
      c.free.pop_back();
      return slot;
    }
    const std::uint32_t slot = c.carved;
    const unsigned k = chunk_of(cls, slot);
    if (k == c.chunks.size()) {
      c.chunks.push_back(
          std::allocator<T>{}.allocate(chunk_elems(cls, k)));
    }
    std::uninitialized_default_construct_n(address(cls, slot),
                                           std::size_t{1} << cls);
    ++c.carved;
    return slot;
  }

  /// Returns a slot to its class's free list.
  void free(unsigned cls, std::uint32_t slot) {
    nc_invariant(cls < kClasses && slot < classes_[cls].carved,
                 "freeing a slot this pool never handed out");
    classes_[cls].free.push_back(slot);
  }

  /// First element of a slot. Stable until the slot is freed.
  [[nodiscard]] T* data(unsigned cls, std::uint32_t slot) const noexcept {
    nc_invariant(cls < kClasses && slot < classes_[cls].carved,
                 "slot handle past the carved range");
    return address(cls, slot);
  }

  /// Slots handed out and not freed, over all classes.
  [[nodiscard]] std::size_t live_slots() const noexcept {
    std::size_t n = 0;
    for (const auto& c : classes_) n += c.carved - c.free.size();
    return n;
  }

  /// Slots ever carved from chunks (live + on free lists), over all
  /// classes — flat while frees and allocations balance.
  [[nodiscard]] std::size_t carved_slots() const noexcept {
    std::size_t n = 0;
    for (const auto& c : classes_) n += c.carved;
    return n;
  }

  /// Bytes of the carved slots (live + on free lists) and of the live
  /// ones, over all classes. Uncarved chunk tails count in neither.
  [[nodiscard]] std::size_t carved_bytes() const noexcept {
    std::size_t elems = 0;
    for (unsigned cls = 0; cls < kClasses; ++cls) {
      elems += std::size_t{classes_[cls].carved} << cls;
    }
    return elems * sizeof(T);
  }
  [[nodiscard]] std::size_t live_bytes() const noexcept {
    std::size_t elems = 0;
    for (unsigned cls = 0; cls < kClasses; ++cls) {
      const Class& c = classes_[cls];
      elems += (c.carved - c.free.size()) << cls;
    }
    return elems * sizeof(T);
  }

 private:
  static constexpr unsigned kClasses = 32;

  struct Class {
    std::vector<T*> chunks;            ///< chunk k: 2^(first + k) slots
    std::vector<std::uint32_t> free;   ///< freed slots, reused LIFO
    std::uint32_t carved = 0;          ///< slots carved so far
  };

  /// log2 of chunk 0's slot count: 16 elements for small classes, one
  /// slot for classes of 16 elements and up.
  static constexpr unsigned first_log(unsigned cls) noexcept {
    return cls < 4 ? 4 - cls : 0;
  }

  static unsigned chunk_of(unsigned cls, std::uint32_t slot) noexcept {
    return static_cast<unsigned>(
               std::bit_width((slot >> first_log(cls)) + 1u)) - 1;
  }

  static std::size_t chunk_elems(unsigned cls, unsigned k) noexcept {
    return std::size_t{1} << (first_log(cls) + k + cls);
  }

  T* address(unsigned cls, std::uint32_t slot) const noexcept {
    const unsigned k = chunk_of(cls, slot);
    const std::uint32_t base = ((std::uint32_t{1} << k) - 1) << first_log(cls);
    return classes_[cls].chunks[k] + (std::size_t{slot - base} << cls);
  }

  void destroy() noexcept {
    for (unsigned cls = 0; cls < kClasses; ++cls) {
      Class& c = classes_[cls];
      const unsigned first = first_log(cls);
      for (unsigned k = 0; k < c.chunks.size(); ++k) {
        const std::uint32_t base = ((std::uint32_t{1} << k) - 1) << first;
        const std::uint32_t slots = std::uint32_t{1} << (first + k);
        const std::uint32_t built =
            c.carved <= base ? 0 : std::min(c.carved - base, slots);
        std::destroy_n(c.chunks[k], std::size_t{built} << cls);
        std::allocator<T>{}.deallocate(c.chunks[k], chunk_elems(cls, k));
      }
      c = Class{};
    }
  }

  std::array<Class, kClasses> classes_;
};

}  // namespace nc
