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

/// Size classes of a SlotPool slot: 1, 2, 3 elements, then four classes
/// per octave — 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, … — up
/// to 2^31. A slot sized for n elements holds at most a quarter more
/// (5/4 at an octave's first step), about 1.05× on the degree
/// distributions the inboxes see, against 1.36× with power-of-two slots.
inline constexpr unsigned kSlotClasses = 120;

/// Elements in a slot of class `cls`: cls + 1 below 3, else (4 + r) << q
/// with q, r the quotient and remainder of (cls − 3) / 4.
[[nodiscard]] constexpr std::size_t slot_class_size(unsigned cls) noexcept {
  if (cls < 3) return cls + 1;
  return std::size_t{4 + (cls - 3) % 4} << ((cls - 3) / 4);
}

/// The smallest class whose slots hold `n` elements (class 0 for n = 0).
/// For n > 4, n − 1 has the top three bits 1xx at shift q, and the class
/// is 3 + 4q + the 1xx value − 3.
[[nodiscard]] constexpr unsigned slot_class_for(std::size_t n) noexcept {
  if (n <= 4) return n == 0 ? 0 : static_cast<unsigned>(n - 1);
  const std::size_t m = n - 1;
  const unsigned q = static_cast<unsigned>(std::bit_width(m)) - 3;
  return 4 * q + static_cast<unsigned>(m >> q);
}

/// The class a full slot of class `cls` grows into: at least twice the
/// elements, as a vector regrows (twice a class size is a class size).
[[nodiscard]] constexpr unsigned slot_class_grown(unsigned cls) noexcept {
  return slot_class_for(2 * slot_class_size(cls));
}

static_assert(slot_class_size(kSlotClasses - 1) == std::size_t{1} << 31);
static_assert(slot_class_for(slot_class_size(kSlotClasses - 1)) ==
              kSlotClasses - 1);

/// Size-classed slab of T: the cross-round storage behind every link's
/// stream list and every inbox bucket's key and stream columns.
///
/// A *slot* of class c is a run of slot_class_size(c) contiguous elements
/// named by a 32-bit handle. A container that outgrows its slot takes one
/// of a class at least twice the size, moves its elements over and frees
/// the old one — the vector reallocation pattern — but a freed slot goes on
/// its class's free list and a later allocation of that class, or of the
/// class below it, reuses it, and elements live in a few large chunks per
/// class instead of one heap block per container. So millions of small
/// per-edge and per-bucket arrays cost a handful of allocations, and
/// destroying the pool frees chunks, not blocks (the idiom of SNIPPETS.md's
/// flat per-thread miner state).
///
/// Chunk k of class c holds 2^(first + k) slots, where chunk 0 holds the
/// most slots that fit 16 elements (at least one), so a class's chunk list
/// stays logarithmic in its slot count and a chunk never moves: an element
/// address is stable until its slot is freed. Elements are constructed
/// when their slot is first carved out of a chunk and destroyed with the
/// pool, so untouched chunk tails are never written. A freed slot's
/// elements stay constructed: callers release what they hold (e.g. a
/// stream's shared payload) before calling free(), and assign every
/// element before reading it after alloc().
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

  /// A slot of class `cls`: the most recently freed one of that class,
  /// else the most recently freed one of the next class up (and `cls` is
  /// raised to it), else a fresh one carved from the class's last chunk.
  [[nodiscard]] std::uint32_t alloc(unsigned& cls) {
    nc_invariant(cls < kSlotClasses, "slot class out of range");
    if (classes_[cls].free.empty() && cls + 1 < kSlotClasses &&
        !classes_[cls + 1].free.empty()) {
      ++cls;
    }
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
                                           slot_class_size(cls));
    ++c.carved;
    return slot;
  }

  /// Returns a slot to its class's free list.
  void free(unsigned cls, std::uint32_t slot) {
    nc_invariant(cls < kSlotClasses && slot < classes_[cls].carved,
                 "freeing a slot this pool never handed out");
    classes_[cls].free.push_back(slot);
  }

  /// First element of a slot. Stable until the slot is freed.
  [[nodiscard]] T* data(unsigned cls, std::uint32_t slot) const noexcept {
    nc_invariant(cls < kSlotClasses && slot < classes_[cls].carved,
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
    for (unsigned cls = 0; cls < kSlotClasses; ++cls) {
      elems += classes_[cls].carved * slot_class_size(cls);
    }
    return elems * sizeof(T);
  }
  [[nodiscard]] std::size_t live_bytes() const noexcept {
    std::size_t elems = 0;
    for (unsigned cls = 0; cls < kSlotClasses; ++cls) {
      const Class& c = classes_[cls];
      elems += (c.carved - c.free.size()) * slot_class_size(cls);
    }
    return elems * sizeof(T);
  }

 private:
  struct Class {
    std::vector<T*> chunks;            ///< chunk k: 2^(first + k) slots
    std::vector<std::uint32_t> free;   ///< freed slots, reused LIFO
    std::uint32_t carved = 0;          ///< slots carved so far
  };

  /// log2 of chunk 0's slot count, per class: the most slots that fit 16
  /// elements, so 16 one-element slots for class 0 and one slot from 10
  /// elements up. A table, as element addressing reads it on every access.
  static constexpr std::array<std::uint8_t, kSlotClasses> kFirstLog = [] {
    std::array<std::uint8_t, kSlotClasses> log{};
    for (unsigned cls = 0; cls < kSlotClasses; ++cls) {
      const std::size_t size = slot_class_size(cls);
      log[cls] = size >= 16 ? 0 : static_cast<std::uint8_t>(
                                      std::bit_width(16 / size) - 1);
    }
    return log;
  }();

  static constexpr unsigned first_log(unsigned cls) noexcept {
    return kFirstLog[cls];
  }

  static unsigned chunk_of(unsigned cls, std::uint32_t slot) noexcept {
    return static_cast<unsigned>(
               std::bit_width((slot >> first_log(cls)) + 1u)) - 1;
  }

  static std::size_t chunk_elems(unsigned cls, unsigned k) noexcept {
    return (std::size_t{1} << (first_log(cls) + k)) * slot_class_size(cls);
  }

  T* address(unsigned cls, std::uint32_t slot) const noexcept {
    const unsigned k = chunk_of(cls, slot);
    const std::uint32_t base = ((std::uint32_t{1} << k) - 1) << first_log(cls);
    return classes_[cls].chunks[k] + (slot - base) * slot_class_size(cls);
  }

  void destroy() noexcept {
    for (unsigned cls = 0; cls < kSlotClasses; ++cls) {
      Class& c = classes_[cls];
      const unsigned first = first_log(cls);
      for (unsigned k = 0; k < c.chunks.size(); ++k) {
        const std::uint32_t base = ((std::uint32_t{1} << k) - 1) << first;
        const std::uint32_t slots = std::uint32_t{1} << (first + k);
        const std::uint32_t built =
            c.carved <= base ? 0 : std::min(c.carved - base, slots);
        std::destroy_n(c.chunks[k], built * slot_class_size(cls));
        std::allocator<T>{}.deallocate(c.chunks[k], chunk_elems(cls, k));
      }
      c = Class{};
    }
  }

  std::array<Class, kSlotClasses> classes_;
};

}  // namespace nc
