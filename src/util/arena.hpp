#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace nc {

/// Chunked bump allocator for per-round transient storage.
///
/// The sharded simulator's hot path produces large volumes of short-lived
/// data every round — staged copy records, spilled payloads — whose
/// lifetime ends at a phase barrier. An arena turns that churn into pointer
/// bumps: `allocate` advances an offset inside the current block, `reset`
/// rewinds in O(1) and keeps the memory for the next round. Nothing is ever
/// freed individually (allocations are trivially-destructible by contract).
///
/// Growth: when a block fills, a new block of at least twice the previous
/// capacity is chained. `reset` with more than one live block coalesces
/// them into a single block sized for the observed footprint, so the steady
/// state is one block and one offset rewind per round.
///
/// Accounting: `bytes_used()` is the live bump offset (including alignment
/// padding and spans abandoned by growing ArenaVecs — the honest transient
/// footprint of the round) and `high_water_bytes()` is the maximum ever
/// observed across resets; the bench artifacts record it per shard
/// (docs/benchmarks.md).
///
/// Shard ownership (see src/runtime/README.md): each simulator shard owns
/// one arena, touched only by the worker running that shard's phase —
/// arenas need no synchronization and are not thread-safe.
class Arena {
 public:
  Arena() = default;
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;

  /// Bump-allocates `size` bytes aligned to `align` (a power of two,
  /// at most alignof(std::max_align_t)). Never returns nullptr; size 0
  /// returns a valid unique pointer. The memory is uninitialized.
  void* allocate(std::size_t size,
                 std::size_t align = alignof(std::max_align_t));

  /// Typed span of `count` default-alignment slots (uninitialized).
  /// T must be trivially copyable and trivially destructible — the arena
  /// never runs destructors.
  template <typename T>
  T* allocate_array(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Invalidates every allocation and rewinds to an empty arena in O(1),
  /// keeping (and, after a multi-block round, coalescing) the backing
  /// memory. Anything still pointing into the arena is dangling after
  /// this — callers re-carve their containers each round.
  void reset();

  /// Releases all backing memory (capacity drops to zero).
  void release();

  /// Live bytes bumped since the last reset (padding included).
  [[nodiscard]] std::size_t bytes_used() const noexcept { return used_; }

  /// Total backing capacity currently held.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Maximum bytes_used() ever observed (across resets).
  [[nodiscard]] std::size_t high_water_bytes() const noexcept {
    return high_water_;
  }

 private:
  struct Block {
    Block* prev = nullptr;  ///< older, full blocks (chained for cleanup)
    std::size_t capacity = 0;
    // Data follows the header, suitably aligned.
    [[nodiscard]] unsigned char* data() noexcept {
      return reinterpret_cast<unsigned char*>(this + 1);
    }
  };

  static constexpr std::size_t kMinBlockBytes = 4096;

  /// Chains a fresh block with at least `need` data bytes.
  void grow(std::size_t need);

  Block* head_ = nullptr;      ///< current block (allocations come from here)
  std::size_t offset_ = 0;     ///< bump offset inside head_
  std::size_t used_ = 0;       ///< bytes bumped since last reset (all blocks)
  std::size_t capacity_ = 0;   ///< sum of block capacities
  std::size_t high_water_ = 0;
};

/// Growable array of a trivially copyable T, backed either by an Arena
/// (per-round data: growth abandons the old span — the arena reclaims it at
/// reset) or by the heap when no arena is bound (long-lived data, e.g. the
/// fault engine's cross-round delayed buckets: growth frees the old span).
///
/// Unlike std::vector the element type contract is explicit (memcpy moves,
/// no destructors), `clear()` never touches memory, and the backing policy
/// is a runtime property — the message block uses one type for both lane
/// and bucket records (src/runtime/msgblock.hpp).
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  ArenaVec() = default;
  ~ArenaVec() { release(); }

  ArenaVec(const ArenaVec&) = delete;
  ArenaVec& operator=(const ArenaVec&) = delete;
  ArenaVec(ArenaVec&& other) noexcept { *this = std::move(other); }
  ArenaVec& operator=(ArenaVec&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
      arena_ = std::exchange(other.arena_, nullptr);
    }
    return *this;
  }

  /// Binds the backing policy: an arena, or nullptr for heap mode. Must be
  /// called while empty with no backing span (freshly constructed or after
  /// release()) — rebinding a live span would leak it in heap mode and
  /// free arena memory the arena still owns in arena mode.
  void bind(Arena* arena) noexcept {
    nc_invariant(data_ == nullptr && size_ == 0,
                 "ArenaVec::bind requires an empty vector with no span");
    arena_ = arena;
  }

  /// Drops the span. Arena mode: the memory belongs to the arena (a reset
  /// reclaims it); heap mode: freed. Required after the bound arena was
  /// reset — the old span is dangling.
  void release() noexcept {
    if (arena_ == nullptr && data_ != nullptr) {
      ::operator delete(static_cast<void*>(data_));
    }
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
  }

  void clear() noexcept { size_ = 0; }

  /// Makes room for exactly `want` elements (no doubling slack).
  void reserve(std::size_t want) {
    if (want > capacity_) reallocate(want);
  }

  T& push_back(const T& value) {
    if (size_ == capacity_) grow(size_ + 1);
    data_[size_] = value;
    return data_[size_++];
  }

  /// Appends `count` uninitialized slots and returns the first.
  T* append(std::size_t count) {
    if (size_ + count > capacity_) grow(size_ + count);
    T* out = data_ + size_;
    size_ += count;
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity_slots() const noexcept {
    return capacity_;
  }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  void grow(std::size_t need) {
    std::size_t want = capacity_ < 8 ? 8 : capacity_ * 2;
    reallocate(want < need ? need : want);
  }

  void reallocate(std::size_t want) {
    T* fresh;
    if (arena_ != nullptr) {
      fresh = arena_->allocate_array<T>(want);
    } else {
      fresh = static_cast<T*>(::operator new(want * sizeof(T)));
    }
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    if (arena_ == nullptr && data_ != nullptr) {
      ::operator delete(static_cast<void*>(data_));
    }
    data_ = fresh;
    capacity_ = want;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  Arena* arena_ = nullptr;
};

}  // namespace nc
