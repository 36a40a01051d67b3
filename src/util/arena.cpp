#include "util/arena.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace nc {

Arena::~Arena() { release(); }

Arena::Arena(Arena&& other) noexcept
    : head_(std::exchange(other.head_, nullptr)),
      offset_(std::exchange(other.offset_, 0)),
      used_(std::exchange(other.used_, 0)),
      capacity_(std::exchange(other.capacity_, 0)),
      high_water_(std::exchange(other.high_water_, 0)) {}

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    release();
    head_ = std::exchange(other.head_, nullptr);
    offset_ = std::exchange(other.offset_, 0);
    used_ = std::exchange(other.used_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    high_water_ = std::exchange(other.high_water_, 0);
  }
  return *this;
}

void* Arena::allocate(std::size_t size, std::size_t align) {
  nc_invariant(align != 0 && (align & (align - 1)) == 0,
               "arena alignment must be a power of two");
  // Align the absolute address, not the block-relative offset: block data
  // starts only max_align-aligned, so for align > alignof(max_align_t) the
  // two differ.
  if (head_ != nullptr) {
    const auto base = reinterpret_cast<std::uintptr_t>(head_->data());
    const std::uintptr_t addr =
        (base + offset_ + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
    const std::size_t aligned = static_cast<std::size_t>(addr - base);
    if (aligned + size <= head_->capacity) {
      void* out = head_->data() + aligned;
      used_ += (aligned - offset_) + size;
      offset_ = aligned + size;
      if (used_ > high_water_) high_water_ = used_;
      return out;
    }
  }
  grow(size + align - 1);  // slack so the fresh block can align too
  const auto base = reinterpret_cast<std::uintptr_t>(head_->data());
  const std::uintptr_t addr =
      (base + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
  const std::size_t aligned = static_cast<std::size_t>(addr - base);
  void* out = head_->data() + aligned;
  offset_ = aligned + size;
  used_ += aligned + size;
  if (used_ > high_water_) high_water_ = used_;
  return out;
}

void Arena::reset() {
  if (head_ != nullptr && head_->prev != nullptr) {
    // Multi-block round: replace the chain with one block sized for the
    // observed footprint so the steady state is a single rewind.
    const std::size_t want = std::max(capacity_, used_);
    release();
    grow(want);
  }
  offset_ = 0;
  used_ = 0;
  nc_invariant(head_ == nullptr || head_->prev == nullptr,
               "arena reset must leave a single coalesced block");
}

void Arena::release() {
  Block* b = head_;
  while (b != nullptr) {
    Block* prev = b->prev;
    ::operator delete(static_cast<void*>(b));
    b = prev;
  }
  head_ = nullptr;
  offset_ = 0;
  used_ = 0;
  capacity_ = 0;
}

void Arena::grow(std::size_t need) {
  std::size_t want = head_ == nullptr ? kMinBlockBytes : head_->capacity * 2;
  if (want < need) want = need;
  // operator new returns max_align storage and sizeof(Block) is a multiple
  // of that alignment, so Block::data() (== this + 1) starts max_aligned.
  static_assert(sizeof(Block) % alignof(std::max_align_t) == 0);
  auto* raw = static_cast<unsigned char*>(::operator new(sizeof(Block) + want));
  auto* block = reinterpret_cast<Block*>(raw);
  block->prev = head_;
  block->capacity = want;
  head_ = block;
  offset_ = 0;
  capacity_ += want;
}

}  // namespace nc
