#include "runtime/message.hpp"

#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/bitio.hpp"

namespace nc {

// The 5-bit kind and 4-bit version fields below are what bound kMaxMsgKinds
// and kMaxStreamVersions; keep them in sync.
static_assert(kMaxMsgKinds == (1u << 5),
              "kMaxMsgKinds must match the 5-bit kind field of the header");
static_assert(kMaxStreamVersions == (1u << 4),
              "kMaxStreamVersions must match the 4-bit version field");

unsigned stream_header_bits(unsigned id_bits) noexcept {
  return 5u + id_bits + 4u + 1u;
}

std::size_t SymbolBuffer::word_capacity(std::size_t words) noexcept {
  return words <= 2 ? 2 : std::bit_ceil(words);
}

std::size_t SymbolBuffer::width_capacity(std::size_t symbols) noexcept {
  return symbols <= 16 ? 16 : std::bit_ceil(symbols);
}

SymbolBuffer::SymbolBuffer(const SymbolBuffer& other)
    : total_bits_(other.total_bits_), size_(other.size_) {
  if (!other.spilled()) {
    pay_ = other.pay_;
    wid_ = other.wid_;
    return;
  }
  const std::size_t nwords = word_count();
  auto words = std::make_unique<std::uint64_t[]>(word_capacity(nwords));
  auto widths = std::make_unique<std::uint8_t[]>(width_capacity(size_));
  std::memcpy(words.get(), other.pay_.heap, nwords * sizeof(std::uint64_t));
  std::memcpy(widths.get(), other.wid_.heap, size_);
  pay_.heap = words.release();
  wid_.heap = widths.release();
}

SymbolBuffer::SymbolBuffer(SymbolBuffer&& other) noexcept { take(other); }

SymbolBuffer& SymbolBuffer::operator=(const SymbolBuffer& other) {
  if (this != &other) *this = SymbolBuffer(other);
  return *this;
}

SymbolBuffer& SymbolBuffer::operator=(SymbolBuffer&& other) noexcept {
  if (this != &other) {
    release();
    take(other);
  }
  return *this;
}

void SymbolBuffer::take(SymbolBuffer& other) noexcept {
  pay_ = other.pay_;
  wid_ = other.wid_;
  total_bits_ = other.total_bits_;
  size_ = other.size_;
  other.pay_ = Payload{0};
  other.wid_ = Widths{};
  other.total_bits_ = 0;
  other.size_ = 0;
}

void SymbolBuffer::release() noexcept {
  if (spilled()) {
    delete[] pay_.heap;
    delete[] wid_.heap;
  }
}

void SymbolBuffer::reserve_spilled(std::size_t size, std::size_t bits) {
  const std::size_t need_words = (bits + 63) >> 6;
  if (!spilled()) {
    auto words = std::make_unique<std::uint64_t[]>(word_capacity(need_words));
    auto widths = std::make_unique<std::uint8_t[]>(width_capacity(size));
    words[0] = pay_.word;
    std::memcpy(widths.get(), wid_.bytes, size_);
    pay_.heap = words.release();
    wid_.heap = widths.release();
    return;
  }
  const std::size_t have_words = word_count();
  if (word_capacity(need_words) != word_capacity(have_words)) {
    // make_unique zero-fills: put() never writes above total_bits_, so
    // every word past the live payload stays zero and OR-merging is exact.
    auto words = std::make_unique<std::uint64_t[]>(word_capacity(need_words));
    std::memcpy(words.get(), pay_.heap, have_words * sizeof(std::uint64_t));
    delete[] pay_.heap;
    pay_.heap = words.release();
  }
  if (width_capacity(size) != width_capacity(size_)) {
    auto widths = std::make_unique<std::uint8_t[]>(width_capacity(size));
    std::memcpy(widths.get(), wid_.heap, size_);
    delete[] wid_.heap;
    wid_.heap = widths.release();
  }
}

void SymbolBuffer::check_length(std::size_t size, std::size_t bits) {
  if (size > kMaxLength || bits > kMaxLength) {
    throw std::length_error(
        "SymbolBuffer: a stream holds at most 2^31 - 1 symbols and bits");
  }
}

void SymbolBuffer::put_spilled(std::uint64_t value, unsigned width) {
  const std::size_t end_size = size_ + std::size_t{1};
  const std::size_t end_bits = total_bits_ + std::size_t{width};
  check_length(end_size, end_bits);
  reserve_spilled(end_size, end_bits);
  const std::size_t word = total_bits_ >> 6;
  const unsigned off = static_cast<unsigned>(total_bits_ & 63);
  pay_.heap[word] |= value << off;
  if (off + width > 64) pay_.heap[word + 1] |= value >> (64 - off);
  wid_.heap[size_] = static_cast<std::uint8_t>(width);
  ++size_;
  total_bits_ += width;
}

void SymbolBuffer::append_packed(const std::uint64_t* src_words,
                                 std::size_t src_word_count,
                                 std::size_t src_bit, std::size_t nbits,
                                 const std::uint8_t* widths,
                                 std::size_t count) {
  if (count == 0) return;
  const std::size_t end_bits = total_bits_ + nbits;
  const std::size_t end_size = size_ + count;
  check_length(end_size, end_bits);
  if (end_size <= kInlineSymbols && end_bits <= 64) {
    // Stays inline: the whole run is one read (nbits <= 64 - total_bits_).
    pay_.word |= read_packed_bits(src_words, src_word_count, src_bit,
                                  static_cast<unsigned>(nbits))
                 << total_bits_;
    std::memcpy(wid_.bytes + size_, widths, count);
  } else {
    reserve_spilled(end_size, end_bits);
    std::memcpy(wid_.heap + size_, widths, count);
    std::size_t dst = total_bits_;
    std::size_t src = src_bit;
    for (std::size_t rem = nbits; rem > 0;) {
      const unsigned take = rem >= 64 ? 64u : static_cast<unsigned>(rem);
      const std::uint64_t v =
          read_packed_bits(src_words, src_word_count, src, take);
      const std::size_t word = dst >> 6;
      const unsigned off = static_cast<unsigned>(dst & 63);
      pay_.heap[word] |= v << off;
      if (off + take > 64) pay_.heap[word + 1] |= v >> (64 - off);
      dst += take;
      src += take;
      rem -= take;
    }
  }
  size_ = static_cast<std::uint32_t>(end_size);
  total_bits_ = static_cast<std::uint32_t>(end_bits);
}

}  // namespace nc
