#include "runtime/stream.hpp"

#include <cstring>
#include <stdexcept>

namespace nc {

namespace {

// A spill block's word capacity for `bits` payload bits, and the bytes of
// its words and widths after the header, at SymbolBuffer's capacities.
std::size_t spill_words(std::size_t bits) noexcept {
  return SymbolBuffer::word_capacity((bits + 63) >> 6);
}

std::size_t spill_payload_bytes(std::size_t size, std::size_t bits) noexcept {
  return spill_words(bits) * sizeof(std::uint64_t) +
         SymbolBuffer::width_capacity(size);
}

}  // namespace

InStream::InStream(const InStream& other) : pay_(other.pay_), meta_(other.meta_) {
  if (spilled()) {
    const Spill& from = *other.pay_.spill;
    const std::size_t bytes =
        sizeof(Spill) + spill_payload_bytes(from.size, from.bits);
    pay_.spill = static_cast<Spill*>(::operator new(bytes));
    std::memcpy(pay_.spill, &from, bytes);
  }
}

void InStream::deliver_packed(const std::uint64_t* words,
                              std::size_t word_count, std::size_t src_bit,
                              std::size_t nbits, const std::uint8_t* widths,
                              std::size_t count) {
  if (count == 0) return;
  if (!spilled()) {
    const unsigned n = this->count();
    const unsigned bits = inline_bits();
    if (count <= kInlineSymbols - n && nbits <= 64 - bits) {
      // Stays inline: the whole run is one read, and nbits >= count >= 1.
      pay_.word |= read_packed_bits(words, word_count, src_bit,
                                    static_cast<unsigned>(nbits))
                   << bits;
      for (std::size_t i = 0; i < count; ++i) {
        meta_ |= std::uint64_t{widths[i] - 1u} << (6 * (n + i));
      }
      meta_ += count * kOneSymbol;
      return;
    }
  }
  append_spilled(words, word_count, src_bit, nbits, widths, count);
}

void InStream::deliver_spilled(std::uint64_t value, unsigned width) {
  const auto w = static_cast<std::uint8_t>(width);
  append_spilled(&value, 1, 0, width, &w, 1);
}

std::uint64_t InStream::pop_spilled() noexcept {
  Spill& s = *pay_.spill;
  const std::size_t cap_words = spill_words(s.bits);
  const auto* words = reinterpret_cast<const std::uint64_t*>(&s + 1);
  const auto* widths = reinterpret_cast<const std::uint8_t*>(words + cap_words);
  const unsigned w = widths[s.read_idx];
  const std::uint64_t v = read_packed_bits(words, cap_words, s.read_bit, w);
  s.read_bit += w;
  ++s.read_idx;
  return v;
}

void InStream::append_spilled(const std::uint64_t* words,
                              std::size_t word_count, std::size_t src_bit,
                              std::size_t nbits, const std::uint8_t* widths,
                              std::size_t count) {
  const std::size_t size = delivered();
  const std::size_t bits = spilled() ? pay_.spill->bits : inline_bits();
  const std::size_t end_size = size + count;
  const std::size_t end_bits = bits + nbits;
  if (end_size > SymbolBuffer::kMaxLength ||
      end_bits > SymbolBuffer::kMaxLength) {
    throw std::length_error(
        "InStream: a stream holds at most 2^31 - 1 symbols and bits");
  }
  // Both capacities only grow, so the block's size changes exactly when
  // one of them does, and the widths then start elsewhere.
  if (!spilled() || spill_payload_bytes(end_size, end_bits) !=
                        spill_payload_bytes(size, bits)) {
    Spill* block = make_block(end_size, end_bits);
    release();
    pay_.spill = block;
    meta_ = (meta_ & kEosBit) | kSpillBit;
  }
  Spill& s = *pay_.spill;
  auto* dst_words = reinterpret_cast<std::uint64_t*>(&s + 1);
  auto* dst_widths =
      reinterpret_cast<std::uint8_t*>(dst_words + spill_words(end_bits));
  std::memcpy(dst_widths + size, widths, count);
  or_packed_bits(dst_words, bits, words, word_count, src_bit, nbits);
  s.size = static_cast<std::uint32_t>(end_size);
  s.bits = static_cast<std::uint32_t>(end_bits);
}

InStream::Spill* InStream::make_block(std::size_t size,
                                      std::size_t bits) const {
  const std::size_t cap_words = spill_words(bits);
  const std::size_t bytes = sizeof(Spill) + spill_payload_bytes(size, bits);
  auto* block = static_cast<Spill*>(::operator new(bytes));
  std::memset(block, 0, bytes);
  auto* words = reinterpret_cast<std::uint64_t*>(block + 1);
  auto* widths = reinterpret_cast<std::uint8_t*>(words + cap_words);
  if (spilled()) {
    const Spill& from = *pay_.spill;
    const auto* from_words = reinterpret_cast<const std::uint64_t*>(&from + 1);
    *block = from;
    std::memcpy(words, from_words,
                ((from.bits + 63) >> 6) * sizeof(std::uint64_t));
    std::memcpy(widths, from_words + spill_words(from.bits), from.size);
    return block;
  }
  const unsigned n = count();
  words[0] = pay_.word;
  block->size = n;
  block->bits = inline_bits();
  block->read_idx = read_idx();
  for (unsigned i = 0; i < n; ++i) {
    widths[i] = static_cast<std::uint8_t>(inline_width(i));
    if (i < read_idx()) block->read_bit += widths[i];
  }
  return block;
}

}  // namespace nc
