#pragma once

#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>

#include "util/ids.hpp"

namespace nc {

/// Identifies a logical stream of symbols between two adjacent nodes.
///
/// `kind` is a protocol-defined message kind (goes on the wire in 5 bits),
/// `tag` is protocol context — almost always the ID of the component root the
/// stream belongs to (id_width(n) bits on the wire) — and `version` is the
/// boosting version index of Section 4.1 (4 bits on the wire, so up to 16
/// interleaved versions).
struct StreamKey {
  std::uint16_t kind = 0;
  NodeId tag = 0;
  std::uint16_t version = 0;

  auto operator<=>(const StreamKey&) const = default;
};

/// Number of distinct message kinds the wire format supports. The stream
/// header encodes the kind in 5 bits (see stream_header_bits), so kinds are
/// restricted to [0, 32): the runtime's fixed-size per-kind tables
/// (RunStats::bits_by_kind, rx counters, inbox buckets) are sized by this
/// and NodeApi::open_stream rejects anything out of range instead of
/// silently aliasing counters.
inline constexpr std::uint16_t kMaxMsgKinds = 32;

/// Number of distinct stream versions the wire format supports: the header
/// encodes the boosting version index in 4 bits, so versions live in
/// [0, 16). NodeApi::open_stream rejects anything out of range — versions
/// 16 and 0 would alias on the wire and the header accounting would
/// undercharge.
inline constexpr std::uint16_t kMaxStreamVersions = 16;

/// Number of header bits a physical message spends identifying its stream:
/// kind (5) + tag (id bits) + version (4) + end-of-stream flag (1).
/// FIFO links neither lose nor reorder, so no sequence number is needed.
unsigned stream_header_bits(unsigned id_bits) noexcept;

/// Append-only packed buffer of variable-width symbols.
///
/// A symbol is an unsigned value together with its width in bits; the width
/// is what the CONGEST accountant charges for it. Buffers are immutable once
/// handed to the runtime and may be shared among many outgoing links (a
/// broadcast writes its payload once). Readers walk them with width_at /
/// value_at, tracking their own bit offset (InStream, Link).
///
/// Storage is two-tier. A buffer of at most kInlineSymbols symbols and 64
/// payload bits — the common stream of the paper's O(log n)-bit messages —
/// keeps its one payload word and its widths inline, with no heap block at
/// all. The 9th symbol or the 65th payload bit *spills* the buffer: both
/// arrays move to the heap, where they grow by doubling. The tier is a pure
/// function of (size, bit_size) — both only grow — so it needs no flag, and
/// every reader sees one packed little-endian word array either way.
///
/// Both counts are 32-bit and capped at kMaxLength, which keeps the
/// object at 24 bytes and leaves readers a spare cursor bit (LinkStream).
/// A put() or append that would cross the cap throws std::length_error
/// before touching the buffer or the source.
class SymbolBuffer {
 public:
  /// Symbols a buffer holds before it spills to the heap.
  static constexpr std::size_t kInlineSymbols = 8;

  /// Most symbols, and most payload bits, one buffer holds: 2^31 - 1.
  static constexpr std::size_t kMaxLength = (std::size_t{1} << 31) - 1;

  SymbolBuffer() noexcept = default;
  SymbolBuffer(const SymbolBuffer& other);
  SymbolBuffer(SymbolBuffer&& other) noexcept;
  SymbolBuffer& operator=(const SymbolBuffer& other);
  SymbolBuffer& operator=(SymbolBuffer&& other) noexcept;
  ~SymbolBuffer() { release(); }

  /// Appends a symbol of `width` bits (1..64). Precondition: value < 2^width.
  void put(std::uint64_t value, unsigned width) {
    assert(width >= 1 && width <= 64);
    assert(width == 64 || value < (1ULL << width));
    if (size_ < kInlineSymbols && total_bits_ + width <= 64) {
      // Inline fast path (total_bits_ <= 63 here, so the shift is defined).
      pay_.word |= value << total_bits_;
      wid_.bytes[size_] = static_cast<std::uint8_t>(width);
      ++size_;
      total_bits_ += width;
      return;
    }
    put_spilled(value, width);
  }

  /// Appends a single bit.
  void put_bit(bool b) { put(b ? 1 : 0, 1); }

  /// Number of symbols stored.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Total payload width in bits.
  [[nodiscard]] std::size_t bit_size() const noexcept { return total_bits_; }

  /// True once the buffer has outgrown its inline word and widths.
  [[nodiscard]] bool spilled() const noexcept {
    return size_ > kInlineSymbols || total_bits_ > 64;
  }

  /// Width of the idx-th symbol.
  [[nodiscard]] unsigned width_at(std::size_t idx) const noexcept {
    return widths()[idx];
  }

  /// Value of the symbol starting at bit offset `bit_off` with given width.
  [[nodiscard]] std::uint64_t value_at(std::size_t bit_off,
                                       unsigned width) const noexcept {
    const std::uint64_t* w = words();
    const std::size_t word = bit_off >> 6;
    const unsigned off = static_cast<unsigned>(bit_off & 63);
    std::uint64_t v = w[word] >> off;
    if (off + width > 64) v |= w[word + 1] << (64 - off);
    if (width < 64) v &= (1ULL << width) - 1;
    return v;
  }

  /// Raw packed words (little-endian bit order within each word). With
  /// word_count() and widths(), lets the runtime's SoA lanes blit symbol
  /// runs in 64-bit chunks instead of re-packing symbol by symbol.
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return spilled() ? pay_.heap : &pay_.word;
  }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return (total_bits_ + 63) >> 6;
  }
  [[nodiscard]] const std::uint8_t* widths() const noexcept {
    return spilled() ? wid_.heap : wid_.bytes;
  }

  /// Bulk append: copies `count` symbols totalling `nbits` payload bits out
  /// of another packed word array, starting at bit `src_bit`. Produces the
  /// exact buffer a sequence of put() calls with the same values/widths
  /// would — the deliver path uses it to move a whole message in word-sized
  /// chunks.
  void append_packed(const std::uint64_t* src_words, std::size_t src_word_count,
                     std::size_t src_bit, std::size_t nbits,
                     const std::uint8_t* widths, std::size_t count);

  /// Heap capacities, as pure functions of the live counts (so they need
  /// no fields): doubling, from 2 words and 16 widths. InStream's spill
  /// block uses the same ones.
  static std::size_t word_capacity(std::size_t words) noexcept;
  static std::size_t width_capacity(std::size_t symbols) noexcept;

 private:
  /// put() past the inline tier: spills or grows the heap arrays first.
  void put_spilled(std::uint64_t value, unsigned width);

  /// Throws std::length_error if `size` symbols or `bits` payload bits
  /// exceed kMaxLength.
  static void check_length(std::size_t size, std::size_t bits);

  /// Makes the heap arrays hold `size` symbols and `bits` payload bits,
  /// moving the inline word and widths out on the first call. Leaves the
  /// counters alone — the caller appends, then advances them, so until
  /// then spilled() may still report the old tier.
  void reserve_spilled(std::size_t size, std::size_t bits);

  /// Frees the heap arrays of a spilled buffer.
  void release() noexcept;

  /// Takes `other`'s storage (inline bytes or heap pointers alike) and
  /// leaves it empty and inline. Precondition: this buffer holds no heap
  /// arrays.
  void take(SymbolBuffer& other) noexcept;

  // Each union holds its inline member until the buffer spills, its heap
  // pointer after: spilled() says which, so nothing else tags them.
  union Payload {
    std::uint64_t word;    ///< inline tier: the payload word
    std::uint64_t* heap;   ///< spilled: word_capacity() words
  };
  union Widths {
    std::uint8_t bytes[kInlineSymbols];  ///< inline tier
    std::uint8_t* heap;                  ///< spilled: width_capacity() widths
  };
  Payload pay_{0};
  Widths wid_{};
  std::uint32_t total_bits_ = 0;
  std::uint32_t size_ = 0;
};

/// Reads `take` (1..64) bits starting at absolute bit `bit` from a packed
/// word array. `word_count` guards the straddling read at the array's end.
[[nodiscard]] inline std::uint64_t read_packed_bits(
    const std::uint64_t* words, std::size_t word_count, std::size_t bit,
    unsigned take) noexcept {
  const std::size_t word = bit >> 6;
  const unsigned off = static_cast<unsigned>(bit & 63);
  std::uint64_t v = words[word] >> off;
  if (off != 0 && word + 1 < word_count) v |= words[word + 1] << (64 - off);
  if (take < 64) v &= (1ULL << take) - 1;
  return v;
}

/// ORs `nbits` bits read from a packed word array at bit `src_bit` into
/// `dst` at bit `dst_bit`, in 64-bit chunks. Exact when `dst` is zero
/// from `dst_bit` on, as a buffer's words past its payload are.
inline void or_packed_bits(std::uint64_t* dst, std::size_t dst_bit,
                           const std::uint64_t* src, std::size_t src_word_count,
                           std::size_t src_bit, std::size_t nbits) noexcept {
  for (std::size_t rem = nbits; rem > 0;) {
    const unsigned take = rem >= 64 ? 64u : static_cast<unsigned>(rem);
    const std::uint64_t v = read_packed_bits(src, src_word_count, src_bit, take);
    const std::size_t word = dst_bit >> 6;
    const unsigned off = static_cast<unsigned>(dst_bit & 63);
    dst[word] |= v << off;
    if (off + take > 64) dst[word + 1] |= v >> (64 - off);
    dst_bit += take;
    src_bit += take;
    rem -= take;
  }
}

}  // namespace nc
