#pragma once

#include <cstdint>
#include <cstring>

#include "runtime/link.hpp"
#include "runtime/message.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"

namespace nc {

/// Block of staged message copies — the storage behind the sharded engine's
/// (src-shard → dst-shard) lanes, the sending shard's in-flight buckets and
/// the reliability service's FEC hold.
///
/// One physical copy is one 40-byte Copy record, written once by the stage
/// phase and read in place by the deliver phase: no second encoding, no
/// per-message heap symbol vector. The payload encoding is two-tier:
///   - *inline*: messages of at most two symbols — the dominant CONGEST
///     kinds carry 1–2 machine words — keep their symbol values in the
///     record and their two widths packed into one 16-bit field;
///   - *spilled*: anything larger blits its packed words, followed by its
///     symbol widths, into one allocation of the block's payload storage,
///     and the record points at it.
/// Either way the payload is copied exactly once at stage time, straight
/// from the producer's shared SymbolBuffer via a MsgView; moving a copy to
/// another block (an FEC release from the hold into an in-flight bucket)
/// copies the record and, when spilled, its one payload allocation.
///
/// Backing storage: a lane binds its shard's per-round Arena for records
/// and payloads alike, and start_round() sizes the records once per round,
/// after the arena's O(1) reset — the stage phase counts an upper bound
/// first, so a lane never grows mid-round. In-flight buckets and the FEC
/// hold stay heap-backed, with spilled payloads in an arena of their own,
/// because they outlive rounds and the shard arena rewinds every round.
/// A block holds no due round: a lane carries only copies due in the round
/// that staged them, and an in-flight bucket is keyed by its due round.
/// RunStats bit accounting is untouched: wire_bits carries header + payload
/// exactly as Link::schedule_view computed it.
class MsgBlock {
 public:
  /// One staged physical copy.
  struct Copy {
    NodeId to;                 ///< destination node
    std::uint32_t back_index;  ///< the sender's index in `to`'s adjacency
    NodeId tag;                ///< stream key tag
    std::uint16_t meta;        ///< kind (5 bits) | version (4) | eos | spilled
    std::uint16_t widths;      ///< inline widths: low byte w0, high byte w1
    /// Header + payload. A stream holds at most 2^31 - 1 payload bits
    /// (SymbolBuffer::kMaxLength), so even a LOCAL drain fits 32 bits.
    std::uint32_t wire_bits;
    std::uint32_t symbol_count;
    union {
      std::uint64_t v[2];          ///< inline payload
      const std::uint64_t* words;  ///< spilled: packed words, then widths
    };

    [[nodiscard]] std::uint16_t kind() const noexcept { return meta & 31u; }
    [[nodiscard]] StreamKey key() const noexcept {
      return StreamKey{kind(), tag,
                       static_cast<std::uint16_t>((meta >> 5) & 15u)};
    }
    [[nodiscard]] bool eos() const noexcept { return (meta & kEosBit) != 0; }
    [[nodiscard]] bool spilled() const noexcept {
      return (meta & kSpillBit) != 0;
    }
    [[nodiscard]] unsigned w0() const noexcept { return widths & 0xffu; }
    [[nodiscard]] unsigned w1() const noexcept { return widths >> 8; }

    /// Spilled copies: payload bits (wire = header + payload by
    /// construction), the packed word count and the symbol widths.
    [[nodiscard]] std::size_t pay_bits(unsigned header_bits) const noexcept {
      return wire_bits - header_bits;
    }
    [[nodiscard]] std::size_t pay_word_count(
        unsigned header_bits) const noexcept {
      return (pay_bits(header_bits) + 63) >> 6;
    }
    [[nodiscard]] const std::uint8_t* pay_widths(
        unsigned header_bits) const noexcept {
      return reinterpret_cast<const std::uint8_t*>(
          words + pay_word_count(header_bits));
    }
  };
  static_assert(sizeof(Copy) == 40, "a staged copy is 40 bytes");

  /// Binds the block to `arena` (nullptr = heap mode). Call once, while
  /// empty.
  void bind(Arena* arena) noexcept {
    nc_invariant(empty(), "MsgBlock::bind must run on an empty block");
    recs_.bind(arena);
    arena_ = arena;
  }

  /// Arena mode only: called after the owning arena's reset() invalidated
  /// last round's records. Drops them and reserves exactly `capacity`
  /// records — the stage phase's upper bound on this round's copies.
  void start_round(std::size_t capacity) {
    recs_.release();
    if (capacity > 0) recs_.reserve(capacity);
  }

  /// Stages one scheduled message for `to`. The view's payload is copied
  /// into the block now; the caller may prune the source link afterwards.
  void push(const MsgView& v, NodeId to, std::uint32_t back_index) {
    const bool spill = v.symbol_count > kInlineSymbols;
    Copy& c = *recs_.append(1);
    c.to = to;
    c.back_index = back_index;
    c.tag = v.key.tag;
    c.meta = static_cast<std::uint16_t>(v.key.kind | (v.key.version << 5) |
                                        (v.eos ? kEosBit : 0) |
                                        (spill ? kSpillBit : 0));
    c.wire_bits = static_cast<std::uint32_t>(v.wire_bits);
    c.symbol_count = static_cast<std::uint32_t>(v.symbol_count);
    if (!spill) {
      unsigned w0 = 0, w1 = 0;
      c.v[0] = c.v[1] = 0;
      if (v.symbol_count >= 1) {
        w0 = v.buf->width_at(v.first_symbol);
        c.v[0] = v.buf->value_at(v.bit_off, w0);
      }
      if (v.symbol_count == 2) {
        w1 = v.buf->width_at(v.first_symbol + 1);
        c.v[1] = v.buf->value_at(v.bit_off + w0, w1);
      }
      c.widths = static_cast<std::uint16_t>(w0 | (w1 << 8));
      return;
    }
    c.widths = 0;
    const std::size_t nwords = (v.bit_len + 63) >> 6;
    std::uint64_t* dst = alloc_payload(nwords, v.symbol_count);
    std::size_t rem = v.bit_len;
    for (std::size_t w = 0; rem > 0; ++w) {
      const unsigned take = rem >= 64 ? 64u : static_cast<unsigned>(rem);
      dst[w] = read_packed_bits(v.buf->words(), v.buf->word_count(),
                                v.bit_off + (w << 6), take);
      rem -= take;
    }
    std::memcpy(dst + nwords, v.buf->widths() + v.first_symbol,
                v.symbol_count);
    c.words = dst;
  }

  /// Appends copy `c` of another block: a parked copy kept or released. A
  /// spilled payload is copied into this block's storage in one memcpy.
  void append(const Copy& c, unsigned header_bits) {
    Copy& out = *recs_.append(1);
    out = c;
    if (c.spilled()) {
      const std::size_t nwords = c.pay_word_count(header_bits);
      std::uint64_t* dst = alloc_payload(nwords, c.symbol_count);
      std::memcpy(dst, c.words,
                  nwords * sizeof(std::uint64_t) + c.symbol_count);
      out.words = dst;
    }
  }

  [[nodiscard]] const Copy& operator[](std::size_t i) const noexcept {
    return recs_[i];
  }

  /// Keeps, in order and in place, only the copies `keep(copy)` accepts.
  /// Payload storage is not reclaimed: a kept spilled copy still points
  /// into it, and the rest goes with the block.
  template <typename Keep>
  void retain(Keep&& keep) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      if (keep(recs_[i])) recs_[kept++] = recs_[i];
    }
    recs_.truncate(kept);
  }

  [[nodiscard]] std::size_t size() const noexcept { return recs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return recs_.empty(); }

 private:
  static constexpr std::size_t kInlineSymbols = 2;
  // meta layout: kind (5 bits) | version (4 bits) | eos (1) | spilled (1).
  // The widths mirror the wire header's fields (see stream_header_bits), so
  // kMaxMsgKinds/kMaxStreamVersions bound them by construction.
  static constexpr std::uint16_t kEosBit = 1u << 9;
  static constexpr std::uint16_t kSpillBit = 1u << 10;

  /// One word-aligned allocation for `words` payload words followed by
  /// `symbols` width bytes: in the bound arena, else in the block's own.
  std::uint64_t* alloc_payload(std::size_t words, std::size_t symbols) {
    Arena& a = arena_ != nullptr ? *arena_ : own_;
    return static_cast<std::uint64_t*>(a.allocate(
        words * sizeof(std::uint64_t) + symbols, alignof(std::uint64_t)));
  }

  ArenaVec<Copy> recs_;
  Arena* arena_ = nullptr;
  Arena own_;  ///< heap mode: spilled payloads
};

}  // namespace nc
