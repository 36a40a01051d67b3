#pragma once

#include <cstdint>
#include <cstring>

#include "runtime/link.hpp"
#include "runtime/message.hpp"
#include "runtime/stream.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"

namespace nc {

/// Block of staged message copies — the storage behind the sharded engine's
/// (src-shard → dst-shard) lanes, the sending shard's in-flight buckets and
/// the reliability service's FEC hold.
///
/// One physical copy is one 24-byte Copy record, written once by the stage
/// phase and read in place by the deliver phase: no second encoding, no
/// per-message heap symbol vector. The payload encoding is two-tier:
///   - *inline*: a message of at most two symbols and at most 64 payload
///     bits — every message of the paper's protocol, whose symbols are one
///     bit or one node ID wide — keeps its packed payload in the record's
///     one payload word, and its symbol count and widths in spare meta bits;
///   - *spilled*: anything larger blits a Spill header (its own bit and
///     symbol counts), its packed words and its symbol widths into one
///     allocation of the block's payload storage, and the record points at
///     it.
/// Either way the payload is copied exactly once at stage time, straight
/// from the producer's shared SymbolBuffer via a MsgView; moving a copy to
/// another block (an FEC release from the hold into an in-flight bucket)
/// copies the record and, when spilled, its one payload allocation. Only
/// this header knows the layout: the engine reads a copy through its
/// accessors, wire_bits() and deliver_to() above all.
///
/// Backing storage: a lane binds its shard's per-round Arena for records
/// and payloads alike, and start_round() sizes the records once per round,
/// after the arena's O(1) reset — the stage phase counts an upper bound
/// first, so a lane never grows mid-round. In-flight buckets and the FEC
/// hold stay heap-backed, with spilled payloads in an arena of their own,
/// because they outlive rounds and the shard arena rewinds every round.
/// A block holds no due round: a lane carries only copies due in the round
/// that staged them, and an in-flight bucket is keyed by its due round.
/// RunStats bit accounting is untouched: a copy's wire bits are the header
/// plus its payload bits, exactly as Link::schedule_view computed them.
class MsgBlock {
  /// A spilled payload: its counts, then its packed words, then one width
  /// byte per symbol, in one word-aligned allocation.
  struct Spill {
    std::uint32_t bits;
    std::uint32_t symbols;

    [[nodiscard]] std::size_t word_count() const noexcept {
      return (std::size_t{bits} + 63) >> 6;
    }
    [[nodiscard]] std::size_t bytes() const noexcept {
      return sizeof(Spill) + word_count() * sizeof(std::uint64_t) + symbols;
    }
    [[nodiscard]] std::uint64_t* words() noexcept {
      return reinterpret_cast<std::uint64_t*>(this + 1);
    }
    [[nodiscard]] const std::uint64_t* words() const noexcept {
      return reinterpret_cast<const std::uint64_t*>(this + 1);
    }
    [[nodiscard]] const std::uint8_t* widths() const noexcept {
      return reinterpret_cast<const std::uint8_t*>(words() + word_count());
    }
  };
  static_assert(sizeof(Spill) == sizeof(std::uint64_t),
                "the payload words after a Spill header stay word-aligned");

 public:
  /// One staged physical copy.
  class Copy {
   public:
    NodeId to;                 ///< destination node
    std::uint32_t back_index;  ///< the sender's index in `to`'s adjacency

    [[nodiscard]] std::uint16_t kind() const noexcept {
      return static_cast<std::uint16_t>(meta_ & 31u);
    }
    [[nodiscard]] StreamKey key() const noexcept {
      return StreamKey{kind(), tag_,
                       static_cast<std::uint16_t>((meta_ >> 5) & 15u)};
    }
    [[nodiscard]] bool eos() const noexcept { return (meta_ & kEosBit) != 0; }
    [[nodiscard]] bool spilled() const noexcept {
      return (meta_ & kSpillBit) != 0;
    }

    /// Header + payload: what the copy costs on the wire. A stream holds
    /// at most 2^31 - 1 payload bits (SymbolBuffer::kMaxLength), so even a
    /// LOCAL drain's payload fits its 32-bit count.
    [[nodiscard]] std::uint64_t wire_bits(unsigned header_bits) const noexcept {
      return header_bits + (spilled() ? std::uint64_t{spill_->bits}
                                      : inline_width(0) + inline_width(1));
    }

    /// Appends the copy's symbols to `stream`, then its EOS flag.
    void deliver_to(InStream& stream) const {
      if (spilled()) {
        stream.deliver_packed(spill_->words(), spill_->word_count(), 0,
                              spill_->bits, spill_->widths(),
                              spill_->symbols);
      } else {
        // Inline: bits past the payload are zero, so the second symbol is
        // the word shifted past the first, and a lone symbol is the word.
        const unsigned count = (meta_ >> kCountShift) & 3u;
        const unsigned w0 = inline_width(0);
        if (count == 1) stream.deliver(word_, w0);
        if (count == 2) {
          stream.deliver(word_ & ((std::uint64_t{1} << w0) - 1), w0);
          stream.deliver(word_ >> w0, inline_width(1));
        }
      }
      if (eos()) stream.deliver_eos();
    }

   private:
    friend class MsgBlock;

    [[nodiscard]] unsigned inline_width(unsigned i) const noexcept {
      return (meta_ >> (kWidthShift + 7 * i)) & 127u;
    }

    NodeId tag_;  ///< stream key tag
    /// kind (5 bits) | version (4) | eos | spilled | inline symbol count
    /// (2) | inline widths (7 + 7). The kind and version widths mirror the
    /// wire header's fields (see stream_header_bits), so kMaxMsgKinds and
    /// kMaxStreamVersions bound them by construction.
    std::uint32_t meta_;
    union {
      std::uint64_t word_;  ///< inline: the packed payload
      Spill* spill_;        ///< spilled: the payload allocation
    };
  };
  static_assert(sizeof(Copy) == 24, "a staged copy is 24 bytes");

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
    Copy& c = *recs_.append(1);
    c.to = to;
    c.back_index = back_index;
    c.tag_ = v.key.tag;
    const std::uint32_t meta = static_cast<std::uint32_t>(
        v.key.kind | (v.key.version << 5) | (v.eos ? kEosBit : 0u));
    if (v.symbol_count <= kInlineSymbols && v.bit_len <= 64) {
      unsigned w0 = 0, w1 = 0;
      if (v.symbol_count >= 1) w0 = v.buf->width_at(v.first_symbol);
      if (v.symbol_count == 2) w1 = v.buf->width_at(v.first_symbol + 1);
      c.meta_ = meta |
                static_cast<std::uint32_t>(v.symbol_count << kCountShift) |
                (w0 << kWidthShift) | (w1 << (kWidthShift + 7));
      c.word_ = v.bit_len == 0
                    ? 0
                    : read_packed_bits(v.buf->words(), v.buf->word_count(),
                                       v.bit_off,
                                       static_cast<unsigned>(v.bit_len));
      return;
    }
    c.meta_ = meta | kSpillBit;
    Spill& s = alloc_spill(Spill{static_cast<std::uint32_t>(v.bit_len),
                                 static_cast<std::uint32_t>(v.symbol_count)});
    std::uint64_t* dst = s.words();
    std::size_t rem = v.bit_len;
    for (std::size_t w = 0; rem > 0; ++w) {
      const unsigned take = rem >= 64 ? 64u : static_cast<unsigned>(rem);
      dst[w] = read_packed_bits(v.buf->words(), v.buf->word_count(),
                                v.bit_off + (w << 6), take);
      rem -= take;
    }
    std::memcpy(dst + s.word_count(), v.buf->widths() + v.first_symbol,
                v.symbol_count);
    c.spill_ = &s;
  }

  /// Appends copy `c` of another block: a parked copy kept or released. A
  /// spilled payload is copied into this block's storage in one memcpy.
  void append(const Copy& c) {
    Copy& out = *recs_.append(1);
    out = c;
    if (c.spilled()) {
      Spill& s = alloc_spill(*c.spill_);
      std::memcpy(&s, c.spill_, c.spill_->bytes());
      out.spill_ = &s;
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
  static constexpr std::uint32_t kEosBit = 1u << 9;
  static constexpr std::uint32_t kSpillBit = 1u << 10;
  static constexpr unsigned kCountShift = 11;
  static constexpr unsigned kWidthShift = 13;

  /// One word-aligned allocation for a spilled payload of `counts`' size,
  /// with the counts written: in the bound arena, else in the block's own.
  Spill& alloc_spill(const Spill& counts) {
    Arena& a = arena_ != nullptr ? *arena_ : own_;
    auto* s = static_cast<Spill*>(
        a.allocate(counts.bytes(), alignof(std::uint64_t)));
    *s = counts;
    return *s;
  }

  ArenaVec<Copy> recs_;
  Arena* arena_ = nullptr;
  Arena own_;  ///< heap mode: spilled payloads
};

}  // namespace nc
