#pragma once

#include <cstdint>
#include <cstring>

#include "runtime/link.hpp"
#include "runtime/message.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"

namespace nc {

/// Structure-of-arrays block of staged messages — the storage behind the
/// sharded engine's (src-shard → dst-shard) lanes and the fault engine's
/// delayed buckets.
///
/// Each staged message is a row across parallel flat columns (destination,
/// back index, stream key, meta flags, wire bits, symbol count, two inline
/// words) — a deliver phase is a linear scan over contiguous arrays, no
/// pointer chasing, no per-message heap symbol vector. The payload encoding
/// is two-tier:
///   - *inline*: messages of at most two symbols — the dominant CONGEST
///     kinds carry 1–2 machine words — store their symbol values directly
///     in the v0/v1 columns and their widths packed into the w01 column;
///   - *spilled*: anything larger blits its packed payload into the block's
///     shared payload region (word-aligned per message, so copies between
///     blocks are memcpys) and stores (word offset, width offset) in v0/v1.
/// Either way the payload is copied exactly once at stage time, straight
/// from the producer's shared SymbolBuffer via a MsgView.
///
/// Broadcast rows: a stream opened on many links (open_stream_all) drains
/// identically on every sibling link, so the stage phase stores the shared
/// payload *once per lane* and fans it out over a packed receiver list. A
/// broadcast row (kBcastBit set) reuses the to/back columns as the
/// [receiver-range start, receiver count] of a run in the rcv_to/rcv_back/
/// rcv_round columns; each receiver keeps its own delivery round because
/// the fault engine decides loss and delay per (src, dst) edge — one shared
/// payload, independent per-copy verdicts. Rows start life as ordinary
/// unicast rows and are upgraded in place when a second receiver of the
/// same scheduled view lands in the same lane (add_receiver), so a
/// broadcast with one receiver per destination shard costs exactly what a
/// unicast does. The deliver phase expands the receiver run in staged
/// order, which reproduces the per-edge path's delivery sequence — and its
/// RunStats — bit for bit: every copy charges the full wire_bits.
///
/// Backing storage is an ArenaVec per column: lanes bind the owning shard's
/// per-round Arena (begin_round() re-carves them after the arena's O(1)
/// reset); delayed buckets stay heap-backed, because they outlive rounds and
/// a bump arena can never rewind one bucket out of the middle of a round's
/// allocations. RunStats bit accounting is untouched: wire_bits carries
/// header + payload exactly as Link::schedule_view computed it.
class MsgBlock {
 public:
  /// Decoded row handed to the deliver phase.
  struct Rec {
    NodeId to;
    std::uint32_t back_index;
    StreamKey key;
    bool eos;
    bool spilled;
    bool bcast;
    std::uint32_t symbol_count;
    std::uint64_t wire_bits;
    std::uint64_t deliver_round;
    // Broadcast rows: the receiver run [rcv_begin, rcv_begin + rcv_count)
    // in the receiver columns (read via receiver()); to/back_index/
    // deliver_round are meaningless on such rows.
    std::uint32_t rcv_begin;
    std::uint32_t rcv_count;
    // Inline payload (spilled == false): up to two value/width pairs.
    std::uint64_t v0, v1;
    unsigned w0, w1;
    // Spilled payload (spilled == true): word-aligned packed symbol run.
    const std::uint64_t* pay_words;
    std::size_t pay_word_count;
    std::size_t pay_bits;
    const std::uint8_t* pay_widths;
  };

  /// One expanded copy of a broadcast row.
  struct Receiver {
    NodeId to;
    std::uint32_t back_index;
    std::uint64_t deliver_round;
  };

  /// Binds every column to `arena` (nullptr = heap mode). Call once, while
  /// empty.
  void bind(Arena* arena) noexcept {
    nc_invariant(empty() && msg_count_ == 0,
                 "MsgBlock::bind must run on an empty block");
    to_.bind(arena);
    back_.bind(arena);
    tag_.bind(arena);
    meta_.bind(arena);
    wire_.bind(arena);
    count_.bind(arena);
    round_.bind(arena);
    v0_.bind(arena);
    v1_.bind(arena);
    w01_.bind(arena);
    pay_words_.bind(arena);
    pay_widths_.bind(arena);
    rcv_to_.bind(arena);
    rcv_back_.bind(arena);
    rcv_round_.bind(arena);
    arena_mode_ = arena != nullptr;
  }

  /// Arena mode only: called after the owning arena's reset() invalidated
  /// last round's spans. Drops them and re-carves capacity for the sizes the
  /// previous round needed, so a steady-state round allocates each column
  /// exactly once and never grows mid-round.
  void begin_round() {
    const std::size_t recs = to_.size();
    const std::size_t words = pay_words_.size();
    const std::size_t wids = pay_widths_.size();
    const std::size_t rcvs = rcv_to_.size();
    release_columns();
    msg_count_ = 0;
    if (arena_mode_ && recs > 0) {
      to_.reserve(recs);
      back_.reserve(recs);
      tag_.reserve(recs);
      meta_.reserve(recs);
      wire_.reserve(recs);
      count_.reserve(recs);
      round_.reserve(recs);
      v0_.reserve(recs);
      v1_.reserve(recs);
      w01_.reserve(recs);
      if (words > 0) pay_words_.reserve(words);
      if (wids > 0) pay_widths_.reserve(wids);
      if (rcvs > 0) {
        rcv_to_.reserve(rcvs);
        rcv_back_.reserve(rcvs);
        rcv_round_.reserve(rcvs);
      }
    }
  }

  /// Stages one scheduled message. The view's payload is copied into the
  /// block now (inline words or a word-aligned blit into the payload
  /// region); the caller may prune the source link afterwards.
  void push(const MsgView& v, NodeId to, std::uint32_t back_index,
            std::uint64_t deliver_round) {
    const bool spill = v.symbol_count > kInlineSymbols;
    ++msg_count_;
    to_.push_back(to);
    back_.push_back(back_index);
    tag_.push_back(v.key.tag);
    meta_.push_back(pack_meta(v.key, v.eos, spill));
    wire_.push_back(v.wire_bits);
    count_.push_back(static_cast<std::uint32_t>(v.symbol_count));
    round_.push_back(deliver_round);
    if (!spill) {
      std::uint64_t v0 = 0, v1 = 0;
      unsigned w0 = 0, w1 = 0;
      if (v.symbol_count >= 1) {
        w0 = v.buf->width_at(v.first_symbol);
        v0 = v.buf->value_at(v.bit_off, w0);
      }
      if (v.symbol_count == 2) {
        w1 = v.buf->width_at(v.first_symbol + 1);
        v1 = v.buf->value_at(v.bit_off + w0, w1);
      }
      v0_.push_back(v0);
      v1_.push_back(v1);
      w01_.push_back(static_cast<std::uint16_t>(w0 | (w1 << 8)));
    } else {
      const std::size_t word_off = pay_words_.size();
      const std::size_t width_off = pay_widths_.size();
      const std::size_t nwords = (v.bit_len + 63) >> 6;
      std::uint64_t* dst = pay_words_.append(nwords);
      std::size_t rem = v.bit_len;
      for (std::size_t w = 0; rem > 0; ++w) {
        const unsigned take = rem >= 64 ? 64u : static_cast<unsigned>(rem);
        dst[w] = read_packed_bits(v.buf->words(), v.buf->word_count(),
                                  v.bit_off + (w << 6), take);
        rem -= take;
      }
      std::memcpy(pay_widths_.append(v.symbol_count),
                  v.buf->widths() + v.first_symbol, v.symbol_count);
      v0_.push_back(word_off);
      v1_.push_back(width_off);
      w01_.push_back(0);
    }
  }

  /// Fans the block's *last* row out to one more receiver. The caller (the
  /// stage phase's broadcast grouping) guarantees the last row was staged
  /// from the same scheduled view this receiver matched — nothing else may
  /// have been pushed in between. A first extra receiver upgrades the row
  /// in place: its own (to, back, round) moves into the receiver columns,
  /// the to/back columns become the receiver range, and kBcastBit marks the
  /// new shape. The shared payload is not touched — that is the point.
  void add_receiver(NodeId to, std::uint32_t back_index,
                    std::uint64_t deliver_round) {
    nc_invariant(!to_.empty(),
                 "add_receiver needs a staged head row to fan out from");
    const std::size_t i = to_.size() - 1;
    ++msg_count_;
    if ((meta_[i] & kBcastBit) == 0) {
      meta_[i] = static_cast<std::uint16_t>(meta_[i] | kBcastBit);
      const std::size_t begin = rcv_to_.size();
      rcv_to_.push_back(to_[i]);
      rcv_back_.push_back(back_[i]);
      rcv_round_.push_back(round_[i]);
      to_[i] = static_cast<NodeId>(begin);
      back_[i] = 1;
    }
    rcv_to_.push_back(to);
    rcv_back_.push_back(back_index);
    rcv_round_.push_back(deliver_round);
    ++back_[i];
  }

  /// Receiver `idx` (absolute index into the receiver columns; take a
  /// broadcast Rec's rcv_begin + j).
  [[nodiscard]] Receiver receiver(std::size_t idx) const {
    nc_invariant(idx < rcv_to_.size(),
                 "broadcast receiver index past the packed receiver columns");
    return Receiver{rcv_to_[idx], rcv_back_[idx], rcv_round_[idx]};
  }

  /// Copies row `i` of `src` into this block (delayed-bucket hand-off; this
  /// block is heap-backed, the source lane is arena-backed and about to be
  /// reset). Spilled payloads are word-aligned, so the copy is a memcpy.
  /// Unicast rows only — a delayed broadcast copy is materialized per
  /// receiver via append_receiver_from, because each copy falls due on its
  /// own round.
  void append_from(const MsgBlock& src, std::size_t i, unsigned header_bits) {
    append_from(src, i, header_bits, src.round_[i]);
  }

  /// append_from with the deliver round rewritten: the reliability layer's
  /// release path (FEC window resolution, ARQ recovery floors) re-stages a
  /// parked/recovered row for the round the service computed, not the round
  /// the fault engine originally stamped.
  void append_from(const MsgBlock& src, std::size_t i, unsigned header_bits,
                   std::uint64_t deliver_round) {
    ++msg_count_;
    to_.push_back(src.to_[i]);
    back_.push_back(src.back_[i]);
    tag_.push_back(src.tag_[i]);
    meta_.push_back(src.meta_[i]);
    wire_.push_back(src.wire_[i]);
    count_.push_back(src.count_[i]);
    round_.push_back(deliver_round);
    copy_payload_from(src, i, header_bits);
  }

  /// Copies one receiver's copy of broadcast row `i` of `src` into this
  /// block as a plain unicast row (delayed-bucket hand-off: a delayed
  /// broadcast copy leaves the shared row and becomes an independent
  /// message parked until `r.deliver_round`).
  void append_receiver_from(const MsgBlock& src, std::size_t i,
                            const Receiver& r, unsigned header_bits) {
    ++msg_count_;
    to_.push_back(r.to);
    back_.push_back(r.back_index);
    tag_.push_back(src.tag_[i]);
    meta_.push_back(static_cast<std::uint16_t>(src.meta_[i] & ~kBcastBit));
    wire_.push_back(src.wire_[i]);
    count_.push_back(src.count_[i]);
    round_.push_back(r.deliver_round);
    copy_payload_from(src, i, header_bits);
  }

  /// Decodes row `i`. `header_bits` recovers the payload bit length from
  /// wire_bits (wire = header + payload by construction).
  [[nodiscard]] Rec record(std::size_t i, unsigned header_bits) const {
    nc_invariant(i < to_.size(), "MsgBlock row index out of range");
    Rec r;
    r.to = to_[i];
    r.back_index = back_[i];
    const std::uint16_t meta = meta_[i];
    r.key = StreamKey{static_cast<std::uint16_t>(meta & 31u), tag_[i],
                      static_cast<std::uint16_t>((meta >> 5) & 15u)};
    r.eos = (meta & kEosBit) != 0;
    r.spilled = (meta & kSpillBit) != 0;
    r.bcast = (meta & kBcastBit) != 0;
    if (r.bcast) {
      r.rcv_begin = static_cast<std::uint32_t>(to_[i]);
      r.rcv_count = back_[i];
    } else {
      r.rcv_begin = 0;
      r.rcv_count = 0;
    }
    r.symbol_count = count_[i];
    r.wire_bits = wire_[i];
    r.deliver_round = round_[i];
    if (!r.spilled) {
      r.v0 = v0_[i];
      r.v1 = v1_[i];
      r.w0 = w01_[i] & 0xffu;
      r.w1 = w01_[i] >> 8;
      r.pay_words = nullptr;
      r.pay_word_count = 0;
      r.pay_bits = 0;
      r.pay_widths = nullptr;
    } else {
      r.v0 = r.v1 = 0;
      r.w0 = r.w1 = 0;
      r.pay_bits = static_cast<std::size_t>(wire_[i]) - header_bits;
      r.pay_word_count = (r.pay_bits + 63) >> 6;
      r.pay_words = pay_words_.data() + v0_[i];
      r.pay_widths = pay_widths_.data() + v1_[i];
    }
    return r;
  }

  /// Rows (a broadcast row is one row however many receivers it fans to).
  [[nodiscard]] std::size_t size() const noexcept { return to_.size(); }
  [[nodiscard]] bool empty() const noexcept { return to_.empty(); }

  /// Physical messages staged — unicast rows plus every broadcast
  /// receiver. What lane_msgs_peak and the per-edge accounting count.
  [[nodiscard]] std::size_t message_count() const noexcept {
    return msg_count_;
  }

 private:
  static constexpr std::size_t kInlineSymbols = 2;
  static constexpr std::uint16_t kEosBit = 1u << 9;
  static constexpr std::uint16_t kSpillBit = 1u << 10;
  static constexpr std::uint16_t kBcastBit = 1u << 11;

  // meta layout: kind (5 bits) | version (4 bits) | eos (1) | spilled (1) |
  // broadcast (1).
  // The widths mirror the wire header's fields (see stream_header_bits), so
  // kMaxMsgKinds/kMaxStreamVersions bound them by construction.
  static std::uint16_t pack_meta(const StreamKey& key, bool eos,
                                 bool spill) noexcept {
    return static_cast<std::uint16_t>(key.kind | (key.version << 5) |
                                      (eos ? kEosBit : 0) |
                                      (spill ? kSpillBit : 0));
  }

  /// Shared payload-copy tail of append_from / append_receiver_from.
  void copy_payload_from(const MsgBlock& src, std::size_t i,
                         unsigned header_bits) {
    if ((src.meta_[i] & kSpillBit) == 0) {
      v0_.push_back(src.v0_[i]);
      v1_.push_back(src.v1_[i]);
      w01_.push_back(src.w01_[i]);
    } else {
      const std::size_t pay_bits = src.wire_[i] - header_bits;
      const std::size_t nwords = (pay_bits + 63) >> 6;
      const std::size_t word_off = pay_words_.size();
      const std::size_t width_off = pay_widths_.size();
      std::memcpy(pay_words_.append(nwords),
                  src.pay_words_.data() + src.v0_[i],
                  nwords * sizeof(std::uint64_t));
      std::memcpy(pay_widths_.append(src.count_[i]),
                  src.pay_widths_.data() + src.v1_[i], src.count_[i]);
      v0_.push_back(word_off);
      v1_.push_back(width_off);
      w01_.push_back(0);
    }
  }

  void release_columns() noexcept {
    to_.release();
    back_.release();
    tag_.release();
    meta_.release();
    wire_.release();
    count_.release();
    round_.release();
    v0_.release();
    v1_.release();
    w01_.release();
    pay_words_.release();
    pay_widths_.release();
    rcv_to_.release();
    rcv_back_.release();
    rcv_round_.release();
  }

  ArenaVec<NodeId> to_;
  ArenaVec<std::uint32_t> back_;
  ArenaVec<NodeId> tag_;
  ArenaVec<std::uint16_t> meta_;
  ArenaVec<std::uint64_t> wire_;
  ArenaVec<std::uint32_t> count_;
  ArenaVec<std::uint64_t> round_;  ///< fault-engine deliver round (0 = now)
  ArenaVec<std::uint64_t> v0_;     ///< inline value 0 / payload word offset
  ArenaVec<std::uint64_t> v1_;     ///< inline value 1 / payload width offset
  ArenaVec<std::uint16_t> w01_;    ///< inline widths, low byte w0, high w1
  ArenaVec<std::uint64_t> pay_words_;  ///< spilled payloads, word-aligned
  ArenaVec<std::uint8_t> pay_widths_;  ///< spilled payloads' symbol widths
  // Broadcast receiver runs (one entry per copy; a row's to_/back_ index a
  // contiguous run here). rcv_round_ carries the per-copy fault delay.
  ArenaVec<NodeId> rcv_to_;
  ArenaVec<std::uint32_t> rcv_back_;
  ArenaVec<std::uint64_t> rcv_round_;
  std::size_t msg_count_ = 0;  ///< physical messages (rows + extra receivers)
  bool arena_mode_ = false;
};

}  // namespace nc
