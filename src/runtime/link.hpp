#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/message.hpp"
#include "runtime/pool.hpp"
#include "runtime/stream.hpp"
#include "util/ids.hpp"

namespace nc {

/// Zero-copy description of one scheduled message: a symbol run inside the
/// producer's shared payload buffer. This is what the hot path hands to the
/// staging lanes — the payload is copied exactly once, straight into the
/// lane's packed words (src/runtime/msgblock.hpp), never into a per-message
/// symbol vector.
///
/// Lifetime: the view borrows `buf` from the link's stream state. It is
/// valid until the link's streams are pruned — consume it before calling
/// release_idle() (the schedulers below never prune while a view is out).
struct MsgView {
  StreamKey key;
  const SymbolBuffer* buf = nullptr;  ///< null only when symbol_count == 0
  std::size_t first_symbol = 0;       ///< index of the run's first symbol
  std::size_t symbol_count = 0;
  std::size_t bit_off = 0;   ///< bit offset of the run's first symbol in buf
  std::size_t bit_len = 0;   ///< total payload bits in the run
  bool eos = false;
  std::size_t wire_bits = 0;  ///< header + payload
};

/// One stream attached to a link: an owner handle of the producer's shared
/// state, which holds the stream's key, plus this link's send cursor. Lives
/// in a slot of the owning shard's LinkPool. 16 bytes: a stream holds at
/// most 2^31 - 1 symbols and payload bits (SymbolBuffer::kMaxLength), so
/// the bit cursor shares its word with the EOS flag.
struct LinkStream {
  StreamRef state;
  std::uint32_t next_symbol = 0;   ///< first symbol not yet scheduled
  std::uint32_t bit_off : 31 = 0;  ///< bit offset of next_symbol in buf
  std::uint32_t eos_done : 1 = 0;  ///< EOS already delivered

  [[nodiscard]] std::size_t pending_symbols() const noexcept {
    return state->buf.size() - next_symbol;
  }
  [[nodiscard]] bool pending() const noexcept {
    return pending_symbols() > 0 || (state->closed && eos_done == 0);
  }
};

// Each open stream costs one of these per link it was opened on: the
// protocol's first two rounds open one on every directed edge.
static_assert(sizeof(LinkStream) == 16, "LinkStream is 16 bytes");

/// Stream-list storage of one shard's links.
using LinkPool = SlotPool<LinkStream>;

/// Outbound side of one directed edge.
///
/// Holds the set of active streams and schedules at most one message per
/// round: the scheduler walks the streams round-robin (so concurrent
/// components and boosting versions share the edge fairly, and no stream is
/// starved), packs as many pending symbols of the chosen stream as fit into
/// the bit budget, and piggybacks the EOS flag when the stream is drained
/// and closed. FIFO order within a stream is preserved by construction.
///
/// Storage: the Link itself is 16 bytes — a handle into its shard's
/// LinkPool plus the stream count and the round-robin cursor — and its
/// streams live in a pool slot that behaves exactly like a vector: appends
/// in open order, at least doubles when full, and prune compaction
/// keeps the survivors in order. A link whose streams are all pruned hands
/// its slot back for the next link of the shard to reuse; most links never
/// hold two streams at once, so the shard's links share a small set of
/// recycled one-entry slots. The link does not store its pool: every call
/// that reads or writes the streams takes it, and it must be the same pool
/// on every call.
///
/// Shard ownership (see network.hpp): a link belongs to its *owner's*
/// (source node's) shard, and so does its pool. Stream registration happens
/// in the owner's callbacks and scheduling in the owner shard's stage
/// phase, so a link is only ever touched by one thread and needs no
/// synchronization.
class Link {
 public:
  /// Registers a stream on this edge. The state (payload, key and closed
  /// flag) is shared with the producer's OutChannel and possibly sibling
  /// links.
  void add_stream(LinkPool& pool, StreamRef state);

  /// True if any stream has undelivered symbols or an undelivered EOS.
  [[nodiscard]] bool has_pending(const LinkPool& pool) const noexcept;

  /// Schedules one message within `budget_bits` total (header included) as a
  /// zero-copy view into the chosen stream's shared payload buffer. The
  /// stream advances (its symbols count as sent); the caller must consume
  /// the view — copy it into a lane or deliver it — before release_idle().
  /// Returns false when nothing is pending. Throws std::runtime_error if a
  /// single symbol cannot fit even in an otherwise empty message (CONGEST
  /// violation — the protocol used a symbol wider than the model allows).
  bool schedule_view(LinkPool& pool, std::size_t budget_bits,
                     unsigned header_bits, MsgView& out);

  /// View reuse: true iff this link's next scheduled message would be
  /// byte-identical to `prev` (same shared stream, same symbol cursor, same
  /// EOS), in which case the stream is advanced exactly as schedule_view
  /// would have — without re-running the per-symbol packing loop, because
  /// identical (buffer, cursor, budget) inputs make packing deterministic.
  /// `prev` must come from schedule_view under this link's budget and
  /// header width; every CONGEST link shares both. On false nothing
  /// advances and the caller falls back to schedule_view. This is how the
  /// stage phase detects that sibling links of one open_stream_all share
  /// the identical remaining view: the links share one OutStreamState, and
  /// their cursors coincide exactly when they have drained in lockstep.
  /// Each copy still gets its own record.
  bool schedule_matches(LinkPool& pool, const MsgView& prev);

  /// Removes streams whose EOS has been delivered (internal housekeeping;
  /// called by the schedulers). Frees the pool slot when none remain.
  void prune_done(LinkPool& pool);

  /// Releases finished streams once the link has gone idle. The view
  /// schedulers leave pruning to the caller (a prune would invalidate the
  /// outstanding view); call this after consuming the round's views so an
  /// event-driven engine — which will not touch an idle link again — does
  /// not pin finished streams' payload buffers.
  void release_idle(LinkPool& pool) {
    if (!has_pending(pool)) prune_done(pool);
  }

  /// Streams that would produce a message right now (one each in LOCAL
  /// mode). Lets the fault engine charge a whole drained batch before the
  /// streams advance.
  [[nodiscard]] std::size_t pending_stream_count(
      const LinkPool& pool) const noexcept;

  /// Drains *all* pending streams — one unbounded message per stream, the
  /// LOCAL model of Peleg [20], used by the neighbours-of-neighbours
  /// baseline — invoking `fn(const MsgView&)` per message. Streams advance
  /// regardless of what fn does (a dropped message was still sent). Returns
  /// the number of messages produced; the caller release_idle()s afterwards.
  template <typename Fn>
  std::size_t drain_views(LinkPool& pool, unsigned header_bits, Fn&& fn) {
    std::size_t produced = 0;
    LinkStream* streams = data(pool);
    for (std::uint32_t i = 0; i < count_; ++i) {
      LinkStream& s = streams[i];
      if (!s.pending()) continue;
      const SymbolBuffer& buf = s.state->buf;
      MsgView v;
      v.key = s.state->key();
      v.buf = &buf;
      v.first_symbol = s.next_symbol;
      v.symbol_count = s.pending_symbols();
      v.bit_off = s.bit_off;
      v.bit_len = buf.bit_size() - s.bit_off;
      v.wire_bits = header_bits + v.bit_len;
      s.next_symbol = static_cast<std::uint32_t>(buf.size());
      s.bit_off = static_cast<std::uint32_t>(buf.bit_size());
      if (s.state->closed && s.eos_done == 0) {
        v.eos = true;
        s.eos_done = 1;
        any_done_ = true;
      }
      fn(static_cast<const MsgView&>(v));
      ++produced;
    }
    return produced;
  }

  /// Number of attached (not yet pruned) streams.
  [[nodiscard]] std::size_t stream_count() const noexcept { return count_; }

 private:
  /// Round-robin selection shared by schedule_view and schedule_matches:
  /// prunes finished streams, then returns the index of the next pending
  /// stream (count_ when the link is idle). Does not advance rr_pos_ — the
  /// caller does, once the selection is committed.
  std::uint32_t pick_pending(LinkPool& pool);

  /// The attached streams (count_ of them; null while there are none).
  [[nodiscard]] LinkStream* data(const LinkPool& pool) const noexcept {
    return count_ == 0 ? nullptr : pool.data(cls_, slot_);
  }

  std::uint32_t slot_ = LinkPool::kNoSlot;  ///< held iff count_ > 0
  std::uint32_t count_ = 0;
  std::uint32_t rr_pos_ = 0;
  std::uint8_t cls_ = 0;  ///< the slot holds slot_class_size(cls_) streams
  // Set when some stream's EOS got delivered; prune_done early-outs on it
  // (it runs once per scheduled message, and usually nothing has finished).
  bool any_done_ = false;
};

// Network::links_ holds one Link per directed edge (2m of them).
static_assert(sizeof(Link) == 16, "Link is 16 bytes");

}  // namespace nc
