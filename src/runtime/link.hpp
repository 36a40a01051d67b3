#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/stream.hpp"

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

/// Outbound side of one directed edge.
///
/// Holds the set of active streams and schedules at most one message per
/// round: the scheduler walks the streams round-robin (so concurrent
/// components and boosting versions share the edge fairly, and no stream is
/// starved), packs as many pending symbols of the chosen stream as fit into
/// the bit budget, and piggybacks the EOS flag when the stream is drained
/// and closed. FIFO order within a stream is preserved by construction.
///
/// Shard ownership (see network.hpp): a link belongs to its *owner's*
/// (source node's) shard. Stream registration happens in the owner's
/// callbacks and scheduling in the owner shard's stage phase, so a link is
/// only ever touched by one thread and needs no synchronization.
class Link {
 public:
  /// Registers a stream on this edge. The state (payload + closed flag) is
  /// shared with the producer's OutChannel (and possibly sibling links).
  void add_stream(const StreamKey& key,
                  std::shared_ptr<const OutStreamState> state);

  /// True if any stream has undelivered symbols or an undelivered EOS.
  [[nodiscard]] bool has_pending() const noexcept;

  /// Schedules one message within `budget_bits` total (header included) as a
  /// zero-copy view into the chosen stream's shared payload buffer. The
  /// stream advances (its symbols count as sent); the caller must consume
  /// the view — copy it into a lane or deliver it — before release_idle().
  /// Returns false when nothing is pending. Throws std::runtime_error if a
  /// single symbol cannot fit even in an otherwise empty message (CONGEST
  /// violation — the protocol used a symbol wider than the model allows).
  bool schedule_view(std::size_t budget_bits, unsigned header_bits,
                     MsgView& out);

  /// Broadcast classification: true iff this link's next scheduled message
  /// would be byte-identical to `prev` (same shared payload buffer, same
  /// key, same symbol cursor, same EOS), in which case the stream is
  /// advanced exactly as schedule_view would have — without re-running the
  /// per-symbol packing loop, because identical (buffer, cursor, budget)
  /// inputs make packing deterministic. On false nothing advances and the
  /// caller falls back to schedule_view. This is how the stage phase
  /// detects that sibling links of one open_stream_all share the identical
  /// remaining view: the links share one OutStreamState, and their cursors
  /// coincide exactly when they have drained in lockstep — the invariant
  /// every (budget-uniform) CONGEST round preserves.
  bool schedule_matches(std::size_t budget_bits, unsigned header_bits,
                        const MsgView& prev);

  /// Removes streams whose EOS has been delivered (internal housekeeping;
  /// called by the schedulers).
  void prune_done();

  /// Releases finished streams once the link has gone idle. The view
  /// schedulers leave pruning to the caller (a prune would invalidate the
  /// outstanding view); call this after consuming the round's views so an
  /// event-driven engine — which will not touch an idle link again — does
  /// not pin finished streams' payload buffers.
  void release_idle() {
    if (!has_pending()) prune_done();
  }

  /// Streams that would produce a message right now (one each in LOCAL
  /// mode). Lets the fault engine charge a whole drained batch before the
  /// streams advance.
  [[nodiscard]] std::size_t pending_stream_count() const noexcept;

  /// Drains *all* pending streams — one unbounded message per stream, the
  /// LOCAL model of Peleg [20], used by the neighbours-of-neighbours
  /// baseline — invoking `fn(const MsgView&)` per message. Streams advance
  /// regardless of what fn does (a dropped message was still sent). Returns
  /// the number of messages produced; the caller release_idle()s afterwards.
  template <typename Fn>
  std::size_t drain_views(unsigned header_bits, Fn&& fn) {
    std::size_t produced = 0;
    for (auto& s : streams_) {
      if (!s.pending()) continue;
      MsgView v;
      v.key = s.key;
      v.buf = &s.state->buf;
      v.first_symbol = s.next_symbol;
      v.symbol_count = s.pending_symbols();
      v.bit_off = s.bit_off;
      v.bit_len = s.state->buf.bit_size() - s.bit_off;
      v.wire_bits = header_bits + v.bit_len;
      s.next_symbol = s.state->buf.size();
      s.bit_off = s.state->buf.bit_size();
      if (s.state->closed && !s.eos_done) {
        v.eos = true;
        s.eos_done = true;
        any_done_ = true;
      }
      fn(static_cast<const MsgView&>(v));
      ++produced;
    }
    return produced;
  }

  /// Number of attached (not yet pruned) streams.
  [[nodiscard]] std::size_t stream_count() const noexcept {
    return streams_.size();
  }

 private:
  /// Round-robin selection shared by schedule_view and schedule_matches:
  /// prunes finished streams, then returns the index of the next pending
  /// stream (streams_.size() when the link is idle). Does not advance
  /// rr_pos_ — the caller does, once the selection is committed.
  std::size_t pick_pending();

  struct ActiveStream {
    StreamKey key;
    std::shared_ptr<const OutStreamState> state;
    std::size_t next_symbol = 0;
    std::size_t bit_off = 0;
    bool eos_done = false;  // EOS already delivered

    [[nodiscard]] std::size_t pending_symbols() const noexcept {
      return state->buf.size() - next_symbol;
    }
    [[nodiscard]] bool pending() const noexcept {
      return pending_symbols() > 0 || (state->closed && !eos_done);
    }
  };

  std::vector<ActiveStream> streams_;
  std::size_t rr_pos_ = 0;
  // Set when some stream's EOS got delivered; prune_done early-outs on it
  // (it runs once per scheduled message, and usually nothing has finished).
  bool any_done_ = false;
};

}  // namespace nc
