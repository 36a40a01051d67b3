#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "runtime/message.hpp"

namespace nc {

/// Shared state of one outgoing logical stream: the packed symbol payload,
/// the stream's key and the closed flag. One heap allocation per opened
/// stream, owned jointly by the producer's OutChannel and every Link the
/// stream was opened on (a broadcast to many neighbours stores its payload
/// and its key once). 40 bytes: the key is unpacked, as StreamKey's
/// padding would round the object up to 48.
struct OutStreamState {
  SymbolBuffer buf;
  NodeId tag = 0;
  std::uint16_t kind = 0;
  std::uint16_t version = 0;
  /// Owners: the OutChannel and each link's StreamRef. Not atomic — see
  /// StreamRef.
  std::uint32_t refs = 0;
  bool closed = false;

  [[nodiscard]] StreamKey key() const noexcept {
    return StreamKey{kind, tag, version};
  }
};

static_assert(sizeof(OutStreamState) == 40, "OutStreamState is 40 bytes");

/// Owner handle of an OutStreamState: one pointer, with the count held in
/// the state itself. The last handle to let go deletes the state.
///
/// The count is a plain integer. That is correct because every owner of one
/// state sits on its producer's shard: the producer's OutChannel lives in
/// its node, and the links it opens the stream on belong to that node's
/// shard (network.hpp). So handles are copied and dropped only by that
/// shard's thread — in the node's callbacks and the shard's stage phase —
/// or serially, in the churn hooks and at teardown. A protocol must not
/// hand an OutChannel to another node.
class StreamRef {
 public:
  StreamRef() noexcept = default;
  explicit StreamRef(OutStreamState* state) noexcept : p_(state) {
    if (p_ != nullptr) ++p_->refs;
  }
  StreamRef(const StreamRef& other) noexcept : StreamRef(other.p_) {}
  StreamRef(StreamRef&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)) {}
  StreamRef& operator=(StreamRef other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~StreamRef() { reset(); }

  /// Lets go of the state, deleting it if this was its last owner.
  void reset() noexcept {
    if (p_ != nullptr && --p_->refs == 0) delete p_;
    p_ = nullptr;
  }

  [[nodiscard]] OutStreamState* get() const noexcept { return p_; }
  OutStreamState* operator->() const noexcept { return p_; }
  [[nodiscard]] bool operator==(std::nullptr_t) const noexcept {
    return p_ == nullptr;
  }

 private:
  OutStreamState* p_ = nullptr;
};

/// Producer handle for an outgoing logical stream.
///
/// Appending after the runtime has started draining the stream is allowed —
/// that is what makes the coordinate-pipelined convergecasts of Lemma 5.1
/// possible — and `close()` marks the logical end of stream, which links
/// deliver to receivers as an EOS flag.
///
/// The shared state is allocated on first use — share(), put() or close()
/// — so a default-constructed channel that open_stream later replaces, or
/// that is never opened, costs no heap block. An unallocated channel reads
/// as empty and open.
///
/// Sharded-engine note: the producer appends from its node's wake-phase
/// callback and the owning shard's stage phase reads the buffer in the
/// *next* phase — writes and reads are separated by the pool barrier, so
/// the shared state carries no locks. All links a broadcast was opened on
/// share one OutStreamState and always live on the producer's shard.
class OutChannel {
 public:
  /// Appends one symbol. Precondition: not closed.
  void put(std::uint64_t value, unsigned width) {
    own().buf.put(value, width);
  }

  /// Appends one bit.
  void put_bit(bool b) { own().buf.put_bit(b); }

  /// Marks end of stream; links will deliver EOS after the last symbol.
  void close() { own().closed = true; }

  /// True once close() has been called.
  [[nodiscard]] bool closed() const noexcept {
    return state_ != nullptr && state_->closed;
  }

  /// Symbols written so far.
  [[nodiscard]] std::size_t size() const noexcept {
    return state_ != nullptr ? state_->buf.size() : 0;
  }

  /// A new owner handle of the shared state, for a link to hold, with the
  /// state stamped with `key` (and allocated here if still absent). The
  /// network opens a stream on all of its links with one key.
  [[nodiscard]] StreamRef share(const StreamKey& key) {
    OutStreamState& s = own();
    s.tag = key.tag;
    s.kind = key.kind;
    s.version = key.version;
    return state_;
  }

 private:
  OutStreamState& own() {
    if (state_ == nullptr) state_ = StreamRef(new OutStreamState);
    return *state_.get();
  }

  StreamRef state_;
};

/// Receiver side of a logical stream: a growing buffer of delivered symbols
/// plus the EOS flag. Protocol code consumes it strictly sequentially.
/// Copyable and movable: inbox buckets shift and regrow their columns.
///
/// 32 bytes: the 24-byte SymbolBuffer, a 32-bit symbol cursor, and a 31-bit
/// bit cursor sharing its word with the EOS flag. A buffer holds at most
/// 2^31 - 1 symbols and bits (SymbolBuffer::kMaxLength), so both cursors
/// fit, and a delivery past that throws std::length_error.
class InStream {
 public:
  /// Appends a delivered symbol (runtime use).
  void deliver(std::uint64_t value, unsigned width) { buf_.put(value, width); }

  /// Appends a whole run of `count` symbols (`nbits` payload bits) blitted
  /// from a packed word array in 64-bit chunks (runtime use — the deliver
  /// phase moves a message's payload with this instead of per-symbol puts;
  /// the resulting buffer is bit-identical to the put() sequence).
  void deliver_packed(const std::uint64_t* words, std::size_t word_count,
                      std::size_t src_bit, std::size_t nbits,
                      const std::uint8_t* widths, std::size_t count) {
    buf_.append_packed(words, word_count, src_bit, nbits, widths, count);
  }

  /// Marks EOS delivered (runtime use).
  void deliver_eos() noexcept { closed_ = 1; }

  /// Symbols delivered but not yet consumed.
  [[nodiscard]] std::size_t available() const noexcept {
    return buf_.size() - read_idx_;
  }

  /// Consumes the next symbol. Precondition: available() > 0.
  std::uint64_t pop() noexcept {
    const unsigned w = buf_.width_at(read_idx_);
    const std::uint64_t v = buf_.value_at(read_bit_, w);
    read_bit_ += w;
    ++read_idx_;
    return v;
  }

  /// True if EOS was delivered.
  [[nodiscard]] bool closed() const noexcept { return closed_ != 0; }

  /// True if EOS was delivered and everything has been consumed.
  [[nodiscard]] bool finished() const noexcept {
    return closed() && available() == 0;
  }

  /// Total symbols ever delivered (consumed or not).
  [[nodiscard]] std::size_t delivered() const noexcept { return buf_.size(); }

 private:
  SymbolBuffer buf_;
  std::uint32_t read_idx_ = 0;       ///< symbols consumed
  std::uint32_t read_bit_ : 31 = 0;  ///< payload bits consumed
  std::uint32_t closed_ : 1 = 0;     ///< EOS delivered
};

// Inbox buckets hold millions of these (src/runtime/inbox.hpp): two per
// cache line, with the inline SymbolBuffer tier covering the common stream.
static_assert(sizeof(InStream) == 32, "InStream must stay 32 bytes");

}  // namespace nc
