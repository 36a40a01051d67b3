#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
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

/// Receiver side of a logical stream: the delivered symbols plus the EOS
/// flag. Protocol code consumes it strictly sequentially. Copyable and
/// movable: inbox buckets shift and regrow their columns.
///
/// 16 bytes, two-tier at SymbolBuffer's boundary. A stream whose delivered
/// symbols fit one word — at most 8 symbols and 64 payload bits, which
/// covers the paper's O(log n)-bit messages and so almost every received
/// stream — keeps its payload word and one meta word in the object, with
/// no heap block. The meta word holds eight 6-bit (width − 1) fields, the
/// symbol count, the read index, a 6-bit read offset (the bits consumed,
/// mod 64: all 64 are consumed only once every symbol is), the EOS bit and
/// the spilled bit. The 9th symbol or the 65th bit *spills* the stream:
/// its symbols move into one heap block the payload word then points to —
/// 32-bit counts and read cursors, then the packed payload words, then
/// the widths, at SymbolBuffer's heap capacities — so a spilled stream
/// costs one block, not the two of a spilled SymbolBuffer. The tier is a
/// pure function of what was delivered, so pop() sequences are those of a
/// plain SymbolBuffer either way. A stream holds at most 2^31 - 1 symbols
/// and bits (SymbolBuffer::kMaxLength), so the counts fit, and a delivery
/// past that throws std::length_error and leaves the stream as it was.
class InStream {
 public:
  InStream() noexcept = default;
  InStream(const InStream& other);
  InStream(InStream&& other) noexcept
      : pay_(std::exchange(other.pay_, Payload{0})),
        meta_(std::exchange(other.meta_, 0)) {}
  InStream& operator=(const InStream& other) {
    if (this != &other) *this = InStream(other);
    return *this;
  }
  InStream& operator=(InStream&& other) noexcept {
    if (this != &other) {
      release();
      pay_ = std::exchange(other.pay_, Payload{0});
      meta_ = std::exchange(other.meta_, 0);
    }
    return *this;
  }
  ~InStream() { release(); }

  /// Appends a delivered symbol (runtime use). Precondition as
  /// SymbolBuffer::put: width in 1..64 and value < 2^width.
  void deliver(std::uint64_t value, unsigned width) {
    if (!spilled()) {
      const unsigned n = count();
      const unsigned bits = inline_bits();
      if (n < kInlineSymbols && bits + width <= 64) {
        // bits <= 63 here, as width >= 1.
        pay_.word |= value << bits;
        meta_ += (std::uint64_t{width - 1} << (6 * n)) + kOneSymbol;
        return;
      }
    }
    deliver_spilled(value, width);
  }

  /// Appends a whole run of `count` symbols (`nbits` payload bits) blitted
  /// from a packed word array in 64-bit chunks (runtime use — the deliver
  /// phase moves a message's payload with this instead of per-symbol puts;
  /// the resulting stream is bit-identical to the deliver() sequence).
  void deliver_packed(const std::uint64_t* words, std::size_t word_count,
                      std::size_t src_bit, std::size_t nbits,
                      const std::uint8_t* widths, std::size_t count);

  /// Marks EOS delivered (runtime use).
  void deliver_eos() noexcept { meta_ |= kEosBit; }

  /// Symbols delivered but not yet consumed.
  [[nodiscard]] std::size_t available() const noexcept {
    return spilled() ? pay_.spill->size - pay_.spill->read_idx
                     : count() - read_idx();
  }

  /// Consumes the next symbol. Precondition: available() > 0.
  std::uint64_t pop() noexcept {
    if (spilled()) return pop_spilled();
    const unsigned idx = read_idx();
    const unsigned w = inline_width(idx);
    const unsigned off = read_off();
    std::uint64_t v = pay_.word >> off;
    if (w < 64) v &= (std::uint64_t{1} << w) - 1;
    meta_ = (meta_ & ~kCursorMask) |
            (std::uint64_t{idx + 1} << kReadIdxShift) |
            (std::uint64_t{(off + w) & 63} << kReadOffShift);
    return v;
  }

  /// True if EOS was delivered.
  [[nodiscard]] bool closed() const noexcept { return (meta_ & kEosBit) != 0; }

  /// True if EOS was delivered and everything has been consumed.
  [[nodiscard]] bool finished() const noexcept {
    return closed() && available() == 0;
  }

  /// Total symbols ever delivered (consumed or not).
  [[nodiscard]] std::size_t delivered() const noexcept {
    return spilled() ? pay_.spill->size : count();
  }

  /// True once the stream has outgrown its inline word (see above).
  [[nodiscard]] bool spilled() const noexcept {
    return (meta_ & kSpillBit) != 0;
  }

 private:
  /// Header of a spilled stream's heap block. The block goes on with the
  /// payload words (little-endian bit order, zero past the payload) and
  /// then the width bytes, at SymbolBuffer::word_capacity and
  /// width_capacity of the counts, so the capacities need no fields.
  struct Spill {
    std::uint32_t size;      ///< symbols delivered
    std::uint32_t bits;      ///< payload bits delivered
    std::uint32_t read_idx;  ///< symbols consumed
    std::uint32_t read_bit;  ///< payload bits consumed
  };

  static constexpr unsigned kInlineSymbols = SymbolBuffer::kInlineSymbols;
  // Meta word: (width - 1) of inline symbol i at bits 6i..6i+5, then the
  // count, the read index and the read offset, then EOS and spilled. A
  // spilled stream's meta word holds only its EOS and spilled bits.
  static constexpr std::uint64_t kWidthFields = (std::uint64_t{1} << 48) - 1;
  static constexpr unsigned kCountShift = 48;
  static constexpr unsigned kReadIdxShift = 52;
  static constexpr unsigned kReadOffShift = 56;
  static constexpr std::uint64_t kOneSymbol = std::uint64_t{1} << kCountShift;
  static constexpr std::uint64_t kCursorMask = std::uint64_t{0x3FF}
                                               << kReadIdxShift;
  static constexpr std::uint64_t kEosBit = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kSpillBit = std::uint64_t{1} << 63;

  [[nodiscard]] unsigned count() const noexcept {
    return static_cast<unsigned>(meta_ >> kCountShift) & 15u;
  }
  [[nodiscard]] unsigned read_idx() const noexcept {
    return static_cast<unsigned>(meta_ >> kReadIdxShift) & 15u;
  }
  [[nodiscard]] unsigned read_off() const noexcept {
    return static_cast<unsigned>(meta_ >> kReadOffShift) & 63u;
  }
  [[nodiscard]] unsigned inline_width(unsigned i) const noexcept {
    return (static_cast<unsigned>(meta_ >> (6 * i)) & 63u) + 1;
  }
  /// Inline payload bits: the count plus the sum of the (width - 1)
  /// fields, which are 0 past the count. The eight 6-bit fields are summed
  /// as four 12-bit pairs, then the pairs by one multiply into bits 36..47.
  [[nodiscard]] unsigned inline_bits() const noexcept {
    constexpr std::uint64_t kEven = 0x03F03F03F03FULL;
    const std::uint64_t six = meta_ & kWidthFields;
    const std::uint64_t pairs = (six & kEven) + ((six >> 6) & kEven);
    return static_cast<unsigned>((pairs * 0x001001001001ULL) >> 36 & 0xFFFu) +
           count();
  }

  /// deliver() past the inline tier: spills first if still inline.
  void deliver_spilled(std::uint64_t value, unsigned width);

  /// pop() of a spilled stream.
  std::uint64_t pop_spilled() noexcept;

  /// Appends to a stream that is spilled or is about to spill: moves the
  /// symbols into a block with room for the run (a fresh one when the
  /// capacities change), then copies the run in.
  void append_spilled(const std::uint64_t* words, std::size_t word_count,
                      std::size_t src_bit, std::size_t nbits,
                      const std::uint8_t* widths, std::size_t count);

  /// A zeroed block with room for `size` symbols of `bits` payload bits,
  /// holding this stream's symbols and cursors (inline or spilled).
  [[nodiscard]] Spill* make_block(std::size_t size, std::size_t bits) const;

  void release() noexcept {
    if (spilled()) ::operator delete(pay_.spill);
  }

  // The spilled bit says which member is live, so nothing else tags it.
  union Payload {
    std::uint64_t word;  ///< inline tier: the payload word
    Spill* spill;        ///< spilled: the heap block
  };
  Payload pay_{0};
  std::uint64_t meta_ = 0;
};

// Inbox buckets hold millions of these (src/runtime/inbox.hpp): with its
// 8-byte key a received stream costs 24 bytes.
static_assert(sizeof(InStream) == 16, "InStream must stay 16 bytes");

}  // namespace nc
