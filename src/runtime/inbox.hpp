#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/pool.hpp"
#include "runtime/stream.hpp"
#include "util/check.hpp"

namespace nc {

/// (ni, tag, version) packed into one word, `ni << 36 | tag << 4 |
/// version`: a 28-bit neighbour index, the 32-bit tag and the 4-bit
/// version. Fields are concatenated high to low, so integer order on the
/// word is (ni, tag, version) order, and equality and order are one
/// compare each. The fields hold every key the runtime delivers under:
/// the Network constructor rejects a node of degree >= 2^28 and
/// open_stream a version >= 16.
struct InboxKey {
  std::uint64_t bits;

  /// Neighbour indices are below this.
  static constexpr std::size_t kNiLimit = std::size_t{1} << 28;
  /// The (tag, version) part of `bits`.
  static constexpr std::uint64_t kTagVersionMask =
      (std::uint64_t{1} << 36) - 1;

  friend bool operator==(InboxKey a, InboxKey b) noexcept {
    return a.bits == b.bits;
  }
  friend bool operator<(InboxKey a, InboxKey b) noexcept {
    return a.bits < b.bits;
  }
};
static_assert(sizeof(InboxKey) == 8, "InboxKey must stay one word");

/// Bucket-column storage of one shard's inboxes: every bucket's key column
/// and stream column sit in slots of these two pools, allocated and freed
/// in lockstep so one handle and one class name both — 24 bytes per entry.
struct InboxPool {
  SlotPool<InboxKey> keys;
  SlotPool<InStream> streams;

  /// A slot of class `cls` in both pools; raises `cls` as SlotPool::alloc
  /// does, identically in both, since their free lists match.
  [[nodiscard]] std::uint32_t alloc(unsigned& cls) {
    unsigned twin_cls = cls;
    const std::uint32_t slot = keys.alloc(cls);
    [[maybe_unused]] const std::uint32_t twin = streams.alloc(twin_cls);
    nc_invariant(slot == twin && cls == twin_cls,
                 "inbox key/stream pools fell out of lockstep");
    return slot;
  }
  void free(unsigned cls, std::uint32_t slot) {
    keys.free(cls, slot);
    streams.free(cls, slot);
  }

  [[nodiscard]] std::size_t carved_bytes() const noexcept {
    return keys.carved_bytes() + streams.carved_bytes();
  }
  [[nodiscard]] std::size_t live_bytes() const noexcept {
    return keys.live_bytes() + streams.live_bytes();
  }
};

/// Flat, kind-bucketed store of a node's incoming streams.
///
/// The previous implementation was a `std::map<(ni, StreamKey), InStream>`:
/// every delivery paid a red-black-tree walk and `for_each_in` scanned the
/// whole inbox to filter one kind. Here each message kind in use owns a
/// contiguous bucket kept sorted by (neighbour index, tag, version), so
///  - per-kind iteration touches exactly that kind's streams, in the same
///    deterministic (ni, key) order the old map produced (kind is fixed
///    within a bucket, so (ni, tag, version) order == (ni, StreamKey) order);
///  - lookups are a binary search in a small contiguous bucket;
///  - insertion (rare: first delivery of a stream) shifts the bucket's tail.
/// Protocol code observes identical iteration order, which the simulator's
/// bit-for-bit determinism guarantee depends on.
///
/// Buckets are allocated on first use through a 32-entry kind → slot map
/// instead of a static array of kMaxMsgKinds bucket headers: protocols use
/// around a third of the kind space, and the simulator's dominant cost is
/// cold misses on randomly-addressed per-node state (every delivery lands
/// on a different node). The slot map keeps sizeof(Inbox) at 64 bytes, so
/// a node's whole runtime state — RNG, inbox header, alarm and
/// arrived-kinds mask, 112 bytes — spans two cache lines instead of
/// striding a ~2 KB struct. Slot order is
/// first-delivery order, which is internal layout only: every lookup goes
/// through the map, so nothing observable depends on it.
///
/// Each bucket is stored structure-of-arrays: a dense column of 8-byte
/// packed (ni, tag, version) keys that the binary search strides, and a
/// parallel column of the 16-byte InStream payloads indexed by the same
/// position — 24 bytes per received stream. An AoS bucket (key embedded
/// next to its stream) made every search probe pull a whole stream into
/// cache and every insert shift whole InStreams; splitting the keys out
/// keeps eight of them per cache line, which matters because the two
/// hottest operations in the whole simulator — open() on each delivered
/// message and find() on each protocol-side poll — both funnel into this
/// search. Both columns live in one slot of the shard's InboxPool and grow
/// like a vector (a full bucket moves to a slot at least twice the size
/// and frees the old one for reuse), so the inboxes of a shard share a few
/// pool chunks instead of two heap blocks per bucket. A bucket the
/// runtime knows the size of up front — a dense round delivers a node's
/// whole run of copies at once — is created at that size by reserve(),
/// in the tightest of the pool's quarter-octave classes, instead of
/// doubling up from one entry.
///
/// Lookups are memoized per bucket (not one shared slot): deliveries within
/// a round arrive from ascending sources but alternate message kinds, and
/// protocol polls interleave kinds too, so a single memo would be evicted
/// on almost every call. Each kind's memo survives the others' traffic, and
/// both the memoized slot and its successor are tried before the binary
/// search — ascending neighbour-index access patterns (both the round's
/// delivery order and protocol poll loops) make the successor the common
/// case. Memos are validated by value, so a stale index can never change an
/// outcome.
///
/// Lifetimes: a stream stays visible — drained and closed ones included,
/// because the tree and component-announce visitors count finished
/// streams — until its reader retires it. retire() drops every
/// neighbour's stream under one (kind, tag, version) once the stage that
/// reads that key has consumed all of them: the bucket is compacted in
/// place, the survivors keep their order, and an emptied bucket returns
/// its slot to the pool. clear() drops everything; the runtime calls it
/// when the node is done, since a done node never reads its inbox again.
/// So inbox memory follows the streams a node can still read, not every
/// stream it ever received. A delivery under a retired key opens a fresh,
/// empty stream.
///
/// Shard ownership (see network.hpp): an inbox and its pool belong to its
/// node's shard. The deliver phase writes it from the destination shard's
/// thread and the wake phase reads it from the same thread, with a pool
/// barrier between the phases — the inbox itself needs no synchronization.
class Inbox {
 public:
  explicit Inbox(InboxPool& pool) noexcept : pool_(&pool) {}

  /// Stream from neighbour index `ni` with key `key`, or nullptr. Shares
  /// open()'s per-bucket memo (protocols poll the same streams every round).
  /// A key whose ni or version does not fit InboxKey names no stream.
  [[nodiscard]] InStream* find(std::size_t ni, const StreamKey& key) {
    const std::int8_t slot = slot_[check_kind(key.kind)];
    if (slot < 0 || ni >= InboxKey::kNiLimit ||
        key.version >= kMaxStreamVersions) {
      return nullptr;
    }
    nc_invariant(static_cast<std::size_t>(slot) < store_.size(),
                 "inbox slot map points past the allocated buckets");
    Bucket& bucket = store_[static_cast<std::size_t>(slot)];
    if (bucket.size == 0) return nullptr;
    const InboxKey* keys = keys_of(bucket);
    const InboxKey want = pack(ni, key);
    std::size_t idx = probe(bucket, keys, want);
    if (idx == kMiss) {
      idx = lower_bound(keys, bucket.size, want);
      if (idx == bucket.size || !(keys[idx] == want)) return nullptr;
      bucket.memo = static_cast<std::uint32_t>(idx);
    }
    return streams_of(bucket) + idx;
  }

  /// Stream from `ni` with key `key`, created empty if absent (runtime use,
  /// on delivery).
  [[nodiscard]] InStream& open(std::size_t ni, const StreamKey& key) {
    Bucket& bucket = bucket_for(check_kind(key.kind));
    const InboxKey want = pack(ni, key);
    std::size_t idx = bucket.size == 0 ? kMiss
                                       : probe(bucket, keys_of(bucket), want);
    if (idx == kMiss) {
      idx = bucket.size == 0 ? 0
                             : lower_bound(keys_of(bucket), bucket.size, want);
      if (idx == bucket.size || !(keys_of(bucket)[idx] == want)) {
        insert(bucket, idx, want);
      }
      bucket.memo = static_cast<std::uint32_t>(idx);
    }
    return streams_of(bucket)[idx];
  }

  /// Invokes `fn(ni, key, stream)` for every stream of `kind`, in ascending
  /// (ni, tag, version) order. `fn` must not retire() or clear().
  template <typename Fn>
  void for_each(std::uint16_t kind, Fn&& fn) {
    const std::int8_t slot = slot_[check_kind(kind)];
    if (slot < 0) return;
    const Bucket& bucket = store_[static_cast<std::size_t>(slot)];
    if (bucket.size == 0) return;
    const InboxKey* keys = keys_of(bucket);
    InStream* streams = streams_of(bucket);
    for (std::size_t i = 0; i < bucket.size; ++i) {
      const std::uint64_t k = keys[i].bits;
      const StreamKey key{kind, static_cast<NodeId>(k >> 4),
                          static_cast<std::uint16_t>(k & 0xFu)};
      fn(static_cast<std::size_t>(k >> 36), key, streams[i]);
    }
  }

  /// Drops every neighbour's stream under `key`; the kind's other streams
  /// keep their (ni, tag, version) order, and the bucket's slot goes back
  /// to the pool once it is empty. No-op if nothing arrived under `key`.
  void retire(const StreamKey& key) {
    const std::int8_t slot = slot_[check_kind(key.kind)];
    if (slot < 0 || key.version >= kMaxStreamVersions) return;
    Bucket& bucket = store_[static_cast<std::size_t>(slot)];
    if (bucket.size == 0) return;
    const std::uint64_t tv = pack(0, key).bits;
    InboxKey* keys = keys_of(bucket);
    InStream* streams = streams_of(bucket);
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < bucket.size; ++i) {
      if ((keys[i].bits & InboxKey::kTagVersionMask) == tv) {
        streams[i] = InStream{};  // frees a spilled payload now
      } else {
        if (kept != i) {
          keys[kept] = keys[i];
          streams[kept] = std::move(streams[i]);
        }
        ++kept;
      }
    }
    // Every entry past `kept` is now empty (reset or moved from), as a
    // freed slot's elements must be.
    bucket.size = kept;
    bucket.memo = 0;
    if (kept == 0) release(bucket);
  }

  /// Creates `kind`'s bucket with room for `n` streams, unless it already
  /// holds a slot (runtime use: the deliver phase, before a node's run of
  /// copies). Changes no observable state: the bucket is still empty.
  void reserve(std::uint16_t kind, std::size_t n) {
    Bucket& bucket = bucket_for(check_kind(kind));
    if (bucket.slot != kNoSlot) return;
    unsigned cls = slot_class_for(n);
    bucket.slot = pool_->alloc(cls);
    bucket.cls = static_cast<std::uint8_t>(cls);
  }

  /// Drops every stream and returns every bucket slot to the pool.
  void clear() {
    for (Bucket& bucket : store_) {
      if (bucket.slot == kNoSlot) continue;
      InStream* streams = streams_of(bucket);
      for (std::uint32_t i = 0; i < bucket.size; ++i) streams[i] = InStream{};
      release(bucket);
    }
    store_ = {};
    slot_ = init_slots();
  }

  /// Total streams stored (all kinds).
  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t total = 0;
    for (const auto& b : store_) total += b.size;
    return total;
  }

  /// Streams `kind`'s bucket holds before it grows: its slot's class size,
  /// or 0 while it holds no slot.
  [[nodiscard]] std::size_t capacity(std::uint16_t kind) const {
    const std::int8_t slot = slot_[check_kind(kind)];
    if (slot < 0) return 0;
    const Bucket& bucket = store_[static_cast<std::size_t>(slot)];
    return bucket.slot == kNoSlot ? 0 : slot_class_size(bucket.cls);
  }

 private:
  static constexpr std::uint32_t kNoSlot = SlotPool<InStream>::kNoSlot;

  struct Bucket {
    /// InboxPool handle, held while size > 0 and after a reserve().
    std::uint32_t slot = kNoSlot;
    std::uint32_t size = 0;  ///< live entries; the slot holds
                             ///< slot_class_size(cls)

    /// Last-hit memo (see class comment); validated by value on every use,
    /// so it can never go stale in an observable way.
    std::uint32_t memo = 0;

    std::uint8_t cls = 0;
  };

  static constexpr std::size_t kMiss = ~static_cast<std::size_t>(0);

  static InboxKey pack(std::size_t ni, const StreamKey& key) noexcept {
    nc_invariant(ni < InboxKey::kNiLimit && key.version < kMaxStreamVersions,
                 "inbox key field out of range: ni must be below 2^28 "
                 "(Network rejects larger degrees) and version below 16 "
                 "(open_stream rejects larger ones)");
    return InboxKey{(static_cast<std::uint64_t>(ni) << 36) |
                    (static_cast<std::uint64_t>(key.tag) << 4) | key.version};
  }

  static std::uint16_t check_kind(std::uint16_t kind) {
    if (kind >= kMaxMsgKinds) {
      throw std::invalid_argument("message kind out of range (>= 32)");
    }
    return kind;
  }

  [[nodiscard]] InboxKey* keys_of(const Bucket& b) const noexcept {
    return pool_->keys.data(b.cls, b.slot);
  }
  [[nodiscard]] InStream* streams_of(const Bucket& b) const noexcept {
    return pool_->streams.data(b.cls, b.slot);
  }

  /// The kind's bucket, allocated on first delivery.
  [[nodiscard]] Bucket& bucket_for(std::uint16_t kind) {
    std::int8_t slot = slot_[kind];
    if (slot < 0) {
      slot = static_cast<std::int8_t>(store_.size());
      slot_[kind] = slot;
      store_.emplace_back();
    }
    return store_[static_cast<std::size_t>(slot)];
  }

  /// Returns an emptied bucket's slot to the pool; the next insert takes a
  /// fresh one-entry slot.
  void release(Bucket& b) {
    pool_->free(b.cls, b.slot);
    b = Bucket{};
  }

  /// Inserts a fresh stream under `want` at position `idx` — the vector
  /// insert, on pool slots: shift the tail within the slot, or move the
  /// whole bucket into a slot at least twice the size when it is full.
  void insert(Bucket& b, std::size_t idx, const InboxKey& want) {
    const std::size_t n = b.size;
    if (b.slot == kNoSlot || n == slot_class_size(b.cls)) {
      unsigned cls = b.slot == kNoSlot ? 0 : slot_class_grown(b.cls);
      const std::uint32_t slot = pool_->alloc(cls);
      InboxKey* keys = pool_->keys.data(cls, slot);
      InStream* streams = pool_->streams.data(cls, slot);
      if (n > 0) {
        InboxKey* old_keys = keys_of(b);
        InStream* old_streams = streams_of(b);
        std::copy(old_keys, old_keys + idx, keys);
        std::copy(old_keys + idx, old_keys + n, keys + idx + 1);
        std::move(old_streams, old_streams + idx, streams);
        std::move(old_streams + idx, old_streams + n, streams + idx + 1);
        pool_->free(b.cls, b.slot);
      }
      keys[idx] = want;
      streams[idx] = InStream{};
      b.slot = slot;
      b.cls = static_cast<std::uint8_t>(cls);
    } else {
      InboxKey* keys = keys_of(b);
      InStream* streams = streams_of(b);
      std::copy_backward(keys + idx, keys + n, keys + n + 1);
      std::move_backward(streams + idx, streams + n, streams + n + 1);
      keys[idx] = want;
      streams[idx] = InStream{};
    }
    ++b.size;
  }

  /// Memo probe: the bucket's last-hit slot, then its successor (ascending
  /// access patterns). Returns the validated index or kMiss. Updates the
  /// memo on a successor hit.
  [[nodiscard]] static std::size_t probe(Bucket& bucket, const InboxKey* keys,
                                         const InboxKey& want) noexcept {
    const std::size_t last = bucket.memo;
    if (last < bucket.size && keys[last] == want) return last;
    const std::size_t next = last + 1;
    if (next < bucket.size && keys[next] == want) {
      bucket.memo = static_cast<std::uint32_t>(next);
      return next;
    }
    return kMiss;
  }

  static std::size_t lower_bound(const InboxKey* keys, std::size_t n,
                                 const InboxKey& want) {
    return static_cast<std::size_t>(std::lower_bound(keys, keys + n, want) -
                                    keys);
  }

  /// The shard's column storage (not owned).
  InboxPool* pool_;

  /// kind → index into store_, -1 while the kind has never received.
  std::array<std::int8_t, kMaxMsgKinds> slot_ = init_slots();

  /// Buckets of the kinds in use, in first-delivery order.
  std::vector<Bucket> store_;

  static constexpr std::array<std::int8_t, kMaxMsgKinds> init_slots() {
    std::array<std::int8_t, kMaxMsgKinds> s{};
    for (auto& v : s) v = -1;
    return s;
  }
};

}  // namespace nc
