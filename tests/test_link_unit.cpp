#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/link.hpp"
#include "runtime/message.hpp"
#include "runtime/stream.hpp"

// Direct unit tests of the link layer: scheduling, chunking, round-robin,
// EOS piggybacking, pruning and the shard pool behind the stream lists —
// independent of the Network round loop.

namespace nc {
namespace {

constexpr unsigned kHeader = 16;

OutChannel attach(LinkPool& pool, Link& link, const StreamKey& key) {
  OutChannel ch;
  link.add_stream(pool, ch.share(key));
  return ch;
}

TEST(SymbolBuffer, PacksMixedWidths) {
  SymbolBuffer buf;
  buf.put(0b101, 3);
  buf.put_bit(true);
  buf.put(0xffff, 16);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.bit_size(), 20u);
  // Sequential read, the way InStream and the link schedulers walk it.
  EXPECT_EQ(buf.width_at(0), 3u);
  EXPECT_EQ(buf.value_at(0, 3), 0b101u);
  EXPECT_EQ(buf.width_at(1), 1u);
  EXPECT_EQ(buf.value_at(3, 1), 1u);
  EXPECT_EQ(buf.width_at(2), 16u);
  EXPECT_EQ(buf.value_at(4, 16), 0xffffu);
}

TEST(SymbolBuffer, CursorSeesAppendsAfterConstruction) {
  // A link attached to a still-empty stream sees symbols the producer
  // appends later: Lemma 5.1's pipelined convergecasts depend on it.
  LinkPool pool;
  Link link;
  auto ch = attach(pool, link, StreamKey{1, 0, 0});
  MsgView v;
  EXPECT_FALSE(link.schedule_view(pool, kHeader + 64, kHeader, v));
  ch.put(7, 8);
  ASSERT_TRUE(link.schedule_view(pool, kHeader + 64, kHeader, v));
  ASSERT_EQ(v.symbol_count, 1u);
  EXPECT_EQ(v.buf->value_at(v.bit_off, v.buf->width_at(v.first_symbol)), 7u);
  ch.put(9, 8);  // grows the buffer the view's successor reads
  ASSERT_TRUE(link.schedule_view(pool, kHeader + 64, kHeader, v));
  EXPECT_EQ(v.first_symbol, 1u);
  EXPECT_EQ(v.bit_off, 8u);
  EXPECT_EQ(v.buf->value_at(v.bit_off, 8), 9u);
}

using Symbols = std::vector<std::pair<std::uint64_t, unsigned>>;

/// Every (value, width) of a buffer, read back with width_at/value_at.
Symbols contents(const SymbolBuffer& buf) {
  Symbols out;
  std::size_t bit = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const unsigned w = buf.width_at(i);
    out.emplace_back(buf.value_at(bit, w), w);
    bit += w;
  }
  EXPECT_EQ(bit, buf.bit_size());
  return out;
}

TEST(SymbolBuffer, SpillsAtThe65thPayloadBit) {
  SymbolBuffer buf;
  Symbols want;
  for (std::uint64_t i = 0; i < 4; ++i) {  // 4 x 16 = 64 bits: still inline
    buf.put(0xa000 + i, 16);
    want.emplace_back(0xa000 + i, 16);
  }
  EXPECT_FALSE(buf.spilled());
  EXPECT_EQ(buf.word_count(), 1u);
  buf.put_bit(true);  // bit 65
  want.emplace_back(1, 1);
  EXPECT_TRUE(buf.spilled());
  EXPECT_EQ(buf.word_count(), 2u);
  EXPECT_EQ(buf.bit_size(), 65u);
  EXPECT_EQ(contents(buf), want);
  // A single full-width symbol fills the inline word exactly.
  SymbolBuffer wide;
  wide.put(~std::uint64_t{0}, 64);
  EXPECT_FALSE(wide.spilled());
  EXPECT_EQ(wide.value_at(0, 64), ~std::uint64_t{0});
}

TEST(SymbolBuffer, SpillsAtTheNinthSymbol) {
  SymbolBuffer buf;
  Symbols want;
  for (std::uint64_t i = 0; i < SymbolBuffer::kInlineSymbols; ++i) {
    buf.put(i % 4, 2);
    want.emplace_back(i % 4, 2);
  }
  EXPECT_FALSE(buf.spilled());  // 8 symbols, 16 bits
  buf.put(3, 2);
  want.emplace_back(3, 2);
  EXPECT_TRUE(buf.spilled());  // 9th symbol, though only 18 bits
  EXPECT_EQ(buf.word_count(), 1u);
  EXPECT_EQ(contents(buf), want);
  // The heap tier keeps growing past its first capacities (16 widths,
  // 2 words) without losing anything.
  for (std::uint64_t i = 0; i < 100; ++i) {
    buf.put(i * 0x9e3779b97f4a7c15u >> 35, 29);
    want.emplace_back(i * 0x9e3779b97f4a7c15u >> 35, 29);
  }
  EXPECT_EQ(contents(buf), want);
}

TEST(SymbolBuffer, SymbolStraddlingTheInlineWordSpillsIntact) {
  SymbolBuffer buf;
  buf.put(0xfffffffffffffffu, 60);  // 60 bits inline
  buf.put(0x2a5, 10);               // bits 60..69: straddles, spills
  EXPECT_TRUE(buf.spilled());
  EXPECT_EQ(buf.word_count(), 2u);
  EXPECT_EQ(buf.words()[0], 0xfffffffffffffffu | (std::uint64_t{0x5} << 60));
  EXPECT_EQ(buf.words()[1], std::uint64_t{0x2a5} >> 4);
  EXPECT_EQ(buf.value_at(60, 10), 0x2a5u);
  EXPECT_EQ(contents(buf),
            (Symbols{{0xfffffffffffffffu, 60}, {0x2a5, 10}}));
}

TEST(SymbolBuffer, CopyAndMoveInlineAndSpilled) {
  SymbolBuffer small;
  small.put(5, 3);
  small.put(6, 7);
  SymbolBuffer big;
  for (std::uint64_t i = 0; i < 30; ++i) big.put(i, 11);
  ASSERT_FALSE(small.spilled());
  ASSERT_TRUE(big.spilled());
  const Symbols small_want = contents(small);
  const Symbols big_want = contents(big);

  SymbolBuffer small_copy(small);
  SymbolBuffer big_copy(big);
  EXPECT_EQ(contents(small_copy), small_want);
  EXPECT_EQ(contents(big_copy), big_want);
  EXPECT_NE(big_copy.words(), big.words());  // a deep copy
  big_copy.put(1, 1);  // and an independent one
  EXPECT_EQ(big.size(), 30u);

  SymbolBuffer small_moved(std::move(small_copy));
  SymbolBuffer big_moved(std::move(big));
  EXPECT_EQ(contents(small_moved), small_want);
  EXPECT_EQ(contents(big_moved), big_want);
  EXPECT_EQ(big.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(big.bit_size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(big.spilled());  // NOLINT(bugprone-use-after-move)
  big.put(3, 2);  // a moved-from buffer is an empty, usable one
  EXPECT_EQ(contents(big), (Symbols{{3, 2}}));

  // Assignment across tiers, both ways.
  SymbolBuffer target = small;
  target = big_moved;
  EXPECT_EQ(contents(target), big_want);
  target = small;
  EXPECT_EQ(contents(target), small_want);
  target = std::move(big_moved);
  EXPECT_EQ(contents(target), big_want);
  target = SymbolBuffer{};
  EXPECT_EQ(target.size(), 0u);
}

TEST(SymbolBuffer, AppendPastTheLengthCapThrowsBeforeReadingTheSource) {
  // Runs that would take the buffer past 2^31 - 1 bits or symbols throw
  // before reading their source: the source here is one word and one
  // width long, so a read past either would show under ASan.
  SymbolBuffer buf;
  buf.put(5, 4);
  const std::uint64_t word = 0;
  const std::uint8_t width = 64;
  EXPECT_THROW(buf.append_packed(&word, 1, 0, SymbolBuffer::kMaxLength - 3,
                                 &width, 1),
               std::length_error);
  EXPECT_THROW(buf.append_packed(&word, 1, 0, 64, &width,
                                 SymbolBuffer::kMaxLength),
               std::length_error);
  // The failed appends left the buffer as it was.
  EXPECT_EQ(contents(buf), (Symbols{{5, 4}}));
}


/// The (value, width) symbols of a view's run in the producer's buffer.
Symbols decode(const MsgView& v) {
  Symbols out;
  std::size_t bit = v.bit_off;
  for (std::size_t i = 0; i < v.symbol_count; ++i) {
    const unsigned w = v.buf->width_at(v.first_symbol + i);
    out.emplace_back(v.buf->value_at(bit, w), w);
    bit += w;
  }
  return out;
}

struct Sent {
  MsgView view;  ///< header fields only: the buffer may be pruned
  Symbols symbols;
};

/// Schedules the link's next message the way the stage phase does: a
/// zero-copy view, consumed before release_idle() prunes finished streams.
std::optional<Sent> next(LinkPool& pool, Link& link,
                         std::size_t budget_bits) {
  MsgView v;
  if (!link.schedule_view(pool, budget_bits, kHeader, v)) return std::nullopt;
  Sent sent{v, decode(v)};
  link.release_idle(pool);
  return sent;
}

TEST(Link, NothingPendingWhenEmpty) {
  LinkPool pool;
  Link link;
  EXPECT_FALSE(link.has_pending(pool));
  EXPECT_FALSE(next(pool, link, 100).has_value());
}

TEST(Link, SchedulesWithinBudgetAndChunks) {
  LinkPool pool;
  Link link;
  auto ch = attach(pool, link, StreamKey{1, 0, 0});
  for (int i = 0; i < 10; ++i) ch.put(static_cast<std::uint64_t>(i), 8);
  ch.close();
  // Budget: header + 2 symbols and a bit of slack.
  std::vector<std::uint64_t> got;
  bool eos = false;
  while (auto d = next(pool, link, kHeader + 20)) {
    EXPECT_LE(d->view.wire_bits, kHeader + 20u);
    EXPECT_LE(d->symbols.size(), 2u);
    for (const auto& [v, w] : d->symbols) {
      EXPECT_EQ(w, 8u);
      got.push_back(v);
    }
    eos = eos || d->view.eos;
  }
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], static_cast<std::uint64_t>(i));
  EXPECT_TRUE(eos);
  EXPECT_FALSE(link.has_pending(pool));
}

TEST(Link, EosPiggybacksOnLastChunk) {
  LinkPool pool;
  Link link;
  auto ch = attach(pool, link, StreamKey{1, 0, 0});
  ch.put(1, 4);
  ch.close();
  const auto d = next(pool, link, kHeader + 64);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->view.eos);
  EXPECT_EQ(d->symbols.size(), 1u);
  EXPECT_FALSE(next(pool, link, kHeader + 64).has_value());
}

TEST(Link, EosOnlyMessageForEmptyClosedStream) {
  LinkPool pool;
  Link link;
  auto ch = attach(pool, link, StreamKey{2, 7, 0});
  ch.close();  // header-only stream (e.g. kTreeFinal)
  const auto d = next(pool, link, kHeader + 8);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->view.eos);
  EXPECT_TRUE(d->symbols.empty());
  EXPECT_EQ(d->view.wire_bits, kHeader);
}

TEST(Link, RoundRobinAlternatesStreams) {
  LinkPool pool;
  Link link;
  auto a = attach(pool, link, StreamKey{1, 0, 0});
  auto b = attach(pool, link, StreamKey{2, 0, 0});
  for (int i = 0; i < 4; ++i) {
    a.put(1, 8);
    b.put(2, 8);
  }
  a.close();
  b.close();
  // One symbol fits per message: kinds must alternate.
  std::vector<std::uint16_t> kinds;
  while (auto d = next(pool, link, kHeader + 8)) {
    kinds.push_back(d->view.key.kind);
  }
  ASSERT_GE(kinds.size(), 8u);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_NE(kinds[i], kinds[i - 1]);
}

TEST(Link, ThrowsWhenSymbolCannotFit) {
  LinkPool pool;
  Link link;
  auto ch = attach(pool, link, StreamKey{1, 0, 0});
  ch.put(0xffffffff, 32);
  ch.close();
  EXPECT_THROW((void)next(pool, link, kHeader + 8), std::runtime_error);
}

TEST(Link, ThrowsWhenBudgetBelowHeader) {
  LinkPool pool;
  Link link;
  auto ch = attach(pool, link, StreamKey{1, 0, 0});
  ch.put_bit(true);
  ch.close();
  EXPECT_THROW((void)next(pool, link, kHeader - 1), std::runtime_error);
}

TEST(Link, DrainAllDeliversEverythingAtOnce) {
  // LOCAL mode: one unbounded message per pending stream.
  LinkPool pool;
  Link link;
  auto a = attach(pool, link, StreamKey{1, 0, 0});
  auto b = attach(pool, link, StreamKey{2, 0, 0});
  for (int i = 0; i < 100; ++i) a.put(i % 256, 8);
  a.close();
  b.put(5, 3);
  b.close();
  std::vector<std::pair<MsgView, std::size_t>> ds;  // view, decoded symbols
  const auto drain = [&] {
    const std::size_t n =
        link.drain_views(pool, kHeader, [&](const MsgView& v) {
          ds.emplace_back(v, decode(v).size());
        });
    link.release_idle(pool);
    return n;
  };
  ASSERT_EQ(drain(), 2u);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0].second, 100u);
  EXPECT_TRUE(ds[0].first.eos);
  EXPECT_EQ(ds[0].first.wire_bits, kHeader + 800u);
  EXPECT_EQ(ds[1].second, 1u);
  EXPECT_EQ(drain(), 0u);
  EXPECT_EQ(link.stream_count(), 0u);  // both EOS delivered: pruned
}

TEST(Link, AppendAfterPartialDrainContinues) {
  LinkPool pool;
  Link link;
  auto ch = attach(pool, link, StreamKey{1, 0, 0});
  ch.put(1, 8);
  auto d1 = next(pool, link, kHeader + 8);
  ASSERT_TRUE(d1.has_value());
  EXPECT_FALSE(d1->view.eos);  // stream not closed yet
  ch.put(2, 8);
  ch.close();
  auto d2 = next(pool, link, kHeader + 8);
  ASSERT_TRUE(d2.has_value());
  ASSERT_EQ(d2->symbols.size(), 1u);
  EXPECT_EQ(d2->symbols[0].first, 2u);
  EXPECT_TRUE(d2->view.eos);
}

TEST(Link, PruneKeepsActiveStreams) {
  LinkPool pool;
  Link link;
  auto done = attach(pool, link, StreamKey{1, 0, 0});
  done.put(1, 4);
  done.close();
  auto live = attach(pool, link, StreamKey{2, 0, 0});
  live.put(2, 4);
  EXPECT_EQ(link.stream_count(), 2u);
  (void)next(pool, link, kHeader + 64);  // drains `done` + its EOS
  (void)next(pool, link, kHeader + 64);  // drains `live`'s symbol
  link.prune_done(pool);
  EXPECT_EQ(link.stream_count(), 1u);  // `done` pruned, `live` kept
  EXPECT_FALSE(link.has_pending(pool));  // live has no pending symbols...
  live.put(3, 4);
  EXPECT_TRUE(link.has_pending(pool));  // ...but is still attached after prune
  const auto d = next(pool, link, kHeader + 64);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->view.key.kind, 2u);
}

/// Kinds of every message the link schedules until it goes idle, one
/// 8-bit symbol per message, paired with the stream count after each.
std::vector<std::pair<std::uint16_t, std::size_t>> rotation(LinkPool& pool,
                                                            Link& link) {
  std::vector<std::pair<std::uint16_t, std::size_t>> out;
  while (auto m = next(pool, link, kHeader + 8)) {
    out.emplace_back(m->view.key.kind, link.stream_count());
  }
  return out;
}

TEST(Link, PruneFromTheMiddleKeepsOrderAndRoundRobinCursor) {
  // Five concurrent streams; b (kind 2) finishes in the first rotation and
  // is pruned from the middle at the next schedule. Compaction keeps the
  // survivors in open order, and the cursor keeps its index (2), which now
  // names d — so c waits a turn. That is the vector behaviour the pool
  // slots must reproduce exactly: fixed-seed runs depend on it.
  LinkPool pool;
  Link link;
  auto a = attach(pool, link, StreamKey{1, 0, 0});
  auto b = attach(pool, link, StreamKey{2, 0, 0});
  auto c = attach(pool, link, StreamKey{3, 0, 0});
  auto d = attach(pool, link, StreamKey{4, 0, 0});
  auto e = attach(pool, link, StreamKey{5, 0, 0});
  for (int i = 0; i < 2; ++i) {
    a.put(1, 8);
    c.put(3, 8);
    d.put(4, 8);
    e.put(5, 8);
  }
  b.put(2, 8);
  b.close();
  e.close();
  const std::vector<std::pair<std::uint16_t, std::size_t>> want{
      {1, 5}, {2, 5}, {4, 4}, {5, 4}, {1, 4},
      {3, 4}, {4, 4}, {5, 4}, {3, 3}};
  EXPECT_EQ(rotation(pool, link), want);
  EXPECT_EQ(link.stream_count(), 3u);  // a, c, d: drained but still open
  // A stream opened after the prunes joins behind the survivors, and the
  // rotation resumes where it stopped: after c, at slot 2 (d).
  auto f = attach(pool, link, StreamKey{6, 0, 0});
  a.put(1, 8);
  d.put(4, 8);
  f.put(6, 8);
  const std::vector<std::pair<std::uint16_t, std::size_t>> after{
      {4, 4}, {6, 4}, {1, 4}};
  EXPECT_EQ(rotation(pool, link), after);
}

TEST(Link, PruneWrapsTheCursorPastTheCompactedEnd) {
  // c (kind 3) finishes with the cursor on slot 3 (d); pruning c leaves
  // three streams, so the cursor wraps to slot 0 and a goes before d.
  LinkPool pool;
  Link link;
  auto a = attach(pool, link, StreamKey{1, 0, 0});
  auto b = attach(pool, link, StreamKey{2, 0, 0});
  auto c = attach(pool, link, StreamKey{3, 0, 0});
  auto d = attach(pool, link, StreamKey{4, 0, 0});
  for (int i = 0; i < 2; ++i) {
    a.put(1, 8);
    b.put(2, 8);
    d.put(4, 8);
  }
  c.put(3, 8);
  c.close();
  const std::vector<std::pair<std::uint16_t, std::size_t>> want{
      {1, 4}, {2, 4}, {3, 4}, {1, 3}, {2, 3}, {4, 3}, {4, 3}};
  EXPECT_EQ(rotation(pool, link), want);
}

TEST(LinkPool, PrunedSlotsAreReusedAcrossLinksOfOneShard) {
  // Two links of one shard. Link a's only stream finishes and is pruned:
  // its one-entry slot goes back to the pool, and link b's next stream
  // takes it instead of carving a fresh one.
  LinkPool pool;
  Link a;
  Link b;
  auto sa = attach(pool, a, StreamKey{1, 0, 0});
  sa.put(1, 4);
  sa.close();
  EXPECT_EQ(pool.live_slots(), 1u);
  EXPECT_EQ(pool.carved_slots(), 1u);
  (void)next(pool, a, kHeader + 64);  // drains, EOS, release_idle prunes
  EXPECT_EQ(a.stream_count(), 0u);
  EXPECT_EQ(pool.live_slots(), 0u);
  auto sb = attach(pool, b, StreamKey{2, 0, 0});
  EXPECT_EQ(pool.live_slots(), 1u);
  EXPECT_EQ(pool.carved_slots(), 1u);  // reused, not carved
  // Growth to two streams moves b into a two-entry slot and frees the
  // one-entry slot, which a's next stream then reuses.
  auto sb2 = attach(pool, b, StreamKey{3, 0, 0});
  auto sa2 = attach(pool, a, StreamKey{4, 0, 0});
  EXPECT_EQ(pool.live_slots(), 2u);
  EXPECT_EQ(pool.carved_slots(), 2u);
  // Both links still schedule their own streams.
  sb.put(5, 4);
  sb2.put(6, 4);
  sa2.put(7, 4);
  const auto mb = next(pool, b, kHeader + 4);
  const auto mb2 = next(pool, b, kHeader + 4);
  const auto ma = next(pool, a, kHeader + 4);
  ASSERT_TRUE(mb && mb2 && ma);
  EXPECT_EQ(mb->symbols[0].first, 5u);
  EXPECT_EQ(mb2->symbols[0].first, 6u);
  EXPECT_EQ(ma->symbols[0].first, 7u);
}

TEST(LinkPool, ReleasesPrunedPayloadsAndSurvivesManyClasses) {
  // Pruning drops the link's reference to the finished payload (the
  // vector's resize semantics), and a link can grow through several
  // pool classes without losing stream order.
  LinkPool pool;
  Link link;
  std::vector<OutChannel> chans;
  for (std::uint16_t k = 0; k < 20; ++k) {
    chans.push_back(attach(pool, link, StreamKey{k, 0, 0}));
    chans.back().put(k, 8);
  }
  EXPECT_EQ(link.stream_count(), 20u);
  std::vector<std::uint16_t> kinds;
  while (auto m = next(pool, link, kHeader + 8)) {
    kinds.push_back(m->view.key.kind);
  }
  ASSERT_EQ(kinds.size(), 20u);
  for (std::uint16_t k = 0; k < 20; ++k) EXPECT_EQ(kinds[k], k);
  // A third owner watches stream 3's state: the producer's channel, the
  // link and the watch hold it now.
  StreamRef watch = chans[3].share(StreamKey{3, 0, 0});
  EXPECT_EQ(watch->refs, 3u);
  chans[3].close();
  (void)next(pool, link, kHeader + 8);  // EOS-only message for stream 3
  link.prune_done(pool);
  EXPECT_EQ(link.stream_count(), 19u);
  EXPECT_EQ(watch->refs, 2u);  // the link let go
  chans[3] = OutChannel{};     // the producer lets go too
  EXPECT_EQ(watch->refs, 1u);  // so the watch is the last owner...
  EXPECT_TRUE(watch->closed);  // ...of a state that is still whole
  // ...and its reset frees the state: a leak here fails the suite under
  // the asan-ubsan preset, whose leak checker runs at exit.
  watch.reset();
  EXPECT_TRUE(watch == nullptr);
}

TEST(StreamHeaderBits, MatchesLayout) {
  // kind(5) + tag(id bits) + version(4) + eos(1).
  EXPECT_EQ(stream_header_bits(10), 5u + 10u + 4u + 1u);
  EXPECT_EQ(stream_header_bits(1), 11u);
}

}  // namespace
}  // namespace nc
