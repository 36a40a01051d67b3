#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/link.hpp"
#include "runtime/message.hpp"
#include "runtime/stream.hpp"

// Direct unit tests of the link layer: scheduling, chunking, round-robin,
// EOS piggybacking and pruning — independent of the Network round loop.

namespace nc {
namespace {

constexpr unsigned kHeader = 16;

OutChannel attach(Link& link, const StreamKey& key) {
  OutChannel ch;
  link.add_stream(key, ch.state());
  return ch;
}

TEST(SymbolBuffer, PacksMixedWidths) {
  SymbolBuffer buf;
  buf.put(0b101, 3);
  buf.put_bit(true);
  buf.put(0xffff, 16);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.bit_size(), 20u);
  SymbolCursor cur(std::make_shared<SymbolBuffer>(buf));
  EXPECT_EQ(cur.available(), 3u);
  EXPECT_EQ(cur.peek_width(), 3u);
  EXPECT_EQ(cur.pop(), 0b101u);
  EXPECT_EQ(cur.pop(), 1u);
  EXPECT_EQ(cur.pop(), 0xffffu);
  EXPECT_EQ(cur.available(), 0u);
}

TEST(SymbolBuffer, CursorSeesAppendsAfterConstruction) {
  auto buf = std::make_shared<SymbolBuffer>();
  SymbolCursor cur(buf);
  EXPECT_EQ(cur.available(), 0u);
  buf->put(7, 8);
  EXPECT_EQ(cur.available(), 1u);  // growth visible: pipelining depends on it
  EXPECT_EQ(cur.pop(), 7u);
}

using Symbols = std::vector<std::pair<std::uint64_t, unsigned>>;

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
std::optional<Sent> next(Link& link, std::size_t budget_bits) {
  MsgView v;
  if (!link.schedule_view(budget_bits, kHeader, v)) return std::nullopt;
  Sent sent{v, decode(v)};
  link.release_idle();
  return sent;
}

TEST(Link, NothingPendingWhenEmpty) {
  Link link;
  EXPECT_FALSE(link.has_pending());
  EXPECT_FALSE(next(link, 100).has_value());
}

TEST(Link, SchedulesWithinBudgetAndChunks) {
  Link link;
  auto ch = attach(link, StreamKey{1, 0, 0});
  for (int i = 0; i < 10; ++i) ch.put(static_cast<std::uint64_t>(i), 8);
  ch.close();
  // Budget: header + 2 symbols and a bit of slack.
  std::vector<std::uint64_t> got;
  bool eos = false;
  while (auto d = next(link, kHeader + 20)) {
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
  EXPECT_FALSE(link.has_pending());
}

TEST(Link, EosPiggybacksOnLastChunk) {
  Link link;
  auto ch = attach(link, StreamKey{1, 0, 0});
  ch.put(1, 4);
  ch.close();
  const auto d = next(link, kHeader + 64);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->view.eos);
  EXPECT_EQ(d->symbols.size(), 1u);
  EXPECT_FALSE(next(link, kHeader + 64).has_value());
}

TEST(Link, EosOnlyMessageForEmptyClosedStream) {
  Link link;
  auto ch = attach(link, StreamKey{2, 7, 0});
  ch.close();  // header-only stream (e.g. kTreeFinal)
  const auto d = next(link, kHeader + 8);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->view.eos);
  EXPECT_TRUE(d->symbols.empty());
  EXPECT_EQ(d->view.wire_bits, kHeader);
}

TEST(Link, RoundRobinAlternatesStreams) {
  Link link;
  auto a = attach(link, StreamKey{1, 0, 0});
  auto b = attach(link, StreamKey{2, 0, 0});
  for (int i = 0; i < 4; ++i) {
    a.put(1, 8);
    b.put(2, 8);
  }
  a.close();
  b.close();
  // One symbol fits per message: kinds must alternate.
  std::vector<std::uint16_t> kinds;
  while (auto d = next(link, kHeader + 8)) kinds.push_back(d->view.key.kind);
  ASSERT_GE(kinds.size(), 8u);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_NE(kinds[i], kinds[i - 1]);
}

TEST(Link, ThrowsWhenSymbolCannotFit) {
  Link link;
  auto ch = attach(link, StreamKey{1, 0, 0});
  ch.put(0xffffffff, 32);
  ch.close();
  EXPECT_THROW((void)next(link, kHeader + 8), std::runtime_error);
}

TEST(Link, ThrowsWhenBudgetBelowHeader) {
  Link link;
  auto ch = attach(link, StreamKey{1, 0, 0});
  ch.put_bit(true);
  ch.close();
  EXPECT_THROW((void)next(link, kHeader - 1), std::runtime_error);
}

TEST(Link, DrainAllDeliversEverythingAtOnce) {
  // LOCAL mode: one unbounded message per pending stream.
  Link link;
  auto a = attach(link, StreamKey{1, 0, 0});
  auto b = attach(link, StreamKey{2, 0, 0});
  for (int i = 0; i < 100; ++i) a.put(i % 256, 8);
  a.close();
  b.put(5, 3);
  b.close();
  std::vector<std::pair<MsgView, std::size_t>> ds;  // view, decoded symbols
  const auto drain = [&] {
    const std::size_t n = link.drain_views(kHeader, [&](const MsgView& v) {
      ds.emplace_back(v, decode(v).size());
    });
    link.release_idle();
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
  Link link;
  auto ch = attach(link, StreamKey{1, 0, 0});
  ch.put(1, 8);
  auto d1 = next(link, kHeader + 8);
  ASSERT_TRUE(d1.has_value());
  EXPECT_FALSE(d1->view.eos);  // stream not closed yet
  ch.put(2, 8);
  ch.close();
  auto d2 = next(link, kHeader + 8);
  ASSERT_TRUE(d2.has_value());
  ASSERT_EQ(d2->symbols.size(), 1u);
  EXPECT_EQ(d2->symbols[0].first, 2u);
  EXPECT_TRUE(d2->view.eos);
}

TEST(Link, PruneKeepsActiveStreams) {
  Link link;
  auto done = attach(link, StreamKey{1, 0, 0});
  done.put(1, 4);
  done.close();
  auto live = attach(link, StreamKey{2, 0, 0});
  live.put(2, 4);
  EXPECT_EQ(link.stream_count(), 2u);
  (void)next(link, kHeader + 64);  // drains `done` + its EOS
  (void)next(link, kHeader + 64);  // drains `live`'s symbol
  link.prune_done();
  EXPECT_EQ(link.stream_count(), 1u);  // `done` pruned, `live` kept
  EXPECT_FALSE(link.has_pending());  // live has no pending symbols...
  live.put(3, 4);
  EXPECT_TRUE(link.has_pending());  // ...but is still attached after prune
  const auto d = next(link, kHeader + 64);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->view.key.kind, 2u);
}

TEST(StreamHeaderBits, MatchesLayout) {
  // kind(5) + tag(id bits) + version(4) + eos(1).
  EXPECT_EQ(stream_header_bits(10), 5u + 10u + 4u + 1u);
  EXPECT_EQ(stream_header_bits(1), 11u);
}

}  // namespace
}  // namespace nc
