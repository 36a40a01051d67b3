#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/inbox.hpp"

// Direct unit tests of the flat kind-bucketed inbox: deterministic
// (ni, key) iteration order, kind isolation, find/open semantics, stream
// lifetimes (retire and clear), the kind-range guard, the shard pool
// behind the bucket columns, and the InStream payload tiers.
//
// Contract note: the runtime only ever touches a stream through open()
// immediately before delivering into it, so these tests do the same.

namespace nc {
namespace {

using Seen = std::vector<std::tuple<std::size_t, NodeId, std::uint16_t>>;

Seen collect(Inbox& inbox, std::uint16_t kind) {
  Seen seen;
  inbox.for_each(kind, [&](std::size_t ni, const StreamKey& key, InStream&) {
    EXPECT_EQ(key.kind, kind);
    seen.emplace_back(ni, key.tag, key.version);
  });
  return seen;
}

TEST(Inbox, IterationOrderIsSortedRegardlessOfInsertionOrder) {
  InboxPool pool;
  Inbox inbox(pool);
  const std::size_t top_ni = InboxKey::kNiLimit - 1;
  const NodeId top_tag = 0xFFFFFFFFu;
  // Scrambled insertion: (ni, tag, version) triples of kind 3, with every
  // field of the packed key at its edges: tag 0 and 2^32 - 1, tags that
  // differ only above bit 16, version 15 and ni 2^28 - 1. The bucket
  // doubles four times on the way to 15 streams.
  const Seen scrambled{{2, 5, 0},      {1, 0x20007, 4},
                       {0, 9, 1},      {top_ni, top_tag, 15},
                       {2, 1, 2},      {1, 0x10007, 4},
                       {0, 9, 0},      {top_ni, 0, 0},
                       {1, 0, 0},      {0, top_tag, 0},
                       {2, 1, 1},      {top_ni, 0x10007, 4},
                       {1, 7, 4},      {2, 1, 15},
                       {top_ni, top_tag, 14}};
  // Stream i carries i + 1 and i + 101. Stream 1 is read part way and
  // closed while the bucket still has two entries, so every doubling and
  // the retire compaction below move it.
  constexpr std::size_t kRead = 1;
  for (std::size_t i = 0; i < scrambled.size(); ++i) {
    const auto& [ni, tag, version] = scrambled[i];
    InStream& s = inbox.open(ni, StreamKey{3, tag, version});
    s.deliver(i + 1, 8);
    s.deliver(i + 101, 8);
    if (i == kRead) {
      s.deliver_eos();
      EXPECT_EQ(s.pop(), i + 1);
    }
  }
  // Visits in (ni, tag, version) order, each stream in the state its
  // deliveries and reads left.
  const auto expect_streams = [&](const Seen& want) {
    Seen seen;
    inbox.for_each(3, [&](std::size_t ni, const StreamKey& key, InStream& s) {
      seen.emplace_back(ni, key.tag, key.version);
      const bool read = seen.back() == scrambled[kRead];
      EXPECT_EQ(s.closed(), read);
      EXPECT_EQ(s.available(), read ? 1u : 2u);
    });
    EXPECT_EQ(seen, want);
  };
  Seen want = scrambled;
  std::sort(want.begin(), want.end());
  expect_streams(want);
  // Retiring (0x10007, 4) drops that pair from both neighbours and nothing
  // else: tags 7 and 0x20007 share its low 16 bits and its version.
  inbox.retire(StreamKey{3, 0x10007, 4});
  std::erase_if(want, [](const auto& t) {
    return std::get<1>(t) == 0x10007 && std::get<2>(t) == 4;
  });
  ASSERT_EQ(want.size(), scrambled.size() - 2);
  EXPECT_EQ(inbox.size(), want.size());
  expect_streams(want);
  // Each survivor's next symbol, through find().
  for (std::size_t i = 0; i < scrambled.size(); ++i) {
    const auto& [ni, tag, version] = scrambled[i];
    InStream* s = inbox.find(ni, StreamKey{3, tag, version});
    if (tag == 0x10007) {
      EXPECT_EQ(s, nullptr) << i;
      continue;
    }
    ASSERT_NE(s, nullptr) << i;
    EXPECT_EQ(s->pop(), i == kRead ? i + 101 : i + 1) << i;
  }
}

TEST(Inbox, KindsAreIsolated) {
  InboxPool pool;
  Inbox inbox(pool);
  inbox.open(0, StreamKey{1, 7, 0}).deliver(1, 4);
  inbox.open(1, StreamKey{2, 7, 0}).deliver(1, 4);
  inbox.open(2, StreamKey{1, 8, 0}).deliver(1, 4);
  EXPECT_EQ(collect(inbox, 1).size(), 2u);
  EXPECT_EQ(collect(inbox, 2).size(), 1u);
  EXPECT_TRUE(collect(inbox, 5).empty());
  EXPECT_EQ(inbox.size(), 3u);
}

TEST(Inbox, OpenIsFindOrCreateAndFindDoesNotCreate) {
  InboxPool pool;
  Inbox inbox(pool);
  const StreamKey key{4, 11, 2};
  EXPECT_EQ(inbox.find(3, key), nullptr);
  InStream& s = inbox.open(3, key);
  s.deliver(42, 8);
  InStream* found = inbox.find(3, key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &inbox.open(3, key));  // same stream, not a duplicate
  EXPECT_EQ(found->pop(), 42u);
  // Near-miss keys do not match.
  EXPECT_EQ(inbox.find(3, StreamKey{4, 11, 3}), nullptr);
  EXPECT_EQ(inbox.find(3, StreamKey{4, 12, 2}), nullptr);
  EXPECT_EQ(inbox.find(2, key), nullptr);
  EXPECT_EQ(inbox.size(), 1u);
}

TEST(Inbox, ClosedStreamsAreNeverSkipped) {
  InboxPool pool;
  Inbox inbox(pool);
  const std::uint16_t kind = 2;
  // Entry 0 closes (EOS delivered through open(), as the runtime does);
  // entry 1 stays open and gets drained.
  inbox.open(0, StreamKey{kind, 0, 0}).deliver_eos();
  InStream& s1 = inbox.open(1, StreamKey{kind, 0, 0});
  s1.deliver(5, 4);
  while (s1.available() > 0) (void)s1.pop();
  // Until retired, drained and closed streams stay visible: visitors that
  // count finished streams (tree finalization, component announce) must
  // keep seeing them, every sweep, though they have nothing left to pop.
  for (int sweep = 0; sweep < 2; ++sweep) {
    const Seen want{{0, 0, 0}, {1, 0, 0}};
    EXPECT_EQ(collect(inbox, kind), want);
  }
}

TEST(Inbox, RetireCompactsTheBucketAndKeepsOrder) {
  InboxPool pool;
  Inbox inbox(pool);
  const std::uint16_t kind = 11;
  // Keys (kind, 4..6, 1) from four neighbours, plus (kind, 5, 2) from
  // neighbour 1: same tag, other version.
  for (std::size_t ni = 0; ni < 4; ++ni) {
    for (NodeId tag = 4; tag <= 6; ++tag) {
      inbox.open(ni, StreamKey{kind, tag, 1}).deliver(ni * 10 + tag, 8);
    }
  }
  inbox.open(1, StreamKey{kind, 5, 2}).deliver(99, 8);
  inbox.retire(StreamKey{kind, 5, 1});
  const Seen want{{0, 4, 1}, {0, 6, 1}, {1, 4, 1}, {1, 5, 2}, {1, 6, 1},
                  {2, 4, 1}, {2, 6, 1}, {3, 4, 1}, {3, 6, 1}};
  EXPECT_EQ(collect(inbox, kind), want);
  EXPECT_EQ(inbox.size(), 9u);
  EXPECT_EQ(pool.keys.live_slots(), 1u);  // a partial retire keeps the slot
  // Lookups after compaction: survivors keep their payloads (probed in an
  // order that defeats the memo too), the retired key is gone.
  for (const std::size_t ni : {3u, 0u, 2u, 1u}) {
    EXPECT_EQ(inbox.find(ni, StreamKey{kind, 5, 1}), nullptr) << ni;
    InStream* four = inbox.find(ni, StreamKey{kind, 4, 1});
    InStream* six = inbox.find(ni, StreamKey{kind, 6, 1});
    ASSERT_NE(four, nullptr);
    ASSERT_NE(six, nullptr);
    EXPECT_EQ(four->pop(), ni * 10 + 4);
    EXPECT_EQ(six->pop(), ni * 10 + 6);
    EXPECT_EQ(&inbox.open(ni, StreamKey{kind, 6, 1}), six);  // no duplicate
  }
  EXPECT_EQ(inbox.find(1, StreamKey{kind, 5, 2})->pop(), 99u);
  // open() of a retired key inserts at its sorted position.
  inbox.open(2, StreamKey{kind, 5, 1}).deliver(7, 8);
  const Seen again{{0, 4, 1}, {0, 6, 1}, {1, 4, 1}, {1, 5, 2}, {1, 6, 1},
                   {2, 4, 1}, {2, 5, 1}, {2, 6, 1}, {3, 4, 1}, {3, 6, 1}};
  EXPECT_EQ(collect(inbox, kind), again);
  EXPECT_EQ(inbox.find(2, StreamKey{kind, 5, 1})->pop(), 7u);
}

TEST(Inbox, RetiredBucketSlotIsReusedByTheNextBucket) {
  InboxPool pool;
  Inbox first(pool);
  Inbox second(pool);
  first.open(0, StreamKey{1, 0, 0}).deliver(1, 4);
  first.open(3, StreamKey{2, 0, 0}).deliver(2, 4);
  EXPECT_EQ(pool.keys.live_slots(), 2u);
  first.retire(StreamKey{1, 0, 0});  // empties kind 1's bucket
  EXPECT_EQ(pool.keys.live_slots(), 1u);
  EXPECT_EQ(pool.streams.live_slots(), 1u);
  EXPECT_EQ(first.find(0, StreamKey{1, 0, 0}), nullptr);
  EXPECT_TRUE(collect(first, 1).empty());
  second.open(5, StreamKey{4, 9, 1}).deliver(3, 4);
  EXPECT_EQ(pool.keys.live_slots(), 2u);
  EXPECT_EQ(pool.keys.carved_slots(), 2u);  // reused, not carved
  EXPECT_EQ(pool.streams.carved_slots(), 2u);
  EXPECT_EQ(second.find(5, StreamKey{4, 9, 1})->pop(), 3u);
  EXPECT_EQ(first.find(3, StreamKey{2, 0, 0})->pop(), 2u);
  // clear() hands every slot back; carved bytes stay, live bytes go to 0.
  first.clear();
  second.clear();
  EXPECT_EQ(pool.keys.live_slots(), 0u);
  EXPECT_EQ(pool.live_bytes(), 0u);
  EXPECT_EQ(pool.carved_bytes(), 2 * (sizeof(InboxKey) + sizeof(InStream)));
  EXPECT_EQ(first.size(), 0u);
  EXPECT_EQ(first.find(3, StreamKey{2, 0, 0}), nullptr);
}

TEST(Inbox, RetireFreesASpilledPayload) {
  InboxPool pool;
  Inbox inbox(pool);
  const StreamKey key{3, 7, 0};
  InStream& s = inbox.open(0, key);  // the pool's first slot: class 0, #0
  for (std::uint64_t i = 0; i < 12; ++i) s.deliver(i, 8);  // spills
  s.deliver_eos();
  inbox.retire(key);
  EXPECT_EQ(pool.streams.live_slots(), 0u);
  // The freed slot's element was reset, releasing the heap payload (under
  // ASan a leak or double free would show here or at pool teardown).
  const InStream& freed = *pool.streams.data(0, 0);
  EXPECT_EQ(freed.delivered(), 0u);
  EXPECT_FALSE(freed.closed());
  // The slot's next tenant starts from it.
  InStream& next = inbox.open(0, key);
  EXPECT_EQ(&next, &freed);
  next.deliver(5, 8);
  EXPECT_EQ(next.pop(), 5u);
}

TEST(Inbox, RetiringAnAbsentKeyDoesNothing) {
  InboxPool pool;
  Inbox inbox(pool);
  inbox.retire(StreamKey{4, 1, 0});  // kind never received
  EXPECT_EQ(pool.keys.carved_slots(), 0u);
  inbox.open(0, StreamKey{4, 1, 0}).deliver(5, 4);
  inbox.retire(StreamKey{4, 2, 0});  // other tag
  inbox.retire(StreamKey{4, 1, 1});  // other version
  inbox.retire(StreamKey{5, 1, 0});  // other kind
  EXPECT_EQ(collect(inbox, 4), (Seen{{0, 1, 0}}));
  EXPECT_EQ(pool.keys.live_slots(), 1u);
  EXPECT_EQ(inbox.find(0, StreamKey{4, 1, 0})->pop(), 5u);
  EXPECT_THROW(inbox.retire(StreamKey{32, 0, 0}), std::invalid_argument);
}

TEST(Inbox, DeliveryAfterRetirementOpensAFreshStream) {
  InboxPool pool;
  Inbox inbox(pool);
  const StreamKey key{6, 2, 1};
  InStream& s = inbox.open(4, key);
  s.deliver(9, 4);
  s.deliver_eos();
  EXPECT_EQ(s.pop(), 9u);
  inbox.retire(key);
  EXPECT_EQ(inbox.find(4, key), nullptr);
  EXPECT_EQ(inbox.size(), 0u);
  InStream& fresh = inbox.open(4, key);
  EXPECT_EQ(fresh.delivered(), 0u);
  EXPECT_EQ(fresh.available(), 0u);
  EXPECT_FALSE(fresh.closed());
  fresh.deliver(3, 4);
  EXPECT_EQ(inbox.find(4, key)->pop(), 3u);
  EXPECT_EQ(inbox.size(), 1u);
}

TEST(InStream, DeliverPackedSpillingMidRunMatchesPuts) {
  // A packed run that starts inline and crosses both inline limits part
  // way through must leave exactly the buffer the equivalent deliver()
  // sequence leaves: same words, same widths, same reads.
  std::vector<std::pair<std::uint64_t, unsigned>> run;
  for (unsigned i = 0; i < 12; ++i) {
    const unsigned w = 5 + (i * 3) % 9;
    run.emplace_back((0x5bd1e995u * (i + 1)) & ((1u << w) - 1), w);
  }
  // Source: the run packed behind a 7-bit prefix, as a lane payload is.
  SymbolBuffer src;
  src.put(0x55, 7);
  for (const auto& [v, w] : run) src.put(v, w);
  std::vector<std::uint8_t> widths;
  std::size_t nbits = 0;
  for (const auto& [v, w] : run) {
    widths.push_back(static_cast<std::uint8_t>(w));
    nbits += w;
  }
  for (std::size_t head = 0; head <= 4; ++head) {
    InStream by_put;
    InStream by_blit;
    // Both receivers already hold `head` inline symbols.
    for (std::size_t i = 0; i < head; ++i) {
      by_put.deliver(i + 1, 6);
      by_blit.deliver(i + 1, 6);
    }
    for (const auto& [v, w] : run) by_put.deliver(v, w);
    by_blit.deliver_packed(src.words(), src.word_count(), 7, nbits,
                           widths.data(), widths.size());
    ASSERT_EQ(by_blit.delivered(), by_put.delivered()) << "head " << head;
    while (by_put.available() > 0) {
      ASSERT_EQ(by_blit.pop(), by_put.pop()) << "head " << head;
    }
    EXPECT_EQ(by_blit.available(), 0u);
  }
  // And the SymbolBuffer level: words and widths bit-identical.
  SymbolBuffer puts;
  SymbolBuffer blit;
  puts.put(3, 4);
  blit.put(3, 4);
  for (const auto& [v, w] : run) puts.put(v, w);
  blit.append_packed(src.words(), src.word_count(), 7, nbits, widths.data(),
                     widths.size());
  ASSERT_TRUE(blit.spilled());
  ASSERT_EQ(blit.word_count(), puts.word_count());
  ASSERT_EQ(blit.size(), puts.size());
  for (std::size_t i = 0; i < puts.word_count(); ++i) {
    EXPECT_EQ(blit.words()[i], puts.words()[i]) << "word " << i;
  }
  for (std::size_t i = 0; i < puts.size(); ++i) {
    EXPECT_EQ(blit.widths()[i], puts.widths()[i]) << "width " << i;
  }
}

/// Pops everything `s` has available.
std::vector<std::uint64_t> drain(InStream& s) {
  std::vector<std::uint64_t> out;
  while (s.available() > 0) out.push_back(s.pop());
  return out;
}

TEST(InStream, TheEighthSymbolStaysInlineAndTheNinthSpills) {
  InStream s;
  for (std::uint64_t i = 0; i < 8; ++i) s.deliver(i, 3);
  EXPECT_FALSE(s.spilled());
  InStream nine = s;
  nine.deliver(5, 3);
  EXPECT_TRUE(nine.spilled());
  EXPECT_EQ(drain(s), (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(drain(nine),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 5}));
}

TEST(InStream, The64thBitStaysInlineAndThe65thSpills) {
  const std::uint64_t ones = ~std::uint64_t{0};
  InStream whole;  // one 64-bit symbol
  whole.deliver(ones, 64);
  EXPECT_FALSE(whole.spilled());
  InStream split;  // 7 + 57 bits, both all ones
  split.deliver(0x7f, 7);
  split.deliver(ones >> 7, 57);
  EXPECT_FALSE(split.spilled());
  InStream over = split;
  over.deliver(1, 1);
  EXPECT_TRUE(over.spilled());
  EXPECT_EQ(drain(whole), (std::vector<std::uint64_t>{ones}));
  EXPECT_EQ(drain(split), (std::vector<std::uint64_t>{0x7f, ones >> 7}));
  EXPECT_EQ(drain(over), (std::vector<std::uint64_t>{0x7f, ones >> 7, 1}));
}

TEST(InStream, APartlyReadStreamKeepsItsCursorWhenItSpills) {
  // Past the 8th symbol, past the 64th bit, and after a 64-bit symbol was
  // read whole (the inline read offset has wrapped to 0): each spill
  // resumes reading at the first unread symbol.
  InStream by_count;
  for (std::uint64_t i = 1; i <= 5; ++i) by_count.deliver(i, 4);
  EXPECT_EQ(by_count.pop(), 1u);
  EXPECT_EQ(by_count.pop(), 2u);
  EXPECT_EQ(by_count.pop(), 3u);
  for (std::uint64_t i = 6; i <= 9; ++i) by_count.deliver(i, 4);
  EXPECT_TRUE(by_count.spilled());
  EXPECT_EQ(by_count.delivered(), 9u);
  EXPECT_EQ(drain(by_count), (std::vector<std::uint64_t>{4, 5, 6, 7, 8, 9}));

  InStream by_bits;
  by_bits.deliver(0xabcde, 20);
  by_bits.deliver(0x12345, 20);
  by_bits.deliver(0xfedcb, 20);
  EXPECT_EQ(by_bits.pop(), 0xabcdeu);
  EXPECT_EQ(by_bits.pop(), 0x12345u);
  by_bits.deliver(0x3ff, 10);  // 70 bits
  EXPECT_TRUE(by_bits.spilled());
  EXPECT_EQ(drain(by_bits), (std::vector<std::uint64_t>{0xfedcb, 0x3ff}));

  InStream wrapped;
  wrapped.deliver(0x8000000000000001u, 64);
  EXPECT_EQ(wrapped.pop(), 0x8000000000000001u);
  EXPECT_EQ(wrapped.available(), 0u);
  wrapped.deliver(5, 3);
  EXPECT_TRUE(wrapped.spilled());
  EXPECT_EQ(drain(wrapped), (std::vector<std::uint64_t>{5}));
}

TEST(InStream, ASpilledStreamGrowsItsBlockAndKeepsItsCursor) {
  // 300 symbols of 1 to 64 bits, delivered one by one and in packed runs
  // and read part way between deliveries: the spill block is rebuilt at
  // each word capacity (2, 4, 8, … 256 words) and width capacity (16, 32,
  // … 512), and every read, of a copy too, returns the delivered symbols
  // in order.
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  std::uint64_t x = 0x9e3779b97f4a7c15u;
  for (unsigned i = 0; i < 300; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const unsigned w = 1 + (i * 37) % 64;
    symbols.emplace_back(w == 64 ? x : x & ((std::uint64_t{1} << w) - 1), w);
  }
  InStream s;
  std::vector<std::uint64_t> read;
  std::size_t next = 0;
  while (next < symbols.size()) {
    if (next % 3 == 0) {
      s.deliver(symbols[next].first, symbols[next].second);
      ++next;
    } else {
      // A packed run of up to 5 symbols, behind a 3-bit prefix.
      SymbolBuffer src;
      src.put(5, 3);
      std::vector<std::uint8_t> widths;
      std::size_t nbits = 0;
      for (std::size_t j = next; j < std::min(next + 5, symbols.size()); ++j) {
        src.put(symbols[j].first, symbols[j].second);
        widths.push_back(static_cast<std::uint8_t>(symbols[j].second));
        nbits += symbols[j].second;
      }
      s.deliver_packed(src.words(), src.word_count(), 3, nbits, widths.data(),
                       widths.size());
      next += widths.size();
    }
    if (next % 4 == 1 && s.available() > 1) read.push_back(s.pop());
  }
  ASSERT_TRUE(s.spilled());
  EXPECT_EQ(s.delivered(), symbols.size());
  InStream copy(s);
  std::vector<std::uint64_t> copied = read;
  for (const std::uint64_t v : drain(copy)) copied.push_back(v);
  for (const std::uint64_t v : drain(s)) read.push_back(v);
  std::vector<std::uint64_t> want;
  for (const auto& [v, w] : symbols) want.push_back(v);
  EXPECT_EQ(read, want);
  EXPECT_EQ(copied, want);
}

TEST(InStream, DeliverPackedFillsTheInlineWordExactlyThenSpills) {
  // A packed run that ends at 8 symbols and 64 bits stays inline, and the
  // next packed symbol spills, mid-read.
  SymbolBuffer src;
  for (unsigned i = 0; i < 9; ++i) src.put(i + 1, 8);
  const std::vector<std::uint8_t> widths(9, 8);
  InStream s;
  s.deliver_packed(src.words(), src.word_count(), 0, 64, widths.data(), 8);
  EXPECT_FALSE(s.spilled());
  EXPECT_EQ(s.pop(), 1u);
  s.deliver_packed(src.words(), src.word_count(), 64, 8, widths.data(), 1);
  EXPECT_TRUE(s.spilled());
  EXPECT_EQ(drain(s), (std::vector<std::uint64_t>{2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(InStream, ALengthErrorLeavesTheStreamAsItWas) {
  // A delivery past SymbolBuffer::kMaxLength throws before it reads the
  // source (whose one word here is far too short) and leaves the inline
  // stream inline, with its symbols and cursor.
  InStream s;
  s.deliver(6, 3);
  s.deliver(2, 3);
  EXPECT_EQ(s.pop(), 6u);
  const std::uint64_t word = 0;
  const std::uint8_t width = 1;
  EXPECT_THROW(s.deliver_packed(&word, 1, 0, SymbolBuffer::kMaxLength + 1,
                                &width, 1),
               std::length_error);
  EXPECT_FALSE(s.spilled());
  EXPECT_EQ(s.delivered(), 2u);
  EXPECT_EQ(drain(s), (std::vector<std::uint64_t>{2}));
}

TEST(InStream, CopyAndMoveKeepBothTiers) {
  for (const std::size_t symbols : {3u, 12u}) {
    SCOPED_TRACE(symbols);
    InStream s;
    for (std::uint64_t i = 0; i < symbols; ++i) s.deliver(i + 10, 7);
    s.deliver_eos();
    EXPECT_EQ(s.pop(), 10u);
    ASSERT_EQ(s.spilled(), symbols > 8);
    std::vector<std::uint64_t> rest;
    for (std::uint64_t i = 1; i < symbols; ++i) rest.push_back(i + 10);
    // A copy reads on from the same cursor, independently.
    InStream copy(s);
    EXPECT_EQ(copy.spilled(), s.spilled());
    EXPECT_TRUE(copy.closed());
    EXPECT_EQ(drain(copy), rest);
    EXPECT_TRUE(copy.finished());
    EXPECT_EQ(s.available(), symbols - 1);
    // Copy assignment over a spilled stream frees its old block.
    InStream assigned;
    for (std::uint64_t i = 0; i < 10; ++i) assigned.deliver(i, 8);
    assigned = s;
    EXPECT_EQ(drain(assigned), rest);
    // A move takes the payload and leaves an empty, open stream.
    InStream moved(std::move(s));
    EXPECT_EQ(s.delivered(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(s.closed());
    EXPECT_FALSE(s.spilled());
    InStream target;
    for (std::uint64_t i = 0; i < 10; ++i) target.deliver(i, 8);
    target = std::move(moved);
    EXPECT_EQ(moved.delivered(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(target.closed());
    EXPECT_EQ(drain(target), rest);
  }
}

TEST(InStream, EosOnAnEmptyStream) {
  InStream s;
  EXPECT_FALSE(s.closed());
  EXPECT_FALSE(s.finished());
  s.deliver_eos();
  EXPECT_TRUE(s.closed());
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(s.available(), 0u);
  EXPECT_EQ(s.delivered(), 0u);
  EXPECT_FALSE(s.spilled());
  // EOS survives the spill of a stream that closes past the inline tier.
  InStream long_one;
  for (std::uint64_t i = 0; i < 9; ++i) long_one.deliver(i, 2);
  long_one.deliver_eos();
  EXPECT_TRUE(long_one.spilled());
  EXPECT_FALSE(long_one.finished());
  EXPECT_EQ(drain(long_one).size(), 9u);
  EXPECT_TRUE(long_one.finished());
}

TEST(Inbox, BucketGrowthAcrossPoolClassesKeepsStreams) {
  // 40 streams of one kind, opened in scrambled order, move the bucket
  // through seven pool classes (1, 2, 4, ..., 64 entries); every stream
  // keeps its payload (inline and spilled alike) and iteration stays
  // sorted.
  InboxPool pool;
  Inbox inbox(pool);
  const std::uint16_t kind = 7;
  for (std::size_t j = 0; j < 40; ++j) {
    const std::size_t ni = (j * 17) % 40;
    InStream& s = inbox.open(ni, StreamKey{kind, 0, 0});
    const std::size_t symbols = ni % 3 == 0 ? 12 : 1;  // some spill
    for (std::size_t i = 0; i < symbols; ++i) s.deliver(ni, 8);
    if (ni % 5 == 0) s.deliver_eos();
  }
  std::size_t expect_ni = 0;
  inbox.for_each(kind, [&](std::size_t ni, const StreamKey&, InStream& s) {
    EXPECT_EQ(ni, expect_ni++);
    EXPECT_EQ(s.available(), ni % 3 == 0 ? 12u : 1u);
    EXPECT_EQ(s.closed(), ni % 5 == 0);
    while (s.available() > 0) EXPECT_EQ(s.pop(), ni);
  });
  EXPECT_EQ(expect_ni, 40u);
  EXPECT_EQ(inbox.size(), 40u);
  EXPECT_EQ(pool.keys.live_slots(), 1u);  // one bucket, one slot
  EXPECT_EQ(pool.streams.live_slots(), 1u);
}

TEST(InboxPool, GrownBucketSlotsAreReusedAcrossInboxes) {
  // Two inboxes of one shard. When the first one's bucket grows past one
  // entry, its one-entry slot goes back to the pool and the second
  // inbox's first bucket takes it.
  InboxPool pool;
  Inbox first(pool);
  Inbox second(pool);
  first.open(0, StreamKey{1, 0, 0}).deliver(1, 4);
  first.open(1, StreamKey{1, 0, 0}).deliver(2, 4);  // class 0 -> class 1
  EXPECT_EQ(pool.keys.live_slots(), 1u);
  EXPECT_EQ(pool.keys.carved_slots(), 2u);
  second.open(5, StreamKey{2, 9, 1}).deliver(3, 4);
  EXPECT_EQ(pool.keys.live_slots(), 2u);
  EXPECT_EQ(pool.keys.carved_slots(), 2u);  // reused, not carved
  EXPECT_EQ(pool.streams.carved_slots(), 2u);
  // The recycled slot carries nothing over from its previous tenant.
  InStream* s = second.find(5, StreamKey{2, 9, 1});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->delivered(), 1u);
  EXPECT_FALSE(s->closed());
  EXPECT_EQ(s->pop(), 3u);
  EXPECT_EQ(first.find(0, StreamKey{1, 0, 0})->pop(), 1u);
  EXPECT_EQ(first.find(1, StreamKey{1, 0, 0})->pop(), 2u);
}

TEST(Inbox, ReserveSizesANewBucketOnceAndStaysInvisible) {
  // reserve() creates a bucket in the tightest class for its count (9
  // streams: the 10-entry class), and only for a kind with no slot yet.
  // Until a stream arrives the bucket is empty to every reader, and
  // clear() returns its slot.
  InboxPool pool;
  Inbox inbox(pool);
  inbox.reserve(4, 9);
  inbox.reserve(4, 40);  // already holds a slot: no-op
  EXPECT_EQ(pool.live_bytes(), 10 * (sizeof(InboxKey) + sizeof(InStream)));
  EXPECT_EQ(inbox.size(), 0u);
  EXPECT_EQ(inbox.find(0, StreamKey{4, 0, 0}), nullptr);
  EXPECT_TRUE(collect(inbox, 4).empty());
  for (std::size_t ni = 9; ni-- > 0;) {
    inbox.open(ni, StreamKey{4, 0, 0}).deliver(ni, 4);
  }
  EXPECT_EQ(pool.keys.carved_slots(), 1u);  // filled in place, never grown
  EXPECT_EQ(collect(inbox, 4).size(), 9u);
  EXPECT_EQ(inbox.find(8, StreamKey{4, 0, 0})->pop(), 8u);
  inbox.reserve(6, 1);  // a second kind, left empty
  inbox.clear();
  EXPECT_EQ(pool.live_bytes(), 0u);
  EXPECT_EQ(pool.keys.carved_slots(), 2u);
}

TEST(Inbox, OutOfRangeKindThrows) {
  InboxPool pool;
  Inbox inbox(pool);
  EXPECT_THROW((void)inbox.find(0, StreamKey{32, 0, 0}), std::invalid_argument);
  EXPECT_THROW((void)inbox.open(0, StreamKey{40, 0, 0}), std::invalid_argument);
  EXPECT_THROW(inbox.for_each(99, [](std::size_t, const StreamKey&,
                                     InStream&) {}),
               std::invalid_argument);
  // The largest valid kind works.
  EXPECT_NO_THROW((void)inbox.open(0, StreamKey{kMaxMsgKinds - 1, 0, 0}));
}

}  // namespace
}  // namespace nc
