#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/link.hpp"
#include "runtime/message.hpp"
#include "runtime/msgblock.hpp"
#include "runtime/reliability.hpp"
#include "runtime/stream.hpp"
#include "util/arena.hpp"

// Round-trip tests of the SoA staging lanes: a message scheduled as a
// zero-copy MsgView, pushed into a MsgBlock (inline or spilled encoding),
// decoded with record() and replayed into an InStream must reproduce the
// exact symbol sequence, EOS flag and wire accounting of the direct path.

namespace nc {
namespace {

constexpr unsigned kHeader = 16;

// One producer symbol sequence scheduled through a real Link into a view.
// The link's pool keeps the stream (and so the view's buffer) alive.
struct Scheduled {
  LinkPool pool;
  Link link{pool};
  MsgView view;
  bool ok = false;
};

void schedule(Scheduled& s, const StreamKey& key,
              const std::vector<std::pair<std::uint64_t, unsigned>>& symbols,
              bool close, std::size_t budget_bits) {
  OutChannel ch;
  s.link.add_stream(key, ch.state());
  for (const auto& [v, w] : symbols) ch.put(v, w);
  if (close) ch.close();
  s.ok = s.link.schedule_view(budget_bits, kHeader, s.view);
}

// The physical copies of row `row`, in staged order (for_each_copy, as the
// deliver phase expands them).
std::vector<MsgBlock::Receiver> copies_of(const MsgBlock& block,
                                          std::size_t row) {
  std::vector<MsgBlock::Receiver> out;
  block.for_each_copy([&](std::size_t i, const MsgBlock::Receiver& c) {
    if (i == row) out.push_back(c);
  });
  return out;
}

// Replays a decoded record into an InStream exactly as Network::apply_copies
// does, then pops everything back.
std::vector<std::pair<std::uint64_t, unsigned>> replay(const MsgBlock::Rec& r) {
  InStream in;
  if (r.spilled) {
    in.deliver_packed(r.pay_words, r.pay_word_count, 0, r.pay_bits,
                      r.pay_widths, r.symbol_count);
  } else {
    if (r.symbol_count >= 1) in.deliver(r.v0, r.w0);
    if (r.symbol_count == 2) in.deliver(r.v1, r.w1);
  }
  if (r.eos) in.deliver_eos();
  std::vector<std::pair<std::uint64_t, unsigned>> out;
  // Widths are recoverable from the record for verification purposes.
  for (std::uint32_t i = 0; i < r.symbol_count; ++i) {
    unsigned w;
    if (r.spilled) {
      w = r.pay_widths[i];
    } else {
      w = i == 0 ? r.w0 : r.w1;
    }
    out.emplace_back(in.pop(), w);
  }
  EXPECT_EQ(in.available(), 0u);
  EXPECT_EQ(in.closed(), r.eos);
  return out;
}

TEST(MsgBlock, InlineSingleSymbolRoundTripsEveryKindAndVersion) {
  MsgBlock block;  // heap mode
  std::vector<StreamKey> keys;
  for (std::uint16_t kind = 0; kind < kMaxMsgKinds; ++kind) {
    for (std::uint16_t version = 0; version < kMaxStreamVersions;
         version += 5) {
      keys.push_back(StreamKey{kind, NodeId{kind * 100u + version}, version});
    }
  }
  std::vector<Scheduled> scheduled(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    schedule(scheduled[i], keys[i], {{i * 7 + 1, 20}}, /*close=*/true,
             kHeader + 64);
    ASSERT_TRUE(scheduled[i].ok);
    block.push(scheduled[i].view, NodeId(i), static_cast<std::uint32_t>(i),
               0);
  }
  ASSERT_EQ(block.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const MsgBlock::Rec r = block.record(i, kHeader);
    EXPECT_EQ(r.to, NodeId(i));
    EXPECT_EQ(r.back_index, i);
    EXPECT_EQ(r.key.kind, keys[i].kind);
    EXPECT_EQ(r.key.tag, keys[i].tag);
    EXPECT_EQ(r.key.version, keys[i].version);
    EXPECT_TRUE(r.eos);  // budget held the whole stream, EOS piggybacked
    EXPECT_FALSE(r.spilled);
    EXPECT_EQ(r.symbol_count, 1u);
    EXPECT_EQ(r.wire_bits, kHeader + 20u);
    const auto symbols = replay(r);
    ASSERT_EQ(symbols.size(), 1u);
    EXPECT_EQ(symbols[0].first, i * 7 + 1);
    EXPECT_EQ(symbols[0].second, 20u);
  }
}

TEST(MsgBlock, InlineTwoSymbolsIncludingMaxWidth) {
  MsgBlock block;
  Scheduled s;
  const std::uint64_t big = ~std::uint64_t{0};
  schedule(s, StreamKey{3, 42, 1}, {{big, 64}, {0x1234, 16}}, /*close=*/false,
           kHeader + 64 + 16);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 9, 2, 0);
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_FALSE(r.spilled);
  EXPECT_FALSE(r.eos);  // stream not closed
  ASSERT_EQ(r.symbol_count, 2u);
  EXPECT_EQ(r.wire_bits, kHeader + 80u);
  const auto symbols = replay(r);
  EXPECT_EQ(symbols[0], (std::pair<std::uint64_t, unsigned>{big, 64u}));
  EXPECT_EQ(symbols[1], (std::pair<std::uint64_t, unsigned>{0x1234u, 16u}));
}

TEST(MsgBlock, SpilledManySymbolsRoundTrip) {
  MsgBlock block;
  Scheduled s;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  std::size_t payload_bits = 0;
  for (unsigned i = 0; i < 50; ++i) {
    const unsigned w = 3 + (i * 7) % 62;  // mixed widths, crosses words
    symbols.emplace_back((std::uint64_t{i} * 0x9e3779b97f4a7c15u) >> (64 - w),
                         w);
    payload_bits += w;
  }
  schedule(s, StreamKey{7, 1000, 3}, symbols, /*close=*/true,
           kHeader + payload_bits);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 5, 0, 0);
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_TRUE(r.spilled);
  EXPECT_TRUE(r.eos);
  ASSERT_EQ(r.symbol_count, 50u);
  EXPECT_EQ(r.pay_bits, payload_bits);
  const auto got = replay(r);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_EQ(got[i], symbols[i]) << "symbol " << i;
  }
}

TEST(MsgBlock, SpilledMaxWidthSymbolsRoundTrip) {
  // All-64-bit payload: the widest legal symbols, word boundaries everywhere.
  MsgBlock block;
  Scheduled s;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  for (unsigned i = 0; i < 8; ++i) {
    symbols.emplace_back(0x0102030405060708u * (i + 1), 64);
  }
  schedule(s, StreamKey{1, 2, 0}, symbols, /*close=*/true, kHeader + 8 * 64);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 1, 0, 0);
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_TRUE(r.spilled);
  ASSERT_EQ(r.symbol_count, 8u);
  const auto got = replay(r);
  for (std::size_t i = 0; i < symbols.size(); ++i) EXPECT_EQ(got[i], symbols[i]);
}

TEST(MsgBlock, PureEosMessageCarriesNoPayload) {
  MsgBlock block;
  Scheduled s;
  schedule(s, StreamKey{2, 8, 0}, {}, /*close=*/true, kHeader);
  ASSERT_TRUE(s.ok);  // empty-but-closed stream schedules a pure-EOS message
  block.push(s.view, 3, 1, 0);
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_TRUE(r.eos);
  EXPECT_FALSE(r.spilled);
  EXPECT_EQ(r.symbol_count, 0u);
  EXPECT_EQ(r.wire_bits, kHeader);
  InStream in;
  if (r.eos) in.deliver_eos();
  EXPECT_TRUE(in.finished());
}

TEST(MsgBlock, LocalDrainViewsStageUnbounded) {
  // LOCAL mode drains whole streams through drain_views; a long stream must
  // spill and round-trip through the lane in one message.
  LinkPool pool;
  Link link(pool);
  OutChannel ch;
  link.add_stream(StreamKey{4, 77, 0}, ch.state());
  std::vector<std::uint64_t> sent;
  for (std::uint64_t i = 0; i < 200; ++i) {
    ch.put(i * 13 + 5, 32);
    sent.push_back(i * 13 + 5);
  }
  ch.close();
  MsgBlock block;
  const std::size_t produced =
      link.drain_views(kHeader, [&](const MsgView& v) {
        block.push(v, 0, 0, 0);
      });
  ASSERT_EQ(produced, 1u);
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_TRUE(r.spilled);
  ASSERT_EQ(r.symbol_count, 200u);
  const auto got = replay(r);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].first, sent[i]);
    EXPECT_EQ(got[i].second, 32u);
  }
}

TEST(MsgBlock, AppendFromCopiesInlineAndSpilledRows) {
  // The delayed-bucket hand-off: rows staged in an arena-backed lane are
  // copied into a heap-backed bucket that outlives the round.
  Arena arena;
  MsgBlock lane;
  lane.bind(&arena);
  lane.begin_round();

  Scheduled small;
  schedule(small, StreamKey{6, 11, 2}, {{0xabcd, 16}}, /*close=*/false,
           kHeader + 16);
  ASSERT_TRUE(small.ok);
  lane.push(small.view, 10, 4, 7);

  Scheduled big;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  for (unsigned i = 0; i < 20; ++i) symbols.emplace_back(i + 1, 17);
  schedule(big, StreamKey{8, 12, 0}, symbols, /*close=*/true,
           kHeader + 20 * 17);
  ASSERT_TRUE(big.ok);
  lane.push(big.view, 11, 5, 9);

  MsgBlock bucket;  // heap mode
  bucket.append_from(lane, 0, kHeader);
  bucket.append_from(lane, 1, kHeader);

  // Simulate the next round: the arena rewinds and the lane re-carves. The
  // bucket's copies must be unaffected.
  arena.reset();
  lane.begin_round();

  const MsgBlock::Rec r0 = bucket.record(0, kHeader);
  EXPECT_EQ(r0.to, 10u);
  EXPECT_EQ(r0.back_index, 4u);
  EXPECT_EQ(r0.deliver_round, 7u);
  EXPECT_FALSE(r0.spilled);
  const auto got0 = replay(r0);
  ASSERT_EQ(got0.size(), 1u);
  EXPECT_EQ(got0[0], (std::pair<std::uint64_t, unsigned>{0xabcdu, 16u}));

  const MsgBlock::Rec r1 = bucket.record(1, kHeader);
  EXPECT_EQ(r1.to, 11u);
  EXPECT_EQ(r1.deliver_round, 9u);
  EXPECT_TRUE(r1.spilled);
  EXPECT_TRUE(r1.eos);
  const auto got1 = replay(r1);
  ASSERT_EQ(got1.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(got1[i], symbols[i]) << "symbol " << i;
  }
}

TEST(MsgBlock, ArenaLaneSteadyStateReusesMemory) {
  Arena arena;
  MsgBlock lane;
  lane.bind(&arena);
  for (int round = 0; round < 8; ++round) {
    arena.reset();
    lane.begin_round();
    for (int m = 0; m < 32; ++m) {
      Scheduled s;
      schedule(s, StreamKey{1, NodeId(m), 0},
               {{static_cast<std::uint64_t>(m * round), 24}}, true,
               kHeader + 24);
      ASSERT_TRUE(s.ok);
      lane.push(s.view, NodeId(m), 0, 0);
    }
    ASSERT_EQ(lane.size(), 32u);
  }
  // After the first two rounds (growth then coalesce) the arena should stop
  // growing: identical per-round footprint.
  const std::size_t hw = arena.high_water_bytes();
  arena.reset();
  lane.begin_round();
  for (int m = 0; m < 32; ++m) {
    Scheduled s;
    schedule(s, StreamKey{1, NodeId(m), 0}, {{7, 24}}, true, kHeader + 24);
    lane.push(s.view, NodeId(m), 0, 0);
  }
  EXPECT_EQ(arena.high_water_bytes(), hw);
}

TEST(MsgBlock, BroadcastUpgradeKeepsFirstReceiverAndSharesPayload) {
  // A row starts unicast; the first add_receiver upgrades it in place and
  // the original (to, back, round) must come back as receiver 0, in order.
  MsgBlock block;
  Scheduled s;
  schedule(s, StreamKey{3, 21, 1}, {{0xbeef, 16}, {0x7, 3}}, /*close=*/true,
           kHeader + 19);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 40, 4, 0);
  block.add_receiver(41, 5, 0);
  block.add_receiver(47, 9, 0);

  ASSERT_EQ(block.size(), 1u);            // one row...
  EXPECT_EQ(block.message_count(), 3u);   // ...three physical messages
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_TRUE(r.bcast);
  EXPECT_FALSE(r.spilled);
  EXPECT_TRUE(r.eos);
  ASSERT_EQ(r.rcv_count, 3u);
  const MsgBlock::Receiver want[] = {{40, 4, 0}, {41, 5, 0}, {47, 9, 0}};
  const auto copies = copies_of(block, 0);
  ASSERT_EQ(copies.size(), 3u);
  for (std::uint32_t j = 0; j < r.rcv_count; ++j) {
    const MsgBlock::Receiver rcv = copies[j];
    EXPECT_EQ(rcv.to, want[j].to);
    EXPECT_EQ(rcv.back_index, want[j].back_index);
    EXPECT_EQ(rcv.deliver_round, want[j].deliver_round);
  }
  // The shared payload decodes once and serves every copy.
  const auto symbols = replay(r);
  ASSERT_EQ(symbols.size(), 2u);
  EXPECT_EQ(symbols[0], (std::pair<std::uint64_t, unsigned>{0xbeefu, 16u}));
  EXPECT_EQ(symbols[1], (std::pair<std::uint64_t, unsigned>{0x7u, 3u}));
}

TEST(MsgBlock, BroadcastSpilledMaxWidthFansOutToEveryDegree) {
  // Spilled all-64-bit payload (the widest legal symbols) fanned out to
  // 1..deg receivers: one receiver must stay a plain unicast row; larger
  // fans share the single spilled payload and keep per-copy rounds.
  for (std::uint32_t deg = 1; deg <= 5; ++deg) {
    MsgBlock block;
    Scheduled s;
    std::vector<std::pair<std::uint64_t, unsigned>> symbols;
    for (unsigned i = 0; i < 6; ++i) {
      symbols.emplace_back(0x1111111111111111u * (i + 1), 64);
    }
    schedule(s, StreamKey{7, 900, 2}, symbols, /*close=*/true,
             kHeader + 6 * 64);
    ASSERT_TRUE(s.ok);
    block.push(s.view, 100, 0, 0);
    for (std::uint32_t j = 1; j < deg; ++j) {
      block.add_receiver(100 + j, j, /*deliver_round=*/j);  // per-copy delay
    }
    ASSERT_EQ(block.size(), 1u) << "deg " << deg;
    EXPECT_EQ(block.message_count(), deg);
    const MsgBlock::Rec r = block.record(0, kHeader);
    EXPECT_TRUE(r.spilled);
    if (deg == 1) {
      EXPECT_FALSE(r.bcast);  // single receiver costs exactly a unicast
      EXPECT_EQ(r.to, 100u);
    } else {
      EXPECT_TRUE(r.bcast);
      ASSERT_EQ(r.rcv_count, deg);
      const auto copies = copies_of(block, 0);
      ASSERT_EQ(copies.size(), deg);
      for (std::uint32_t j = 0; j < deg; ++j) {
        const MsgBlock::Receiver rcv = copies[j];
        EXPECT_EQ(rcv.to, 100u + j);
        EXPECT_EQ(rcv.deliver_round, j);
      }
    }
    const auto got = replay(r);
    ASSERT_EQ(got.size(), symbols.size());
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      EXPECT_EQ(got[i], symbols[i]) << "deg " << deg << " symbol " << i;
    }
  }
}

TEST(MsgBlock, BroadcastReceiversSplitAcrossDstShardLanes) {
  // The stage phase groups per (src, dst-shard) lane: a broadcast whose
  // receivers live on two destination shards stages one row per lane, each
  // fanning only its own shard's receivers. Two lanes, same scheduled view.
  Arena arena0, arena1;
  MsgBlock lane0, lane1;
  lane0.bind(&arena0);
  lane1.bind(&arena1);
  lane0.begin_round();
  lane1.begin_round();

  Scheduled s;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  for (unsigned i = 0; i < 12; ++i) symbols.emplace_back(i * 3 + 1, 33);
  schedule(s, StreamKey{5, 77, 0}, symbols, /*close=*/false,
           kHeader + 12 * 33);
  ASSERT_TRUE(s.ok);

  // Shard 0 gets receivers {2, 4, 6}; shard 1 gets only {9001}.
  lane0.push(s.view, 2, 0, 0);
  lane0.add_receiver(4, 1, 0);
  lane0.add_receiver(6, 2, 0);
  lane1.push(s.view, 9001, 3, 0);

  const MsgBlock::Rec r0 = lane0.record(0, kHeader);
  const MsgBlock::Rec r1 = lane1.record(0, kHeader);
  EXPECT_TRUE(r0.bcast);
  ASSERT_EQ(r0.rcv_count, 3u);
  EXPECT_EQ(copies_of(lane0, 0).at(2).to, 6u);
  EXPECT_FALSE(r1.bcast);  // lone receiver on its shard: plain unicast row
  EXPECT_EQ(r1.to, 9001u);
  // Both lanes decode the identical payload and identical wire charge.
  EXPECT_EQ(r0.wire_bits, r1.wire_bits);
  const auto got0 = replay(r0);
  const auto got1 = replay(r1);
  EXPECT_EQ(got0, got1);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_EQ(got0[i], symbols[i]) << "symbol " << i;
  }
}

TEST(MsgBlock, AppendReceiverFromMaterializesDelayedUnicastCopy) {
  // A delayed broadcast copy leaves the shared row: append_receiver_from
  // parks it in a heap bucket as an independent unicast message carrying
  // its own deliver round, surviving the lane's arena reset.
  Arena arena;
  MsgBlock lane;
  lane.bind(&arena);
  lane.begin_round();

  Scheduled s;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  for (unsigned i = 0; i < 9; ++i) symbols.emplace_back(0xa0 + i, 12);
  schedule(s, StreamKey{6, 13, 1}, symbols, /*close=*/true, kHeader + 9 * 12);
  ASSERT_TRUE(s.ok);
  lane.push(s.view, 50, 0, 0);
  lane.add_receiver(51, 1, /*deliver_round=*/17);  // this copy is delayed

  const MsgBlock::Rec staged = lane.record(0, kHeader);
  ASSERT_TRUE(staged.bcast);
  const MsgBlock::Receiver delayed = copies_of(lane, 0).at(1);
  MsgBlock bucket;  // heap mode, outlives the round
  bucket.append_receiver_from(lane, 0, delayed, kHeader);

  arena.reset();
  lane.begin_round();

  const MsgBlock::Rec r = bucket.record(0, kHeader);
  EXPECT_FALSE(r.bcast);  // materialized as a plain unicast row
  EXPECT_EQ(r.to, 51u);
  EXPECT_EQ(r.back_index, 1u);
  EXPECT_EQ(r.deliver_round, 17u);
  EXPECT_TRUE(r.eos);
  const auto got = replay(r);
  ASSERT_EQ(got.size(), symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_EQ(got[i], symbols[i]) << "symbol " << i;
  }
}

TEST(MsgBlock, ReliabilityKindsRoundTripInlineIncludingMaxWidth) {
  // The reliability service's wire kinds (kRelAck = 30, kRelRepair = 31)
  // live at the top of the 5-bit kind field: a regression that narrows the
  // packed kind bits truncates exactly these. Lock the round trip for an
  // inline max-width row under each kind.
  static_assert(kRelAck == 30 && kRelRepair == 31);
  static_assert(kRelRepair < kMaxMsgKinds);
  MsgBlock block;
  const std::uint64_t big = ~std::uint64_t{0};
  std::vector<Scheduled> scheduled(2);
  const std::uint16_t kinds[2] = {kRelAck, kRelRepair};
  for (std::size_t i = 0; i < 2; ++i) {
    schedule(scheduled[i], StreamKey{kinds[i], NodeId(40 + i), 2},
             {{big, 64}, {0x5a5au, 16}}, /*close=*/true, kHeader + 64 + 16);
    ASSERT_TRUE(scheduled[i].ok);
    block.push(scheduled[i].view, NodeId(i), static_cast<std::uint32_t>(i),
               0);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    const MsgBlock::Rec r = block.record(i, kHeader);
    EXPECT_EQ(r.key.kind, kinds[i]);  // survives the 5-bit meta packing
    EXPECT_EQ(r.key.tag, NodeId(40 + i));
    EXPECT_EQ(r.key.version, 2u);
    EXPECT_TRUE(r.eos);
    EXPECT_FALSE(r.spilled);
    EXPECT_EQ(r.wire_bits, kHeader + 80u);
    const auto got = replay(r);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], (std::pair<std::uint64_t, unsigned>{big, 64u}));
    EXPECT_EQ(got[1], (std::pair<std::uint64_t, unsigned>{0x5a5au, 16u}));
  }
}

TEST(MsgBlock, ReliabilityKindsRoundTripSpilled) {
  // Same kinds through the spilled encoding (meta's kSpillBit set alongside
  // the top kind bits), plus the FEC-release hand-off: append_from with an
  // explicit deliver round must rewrite the round column and nothing else.
  MsgBlock block;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  std::size_t payload_bits = 0;
  for (unsigned i = 0; i < 24; ++i) {
    const unsigned w = 64 - (i % 3);  // max and near-max widths
    symbols.emplace_back(
        (std::uint64_t{i + 1} * 0x9e3779b97f4a7c15u) >> (64 - w), w);
    payload_bits += w;
  }
  for (const std::uint16_t kind : {kRelAck, kRelRepair}) {
    Scheduled s;
    schedule(s, StreamKey{kind, 9000, 0}, symbols, /*close=*/true,
             kHeader + payload_bits);
    ASSERT_TRUE(s.ok);
    block.push(s.view, 7, 3, 0);
  }
  MsgBlock released;  // heap mode, the rel_parked -> lane release path
  released.append_from(block, 0, kHeader, /*deliver_round=*/123);
  released.append_from(block, 1, kHeader, /*deliver_round=*/456);
  const std::uint64_t rounds[2] = {123, 456};
  const std::uint16_t kinds[2] = {kRelAck, kRelRepair};
  for (std::size_t i = 0; i < 2; ++i) {
    const MsgBlock::Rec r = released.record(i, kHeader);
    EXPECT_EQ(r.key.kind, kinds[i]);
    EXPECT_EQ(r.deliver_round, rounds[i]);
    EXPECT_EQ(r.to, 7u);
    EXPECT_EQ(r.back_index, 3u);
    EXPECT_TRUE(r.spilled);
    EXPECT_TRUE(r.eos);
    ASSERT_EQ(r.symbol_count, symbols.size());
    const auto got = replay(r);
    for (std::size_t j = 0; j < symbols.size(); ++j) {
      EXPECT_EQ(got[j], symbols[j]) << "kind " << kinds[i] << " symbol " << j;
    }
  }
}

TEST(MsgBlock, CopiesWalkInStagedOrderAndDecodeToTheirRow) {
  // The deliver phase's per-round log: for_each_copy yields every physical
  // copy in staged order (broadcast receivers expanded in packed order),
  // and a 32-byte Copy decodes to its row's key, flags, wire bits and
  // payload — inline rows carried whole, spilled rows through the block.
  MsgBlock block;
  Scheduled inline_row, bcast_row, spilled_row;
  schedule(inline_row, StreamKey{31, 7, 15}, {{~std::uint64_t{0}, 64}, {5, 3}},
           /*close=*/true, kHeader + 67);
  schedule(bcast_row, StreamKey{2, 11, 0}, {{0x2a, 7}}, /*close=*/false,
           kHeader + 7);
  std::vector<std::pair<std::uint64_t, unsigned>> spilled;
  for (unsigned i = 0; i < 5; ++i) spilled.emplace_back(i * 9 + 1, 20);
  schedule(spilled_row, StreamKey{4, 900, 3}, spilled, /*close=*/true,
           kHeader + 100);
  ASSERT_TRUE(inline_row.ok && bcast_row.ok && spilled_row.ok);
  block.push(inline_row.view, 10, 1, 0);
  block.push(bcast_row.view, 11, 2, 0);
  block.add_receiver(12, 3, 9);
  block.push(spilled_row.view, 13, 4, 0);

  struct Seen {
    std::size_t row;
    MsgBlock::Receiver rcv;
  };
  std::vector<Seen> seen;
  block.for_each_copy([&](std::size_t i, const MsgBlock::Receiver& c) {
    seen.push_back({i, c});
  });
  const Seen want[] = {{0, {10, 1, 0}}, {1, {11, 2, 0}}, {1, {12, 3, 9}},
                       {2, {13, 4, 0}}};
  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t j = 0; j < seen.size(); ++j) {
    EXPECT_EQ(seen[j].row, want[j].row) << "copy " << j;
    EXPECT_EQ(seen[j].rcv.to, want[j].rcv.to) << "copy " << j;
    EXPECT_EQ(seen[j].rcv.back_index, want[j].rcv.back_index) << "copy " << j;
    EXPECT_EQ(seen[j].rcv.deliver_round, want[j].rcv.deliver_round);
    const MsgBlock::Rec row = block.record(seen[j].row, kHeader);
    const MsgBlock::Rec got = MsgBlock::decode(
        block.copy(seen[j].row, seen[j].rcv.back_index), kHeader);
    EXPECT_EQ(got.back_index, seen[j].rcv.back_index);
    EXPECT_EQ(got.key, row.key);
    EXPECT_EQ(got.eos, row.eos);
    EXPECT_EQ(got.spilled, row.spilled);
    EXPECT_EQ(got.symbol_count, row.symbol_count);
    EXPECT_EQ(got.wire_bits, row.wire_bits);
    EXPECT_EQ(replay(got), replay(row)) << "copy " << j;
  }
  EXPECT_TRUE(block.record(2, kHeader).spilled);
}

TEST(ReadPackedBits, GuardsTailWordAndMasks) {
  const std::uint64_t words[2] = {0xfedcba9876543210u, 0x0f0f0f0f0f0f0f0fu};
  // Straddling read across the word boundary.
  EXPECT_EQ(read_packed_bits(words, 2, 60, 8), ((words[1] & 0xfu) << 4) |
                                                   (words[0] >> 60));
  // Read ending exactly at the end of the array must not touch words[2].
  EXPECT_EQ(read_packed_bits(words, 2, 64, 64), words[1]);
  // Partial tail read with off != 0 near the end.
  EXPECT_EQ(read_packed_bits(words, 2, 120, 8), words[1] >> 56);
}

}  // namespace
}  // namespace nc
