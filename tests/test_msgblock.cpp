#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "runtime/link.hpp"
#include "runtime/message.hpp"
#include "runtime/msgblock.hpp"
#include "runtime/network.hpp"
#include "runtime/reliability.hpp"
#include "runtime/stream.hpp"
#include "test_helpers.hpp"
#include "util/arena.hpp"
#include "util/bitio.hpp"
#include "util/rng.hpp"

// Round-trip tests of the staging lanes: a message scheduled as a zero-copy
// MsgView, pushed into a MsgBlock as one Copy record (inline or spilled
// encoding) and replayed into an InStream must reproduce the exact symbol
// sequence, EOS flag and wire accounting of the direct path. The
// StagedCopies tests drive the same records through a whole Network.

namespace nc {
namespace {

constexpr unsigned kHeader = 16;

using Symbols = std::vector<std::pair<std::uint64_t, unsigned>>;
using Values = std::vector<std::uint64_t>;

// One producer symbol sequence scheduled through a real Link into a view.
// The link's pool keeps the stream (and so the view's buffer) alive.
struct Scheduled {
  LinkPool pool;
  Link link;
  MsgView view;
  bool ok = false;
};

void schedule(Scheduled& s, const StreamKey& key, const Symbols& symbols,
              bool close, std::size_t budget_bits) {
  OutChannel ch;
  s.link.add_stream(s.pool, ch.share(key));
  for (const auto& [v, w] : symbols) ch.put(v, w);
  if (close) ch.close();
  s.ok = s.link.schedule_view(s.pool, budget_bits, kHeader, s.view);
}

/// The values of `symbols`, in order.
Values values(const Symbols& symbols) {
  Values out;
  for (const auto& [v, w] : symbols) out.push_back(v);
  return out;
}

/// Header plus the payload bits of `symbols`.
std::uint64_t wire(const Symbols& symbols) {
  std::uint64_t bits = kHeader;
  for (const auto& [v, w] : symbols) bits += w;
  return bits;
}

// Replays a record into an InStream exactly as Network::apply_copies does,
// then pops everything back. The record's widths show in its wire bits.
Values replay(const MsgBlock::Copy& r) {
  InStream in;
  r.deliver_to(in);
  EXPECT_EQ(in.closed(), r.eos());
  Values out;
  while (in.available() > 0) out.push_back(in.pop());
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
    block.push(scheduled[i].view, NodeId(i), static_cast<std::uint32_t>(i));
  }
  ASSERT_EQ(block.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const MsgBlock::Copy& r = block[i];
    EXPECT_EQ(r.to, NodeId(i));
    EXPECT_EQ(r.back_index, i);
    EXPECT_EQ(r.key().kind, keys[i].kind);
    EXPECT_EQ(r.key().tag, keys[i].tag);
    EXPECT_EQ(r.key().version, keys[i].version);
    EXPECT_TRUE(r.eos());  // budget held the whole stream, EOS piggybacked
    EXPECT_FALSE(r.spilled());
    EXPECT_EQ(r.wire_bits(kHeader), kHeader + 20u);
    EXPECT_EQ(replay(r), Values{i * 7 + 1});
  }
}

TEST(MsgBlock, InlineTwoSymbolsIncludingMaxWidth) {
  // The payload word holds two symbols of 64 bits together, and one
  // symbol of the full 64.
  MsgBlock block;
  Scheduled pair, lone;
  const std::uint64_t big = ~std::uint64_t{0};
  const Symbols two{{big >> 1, 63}, {1, 1}};
  schedule(pair, StreamKey{3, 42, 1}, two, /*close=*/false, kHeader + 64);
  schedule(lone, StreamKey{3, 43, 1}, {{big, 64}}, /*close=*/false,
           kHeader + 64);
  ASSERT_TRUE(pair.ok && lone.ok);
  block.push(pair.view, 9, 2);
  block.push(lone.view, 9, 3);
  const MsgBlock::Copy& r = block[0];
  EXPECT_FALSE(r.spilled());
  EXPECT_FALSE(r.eos());  // stream not closed
  EXPECT_EQ(r.wire_bits(kHeader), kHeader + 64u);
  EXPECT_EQ(replay(r), values(two));
  EXPECT_FALSE(block[1].spilled());
  EXPECT_EQ(block[1].wire_bits(kHeader), kHeader + 64u);
  EXPECT_EQ(replay(block[1]), Values{big});
}

TEST(MsgBlock, TwoFortyBitSymbolsSpillAndArriveIntact) {
  // Two symbols of more than 64 bits together do not fit the payload word.
  // Shingles' (rho, id) messages take this path from n = 65,536 on, where
  // an id needs 17 bits and rho 51.
  MsgBlock block;
  Scheduled s;
  const Symbols two{{0xabcdef0123u, 40}, {0x123456789au, 40}};
  schedule(s, StreamKey{5, 77, 0}, two, /*close=*/true, kHeader + 80);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 4, 1);
  const MsgBlock::Copy& r = block[0];
  EXPECT_TRUE(r.spilled());
  EXPECT_TRUE(r.eos());
  EXPECT_EQ(r.wire_bits(kHeader), kHeader + 80u);
  EXPECT_EQ(replay(r), values(two));
  // And the spilled payload survives a move to another block.
  MsgBlock moved;
  moved.append(r);
  EXPECT_EQ(moved[0].wire_bits(kHeader), kHeader + 80u);
  EXPECT_EQ(replay(moved[0]), values(two));
}

TEST(MsgBlock, SpilledManySymbolsRoundTrip) {
  MsgBlock block;
  Scheduled s;
  Symbols symbols;
  for (unsigned i = 0; i < 50; ++i) {
    const unsigned w = 3 + (i * 7) % 62;  // mixed widths, crosses words
    symbols.emplace_back((std::uint64_t{i} * 0x9e3779b97f4a7c15u) >> (64 - w),
                         w);
  }
  schedule(s, StreamKey{7, 1000, 3}, symbols, /*close=*/true, wire(symbols));
  ASSERT_TRUE(s.ok);
  block.push(s.view, 5, 0);
  const MsgBlock::Copy& r = block[0];
  EXPECT_TRUE(r.spilled());
  EXPECT_TRUE(r.eos());
  EXPECT_EQ(r.wire_bits(kHeader), wire(symbols));
  EXPECT_EQ(replay(r), values(symbols));
}

TEST(MsgBlock, SpilledMaxWidthSymbolsRoundTrip) {
  // All-64-bit payload: the widest legal symbols, word boundaries everywhere.
  MsgBlock block;
  Scheduled s;
  Symbols symbols;
  for (unsigned i = 0; i < 8; ++i) {
    symbols.emplace_back(0x0102030405060708u * (i + 1), 64);
  }
  schedule(s, StreamKey{1, 2, 0}, symbols, /*close=*/true, kHeader + 8 * 64);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 1, 0);
  const MsgBlock::Copy& r = block[0];
  EXPECT_TRUE(r.spilled());
  EXPECT_EQ(r.wire_bits(kHeader), kHeader + 8 * 64u);
  EXPECT_EQ(replay(r), values(symbols));
}

TEST(MsgBlock, PureEosMessageCarriesNoPayload) {
  MsgBlock block;
  Scheduled s;
  schedule(s, StreamKey{2, 8, 0}, {}, /*close=*/true, kHeader);
  ASSERT_TRUE(s.ok);  // empty-but-closed stream schedules a pure-EOS message
  block.push(s.view, 3, 1);
  const MsgBlock::Copy& r = block[0];
  EXPECT_TRUE(r.eos());
  EXPECT_FALSE(r.spilled());
  EXPECT_EQ(r.wire_bits(kHeader), kHeader);
  InStream in;
  r.deliver_to(in);
  EXPECT_EQ(in.delivered(), 0u);
  EXPECT_TRUE(in.finished());
}

TEST(MsgBlock, LocalDrainViewsStageUnbounded) {
  // LOCAL mode drains whole streams through drain_views; a long stream must
  // spill and round-trip through the lane in one message.
  LinkPool pool;
  Link link;
  OutChannel ch;
  link.add_stream(pool, ch.share(StreamKey{4, 77, 0}));
  Values sent;
  for (std::uint64_t i = 0; i < 200; ++i) {
    ch.put(i * 13 + 5, 32);
    sent.push_back(i * 13 + 5);
  }
  ch.close();
  MsgBlock block;
  const std::size_t produced =
      link.drain_views(pool, kHeader, [&](const MsgView& v) {
        block.push(v, 0, 0);
      });
  ASSERT_EQ(produced, 1u);
  const MsgBlock::Copy& r = block[0];
  EXPECT_TRUE(r.spilled());
  EXPECT_EQ(r.wire_bits(kHeader), kHeader + 200 * 32u);
  EXPECT_EQ(replay(r), sent);
}

TEST(MsgBlock, AppendFromCopiesInlineAndSpilledRows) {
  // A copy appended to a heap-backed block (an FEC release into an
  // in-flight bucket) owns its record and payload: it outlives the storage
  // of the block it came from.
  Arena arena;
  MsgBlock lane;
  lane.bind(&arena);
  lane.start_round(2);

  Scheduled small;
  schedule(small, StreamKey{6, 11, 2}, {{0xabcd, 16}}, /*close=*/false,
           kHeader + 16);
  ASSERT_TRUE(small.ok);
  lane.push(small.view, 10, 4);

  Scheduled big;
  Symbols symbols;
  for (unsigned i = 0; i < 20; ++i) symbols.emplace_back(i + 1, 17);
  schedule(big, StreamKey{8, 12, 0}, symbols, /*close=*/true,
           kHeader + 20 * 17);
  ASSERT_TRUE(big.ok);
  lane.push(big.view, 11, 5);

  MsgBlock bucket;  // heap mode
  bucket.append(lane[0]);
  bucket.append(lane[1]);

  // Simulate the next round: the arena rewinds and the lane is sized
  // afresh. The bucket's copies must be unaffected.
  arena.reset();
  lane.start_round(2);

  const MsgBlock::Copy& r0 = bucket[0];
  EXPECT_EQ(r0.to, 10u);
  EXPECT_EQ(r0.back_index, 4u);
  EXPECT_FALSE(r0.spilled());
  EXPECT_EQ(r0.wire_bits(kHeader), kHeader + 16u);
  EXPECT_EQ(replay(r0), Values{0xabcd});

  const MsgBlock::Copy& r1 = bucket[1];
  EXPECT_EQ(r1.to, 11u);
  EXPECT_EQ(r1.back_index, 5u);
  EXPECT_TRUE(r1.spilled());
  EXPECT_TRUE(r1.eos());
  EXPECT_EQ(r1.wire_bits(kHeader), wire(symbols));
  EXPECT_EQ(replay(r1), values(symbols));
}

TEST(MsgBlock, ArenaLaneSteadyStateReusesMemory) {
  Arena arena;
  MsgBlock lane;
  lane.bind(&arena);
  for (int round = 0; round < 8; ++round) {
    arena.reset();
    lane.start_round(32);
    for (int m = 0; m < 32; ++m) {
      Scheduled s;
      schedule(s, StreamKey{1, NodeId(m), 0},
               {{static_cast<std::uint64_t>(m * round), 24}}, true,
               kHeader + 24);
      ASSERT_TRUE(s.ok);
      lane.push(s.view, NodeId(m), 0);
    }
    ASSERT_EQ(lane.size(), 32u);
  }
  // A presized lane holds exactly its records: the arena should stop
  // growing, at one 24-byte record per copy.
  const std::size_t hw = arena.high_water_bytes();
  EXPECT_EQ(hw, 32 * sizeof(MsgBlock::Copy));
  arena.reset();
  lane.start_round(32);
  for (int m = 0; m < 32; ++m) {
    Scheduled s;
    schedule(s, StreamKey{1, NodeId(m), 0}, {{7, 24}}, true, kHeader + 24);
    lane.push(s.view, NodeId(m), 0);
  }
  EXPECT_EQ(arena.high_water_bytes(), hw);
}

TEST(MsgBlock, ReliabilityKindsRoundTripInlineIncludingMaxWidth) {
  // The reliability service's wire kinds (kRelAck = 30, kRelRepair = 31)
  // live at the top of the 5-bit kind field: a regression that narrows the
  // packed kind bits truncates exactly these. Lock the round trip for an
  // inline row of the widest inline payload (64 bits) under each kind.
  static_assert(kRelAck == 30 && kRelRepair == 31);
  static_assert(kRelRepair < kMaxMsgKinds);
  MsgBlock block;
  const Symbols two{{~std::uint64_t{0} >> 16, 48}, {0x5a5au, 16}};
  std::vector<Scheduled> scheduled(2);
  const std::uint16_t kinds[2] = {kRelAck, kRelRepair};
  for (std::size_t i = 0; i < 2; ++i) {
    schedule(scheduled[i], StreamKey{kinds[i], NodeId(40 + i), 2}, two,
             /*close=*/true, kHeader + 64);
    ASSERT_TRUE(scheduled[i].ok);
    block.push(scheduled[i].view, NodeId(i), static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    const MsgBlock::Copy& r = block[i];
    EXPECT_EQ(r.key().kind, kinds[i]);  // survives the 5-bit meta packing
    EXPECT_EQ(r.key().tag, NodeId(40 + i));
    EXPECT_EQ(r.key().version, 2u);
    EXPECT_TRUE(r.eos());
    EXPECT_FALSE(r.spilled());
    EXPECT_EQ(r.wire_bits(kHeader), kHeader + 64u);
    EXPECT_EQ(replay(r), values(two));
  }
}

TEST(MsgBlock, ReliabilityKindsRoundTripSpilled) {
  // Same kinds through the spilled encoding (meta's kSpillBit set alongside
  // the top kind bits), plus the FEC-release hand-off: append must copy the
  // record and its payload whole.
  MsgBlock block;
  Symbols symbols;
  for (unsigned i = 0; i < 24; ++i) {
    const unsigned w = 64 - (i % 3);  // max and near-max widths
    symbols.emplace_back(
        (std::uint64_t{i + 1} * 0x9e3779b97f4a7c15u) >> (64 - w), w);
  }
  for (const std::uint16_t kind : {kRelAck, kRelRepair}) {
    Scheduled s;
    schedule(s, StreamKey{kind, 9000, 0}, symbols, /*close=*/true,
             wire(symbols));
    ASSERT_TRUE(s.ok);
    block.push(s.view, 7, 3);
  }
  MsgBlock released;  // the rel_parked -> in-flight bucket release path
  released.append(block[0]);
  released.append(block[1]);
  const std::uint16_t kinds[2] = {kRelAck, kRelRepair};
  for (std::size_t i = 0; i < 2; ++i) {
    const MsgBlock::Copy& r = released[i];
    EXPECT_EQ(r.key().kind, kinds[i]);
    EXPECT_EQ(r.to, 7u);
    EXPECT_EQ(r.back_index, 3u);
    EXPECT_TRUE(r.spilled());
    EXPECT_TRUE(r.eos());
    EXPECT_EQ(r.wire_bits(kHeader), wire(symbols));
    EXPECT_EQ(replay(r), values(symbols)) << "kind " << kinds[i];
  }
}

TEST(MsgBlock, CopiesWalkInStagedOrderAndDecodeToTheirRow) {
  // The deliver phase reads the records in staged order: every physical
  // copy — both copies of one scheduled view included — is a record of its
  // own with its own destination and back index, and decodes to the key,
  // flags, wire bits and payload of the view it was staged from: inline
  // rows carried whole, spilled rows through their payload.
  MsgBlock block;
  Scheduled inline_row, bcast_row, spilled_row;
  const Symbols inline_symbols{{~std::uint64_t{0} >> 3, 61}, {5, 3}};
  schedule(inline_row, StreamKey{31, 7, 15}, inline_symbols, /*close=*/true,
           kHeader + 64);
  schedule(bcast_row, StreamKey{2, 11, 0}, {{0x2a, 7}}, /*close=*/false,
           kHeader + 7);
  Symbols spilled;
  for (unsigned i = 0; i < 5; ++i) spilled.emplace_back(i * 9 + 1, 20);
  schedule(spilled_row, StreamKey{4, 900, 3}, spilled, /*close=*/true,
           kHeader + 100);
  ASSERT_TRUE(inline_row.ok && bcast_row.ok && spilled_row.ok);
  block.push(inline_row.view, 10, 1);
  block.push(bcast_row.view, 11, 2);
  block.push(bcast_row.view, 12, 3);
  block.push(spilled_row.view, 13, 4);

  struct Want {
    const MsgView* view;
    NodeId to;
    std::uint32_t back_index;
  };
  const Want want[] = {{&inline_row.view, 10, 1},
                       {&bcast_row.view, 11, 2},
                       {&bcast_row.view, 12, 3},
                       {&spilled_row.view, 13, 4}};
  ASSERT_EQ(block.size(), 4u);
  for (std::size_t j = 0; j < block.size(); ++j) {
    const MsgBlock::Copy& got = block[j];
    const MsgView& v = *want[j].view;
    EXPECT_EQ(got.to, want[j].to) << "copy " << j;
    EXPECT_EQ(got.back_index, want[j].back_index) << "copy " << j;
    EXPECT_EQ(got.key(), v.key);
    EXPECT_EQ(got.eos(), v.eos);
    EXPECT_EQ(replay(got).size(), v.symbol_count);
    EXPECT_EQ(got.wire_bits(kHeader), v.wire_bits);
  }
  EXPECT_FALSE(block[0].spilled());
  EXPECT_EQ(replay(block[0]), values(inline_symbols));
  EXPECT_EQ(replay(block[1]), replay(block[2]));
  EXPECT_EQ(replay(block[3]), values(spilled));
  EXPECT_TRUE(block[3].spilled());
}

TEST(MsgBlock, RetainKeepsTheRestInOrderWithTheirPayloads) {
  // The settle of an in-flight bucket: copies dropped in place leave the
  // others in their order, each still decoding to its own payload, and a
  // block emptied this way stays usable.
  MsgBlock block;
  Scheduled inline_row, spilled_row;
  schedule(inline_row, StreamKey{2, 11, 0}, {{0x2a, 7}}, /*close=*/false,
           kHeader + 7);
  Symbols spilled;
  for (unsigned i = 0; i < 5; ++i) spilled.emplace_back(i * 9 + 1, 20);
  schedule(spilled_row, StreamKey{4, 900, 3}, spilled, /*close=*/true,
           kHeader + 100);
  ASSERT_TRUE(inline_row.ok && spilled_row.ok);
  for (NodeId to = 0; to < 6; ++to) {
    block.push(to % 2 == 0 ? inline_row.view : spilled_row.view, to, to + 1);
  }
  block.retain([](const MsgBlock::Copy& c) { return c.to % 3 != 0; });
  const NodeId kept[] = {1, 2, 4, 5};
  ASSERT_EQ(block.size(), 4u);
  for (std::size_t j = 0; j < block.size(); ++j) {
    const MsgBlock::Copy& c = block[j];
    EXPECT_EQ(c.to, kept[j]);
    EXPECT_EQ(c.back_index, kept[j] + 1);
    EXPECT_EQ(c.spilled(), kept[j] % 2 == 1);
    EXPECT_EQ(replay(c), replay(block[kept[j] % 2 == 1 ? 0 : 1]));
  }
  EXPECT_EQ(replay(block[0]), values(spilled));
  EXPECT_EQ(replay(block[1]), Values{0x2a});
  block.retain([](const MsgBlock::Copy&) { return false; });
  EXPECT_TRUE(block.empty());
  block.push(inline_row.view, 9, 0);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].to, 9u);
}

// Broadcasts kMessages spilled messages of kPerMessage 64-bit symbols (the
// widest legal symbol) to every neighbour through one open_stream_all, and
// checks on every receiver that each neighbour's stream arrives whole and
// in order, kPerMessage symbols a round.
class WideCaster : public INode {
 public:
  static constexpr std::uint16_t kKind = 3;
  static constexpr unsigned kPerMessage = 6;  // > 2 symbols: spilled
  static constexpr unsigned kMessages = 3;

  static std::uint64_t symbol(NodeId from, unsigned i) {
    return ~std::uint64_t{0} - (std::uint64_t{from} << 16) - i;
  }

  void on_start(NodeApi& api) override {
    OutChannel ch = api.open_stream_all(StreamKey{kKind, 0, 0});
    for (unsigned i = 0; i < kPerMessage * kMessages; ++i) {
      ch.put(symbol(api.id(), i), 64);
    }
    ch.close();
    got_.assign(api.degree(), 0);
  }

  void on_round(NodeApi& api) override {
    std::size_t finished = 0;
    std::uint64_t popped = 0;
    api.for_each_in(kKind, [&](std::size_t ni, const StreamKey&,
                               InStream& in) {
      const NodeId from = api.neighbors()[ni];
      while (in.available() > 0) {
        const std::uint64_t v = in.pop();
        if (v != symbol(from, got_[ni])) ++corrupt;
        ++got_[ni];
        ++popped;
      }
      if (in.finished()) ++finished;
    });
    log.push_back({api.round(), popped});
    if (finished == api.degree()) api.set_done();
  }

  struct Arrival {
    std::uint64_t round;
    std::uint64_t symbols;
    bool operator==(const Arrival&) const = default;
  };
  std::vector<Arrival> log;
  std::uint64_t corrupt = 0;

 private:
  std::vector<unsigned> got_;
};

TEST(StagedCopies, SpilledMaxWidthBroadcastArrivesIntactAtEveryThreadCount) {
  // Every copy of a spilled max-width broadcast is its own record, staged
  // into the lane of its destination shard: on K9 at 2 and 4 threads the
  // fan-out crosses every lane, and each neighbour must still receive every
  // symbol intact, in stream order, one message per round, with the
  // RunStats of one thread and of the closed form.
  constexpr NodeId kN = 9;
  const Graph g = testing::complete_graph(kN);
  RunStats serial;
  std::vector<std::vector<WideCaster::Arrival>> serial_logs;
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    NetConfig cfg;
    cfg.bandwidth_factor = 100;  // room for six 64-bit symbols a message
    cfg.threads = threads;
    Network net(g, cfg, [](NodeId) { return std::make_unique<WideCaster>(); });
    const RunStats stats = net.run();
    ASSERT_TRUE(net.all_done());
    const std::uint64_t wire =
        stream_header_bits(id_width(kN)) + WideCaster::kPerMessage * 64;
    ASSERT_LE(wire, net.bandwidth_bits());
    EXPECT_EQ(stats.messages, kN * (kN - 1) * WideCaster::kMessages);
    EXPECT_EQ(stats.bits, stats.messages * wire);
    EXPECT_EQ(stats.max_message_bits, wire);
    EXPECT_EQ(stats.rounds, WideCaster::kMessages);
    std::vector<std::vector<WideCaster::Arrival>> logs;
    for (NodeId v = 0; v < kN; ++v) {
      auto& node = static_cast<WideCaster&>(net.node(v));
      EXPECT_EQ(node.corrupt, 0u) << "node " << v;
      ASSERT_EQ(node.log.size(), WideCaster::kMessages) << "node " << v;
      for (std::uint64_t r = 0; r < WideCaster::kMessages; ++r) {
        EXPECT_EQ(node.log[r].round, r + 1);
        EXPECT_EQ(node.log[r].symbols, (kN - 1) * WideCaster::kPerMessage);
      }
      logs.push_back(node.log);
    }
    if (threads == 1) {
      serial = stats;
      serial_logs = logs;
    } else {
      EXPECT_EQ(stats, serial);
      EXPECT_EQ(logs, serial_logs);
    }
  }
}

// Broadcasts one symbol on every link in each of its first kRounds wake-ups,
// then closes the stream and finishes: every round but the last stages a
// copy on every link.
class Chatter : public INode {
 public:
  static constexpr std::uint64_t kRounds = 4;

  void on_start(NodeApi& api) override {
    ch_ = api.open_stream_all(StreamKey{1, 0, 0});
    ch_.put(api.id() & 0xffu, 8);
  }

  void on_round(NodeApi& api) override {
    if (api.round() < kRounds) {
      ch_.put(api.round(), 8);
    } else if (!closed_) {
      ch_.close();
      closed_ = true;
    } else {
      api.set_done();
    }
  }

 private:
  OutChannel ch_;
  bool closed_ = false;
};

TEST(StagedCopies, ArenaPeakIsOneRecordAndOneReferencePerCopy) {
  // The byte budget of the data path: a staged copy costs one 24-byte
  // record in its source shard's arena and, in a dense round, one 8-byte
  // sort reference in its destination shard's arena, next to a 4-byte
  // count per node. Lane doubling or a second per-copy encoding breaks the
  // bound. kSlack covers what is neither: each round's lane-size table,
  // alignment padding and the load imbalance of 4 shards (a shard may
  // receive a few more copies than the busiest shard stages).
  constexpr std::uint64_t kSlack = 64 * 1024;
  Rng rng(5);
  const Graph g = erdos_renyi(3000, 0.01, rng);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    NetProfile prof;
    NetConfig cfg;
    cfg.threads = threads;
    cfg.profile = &prof;
    Network net(g, cfg, [](NodeId) { return std::make_unique<Chatter>(); });
    net.run();
    ASSERT_TRUE(net.all_done());
    // The peak round stages a copy on every link.
    EXPECT_GE(prof.lane_msgs_peak * threads, 2 * g.m());
    const std::uint64_t per_copy =
        sizeof(MsgBlock::Copy) + sizeof(const MsgBlock::Copy*);
    const std::uint64_t counts = (std::uint64_t{g.n()} + 1) * 4;
    EXPECT_LE(prof.arena_bytes_peak_shard,
              prof.lane_msgs_peak * per_copy + counts + kSlack)
        << "lane_msgs_peak=" << prof.lane_msgs_peak;
  }
}

TEST(StagedCopies, LinkPoolsHoldOneStreamEntryPerDirectedEdge) {
  // The byte budget of a stream on a link: every node opens one stream on
  // all of its links, so at the peak each directed edge holds one 16-byte
  // LinkStream in its owner shard's pool, and nothing else is carved. The
  // stream's key and payload live once per open, in the shared state. The
  // slack is one 16-entry chunk per shard.
  static_assert(sizeof(LinkStream) == 16 && sizeof(Link) == 16);
  Rng rng(5);
  const Graph g = erdos_renyi(3000, 0.01, rng);
  const std::uint64_t per_edge = 2 * g.m() * sizeof(LinkStream);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    NetProfile prof;
    NetConfig cfg;
    cfg.threads = threads;
    cfg.profile = &prof;
    Network net(g, cfg, [](NodeId) { return std::make_unique<Chatter>(); });
    net.run();
    ASSERT_TRUE(net.all_done());
    EXPECT_GE(prof.link_bytes_carved, per_edge);
    EXPECT_LE(prof.link_bytes_carved,
              per_edge + threads * 16 * sizeof(LinkStream));
    EXPECT_EQ(prof.link_bytes_live, 0u);  // every stream was pruned
  }
}

TEST(StagedCopies, InboxPoolsHoldOneEntryPerReceivedStream) {
  // The byte budget of a received stream: round 1 delivers every node's
  // whole run of copies at once — one per neighbour, all of one kind — so
  // its inbox bucket is created once, in the tightest slot class for its
  // degree, and holds one 8-byte key and one 16-byte InStream per stream.
  // Chatter never retires, so every bucket stays until its node is done.
  // The slack is one 16-entry first chunk per shard.
  static_assert(sizeof(InboxKey) + sizeof(InStream) == 24);
  Rng rng(5);
  const Graph g = erdos_renyi(3000, 0.01, rng);
  std::uint64_t tight = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    tight += slot_class_size(slot_class_for(g.degree(v))) * 24;
  }
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    NetProfile prof;
    NetConfig cfg;
    cfg.threads = threads;
    cfg.profile = &prof;
    Network net(g, cfg, [](NodeId) { return std::make_unique<Chatter>(); });
    net.run();
    ASSERT_TRUE(net.all_done());
    EXPECT_GE(prof.inbox_bytes_carved, 2 * g.m() * 24);
    EXPECT_LE(prof.inbox_bytes_carved, tight + threads * 16 * 24);
    EXPECT_EQ(prof.inbox_bytes_live, 0u);  // every node is done
  }
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
