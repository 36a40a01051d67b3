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

// Replays a record into an InStream exactly as Network::apply_copies does,
// then pops everything back.
std::vector<std::pair<std::uint64_t, unsigned>> replay(
    const MsgBlock::Copy& r) {
  InStream in;
  if (r.spilled()) {
    in.deliver_packed(r.words, r.pay_word_count(kHeader), 0,
                      r.pay_bits(kHeader), r.pay_widths(kHeader),
                      r.symbol_count);
  } else {
    if (r.symbol_count >= 1) in.deliver(r.v[0], r.w0());
    if (r.symbol_count == 2) in.deliver(r.v[1], r.w1());
  }
  if (r.eos()) in.deliver_eos();
  std::vector<std::pair<std::uint64_t, unsigned>> out;
  // Widths are recoverable from the record for verification purposes.
  for (std::uint32_t i = 0; i < r.symbol_count; ++i) {
    unsigned w;
    if (r.spilled()) {
      w = r.pay_widths(kHeader)[i];
    } else {
      w = i == 0 ? r.w0() : r.w1();
    }
    out.emplace_back(in.pop(), w);
  }
  EXPECT_EQ(in.available(), 0u);
  EXPECT_EQ(in.closed(), r.eos());
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
    const MsgBlock::Copy& r = block[i];
    EXPECT_EQ(r.to, NodeId(i));
    EXPECT_EQ(r.back_index, i);
    EXPECT_EQ(r.key().kind, keys[i].kind);
    EXPECT_EQ(r.key().tag, keys[i].tag);
    EXPECT_EQ(r.key().version, keys[i].version);
    EXPECT_TRUE(r.eos());  // budget held the whole stream, EOS piggybacked
    EXPECT_FALSE(r.spilled());
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
  const MsgBlock::Copy& r = block[0];
  EXPECT_FALSE(r.spilled());
  EXPECT_FALSE(r.eos());  // stream not closed
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
  const MsgBlock::Copy& r = block[0];
  EXPECT_TRUE(r.spilled());
  EXPECT_TRUE(r.eos());
  ASSERT_EQ(r.symbol_count, 50u);
  EXPECT_EQ(r.pay_bits(kHeader), payload_bits);
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
  const MsgBlock::Copy& r = block[0];
  EXPECT_TRUE(r.spilled());
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
  const MsgBlock::Copy& r = block[0];
  EXPECT_TRUE(r.eos());
  EXPECT_FALSE(r.spilled());
  EXPECT_EQ(r.symbol_count, 0u);
  EXPECT_EQ(r.wire_bits, kHeader);
  InStream in;
  if (r.eos()) in.deliver_eos();
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
  const MsgBlock::Copy& r = block[0];
  EXPECT_TRUE(r.spilled());
  ASSERT_EQ(r.symbol_count, 200u);
  const auto got = replay(r);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].first, sent[i]);
    EXPECT_EQ(got[i].second, 32u);
  }
}

TEST(MsgBlock, AppendFromCopiesInlineAndSpilledRows) {
  // The delayed-bucket hand-off: copies staged in an arena-backed lane are
  // copied into a heap-backed block that outlives the round.
  Arena arena;
  MsgBlock lane;
  lane.bind(&arena, /*timed=*/true);
  lane.start_round(2);

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

  MsgBlock bucket;
  bucket.bind(nullptr, /*timed=*/true);  // heap mode
  bucket.append(lane[0], kHeader, lane.due(0));
  bucket.append(lane[1], kHeader, lane.due(1));

  // Simulate the next round: the arena rewinds and the lane is sized
  // afresh. The bucket's copies must be unaffected.
  arena.reset();
  lane.start_round(2);

  const MsgBlock::Copy& r0 = bucket[0];
  EXPECT_EQ(r0.to, 10u);
  EXPECT_EQ(r0.back_index, 4u);
  EXPECT_EQ(bucket.due(0), 7u);
  EXPECT_FALSE(r0.spilled());
  const auto got0 = replay(r0);
  ASSERT_EQ(got0.size(), 1u);
  EXPECT_EQ(got0[0], (std::pair<std::uint64_t, unsigned>{0xabcdu, 16u}));

  const MsgBlock::Copy& r1 = bucket[1];
  EXPECT_EQ(r1.to, 11u);
  EXPECT_EQ(bucket.due(1), 9u);
  EXPECT_TRUE(r1.spilled());
  EXPECT_TRUE(r1.eos());
  const auto got1 = replay(r1);
  ASSERT_EQ(got1.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(got1[i], symbols[i]) << "symbol " << i;
  }
}

TEST(MsgBlock, ArenaLaneSteadyStateReusesMemory) {
  Arena arena;
  MsgBlock lane;
  lane.bind(&arena, /*timed=*/false);
  for (int round = 0; round < 8; ++round) {
    arena.reset();
    lane.start_round(32);
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
  // A presized lane holds exactly its records: the arena should stop
  // growing, at one 40-byte record per copy.
  const std::size_t hw = arena.high_water_bytes();
  EXPECT_EQ(hw, 32 * sizeof(MsgBlock::Copy));
  arena.reset();
  lane.start_round(32);
  for (int m = 0; m < 32; ++m) {
    Scheduled s;
    schedule(s, StreamKey{1, NodeId(m), 0}, {{7, 24}}, true, kHeader + 24);
    lane.push(s.view, NodeId(m), 0, 0);
  }
  EXPECT_EQ(arena.high_water_bytes(), hw);
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
    const MsgBlock::Copy& r = block[i];
    EXPECT_EQ(r.key().kind, kinds[i]);  // survives the 5-bit meta packing
    EXPECT_EQ(r.key().tag, NodeId(40 + i));
    EXPECT_EQ(r.key().version, 2u);
    EXPECT_TRUE(r.eos());
    EXPECT_FALSE(r.spilled());
    EXPECT_EQ(r.wire_bits, kHeader + 80u);
    const auto got = replay(r);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], (std::pair<std::uint64_t, unsigned>{big, 64u}));
    EXPECT_EQ(got[1], (std::pair<std::uint64_t, unsigned>{0x5a5au, 16u}));
  }
}

TEST(MsgBlock, ReliabilityKindsRoundTripSpilled) {
  // Same kinds through the spilled encoding (meta's kSpillBit set alongside
  // the top kind bits), plus the FEC-release hand-off: append with an
  // explicit due round must set the due column and copy the rest.
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
  MsgBlock released;  // the rel_parked -> lane release path
  released.bind(nullptr, /*timed=*/true);
  released.append(block[0], kHeader, /*due=*/123);
  released.append(block[1], kHeader, /*due=*/456);
  const std::uint64_t rounds[2] = {123, 456};
  const std::uint16_t kinds[2] = {kRelAck, kRelRepair};
  for (std::size_t i = 0; i < 2; ++i) {
    const MsgBlock::Copy& r = released[i];
    EXPECT_EQ(r.key().kind, kinds[i]);
    EXPECT_EQ(released.due(i), rounds[i]);
    EXPECT_EQ(r.to, 7u);
    EXPECT_EQ(r.back_index, 3u);
    EXPECT_TRUE(r.spilled());
    EXPECT_TRUE(r.eos());
    ASSERT_EQ(r.symbol_count, symbols.size());
    const auto got = replay(r);
    for (std::size_t j = 0; j < symbols.size(); ++j) {
      EXPECT_EQ(got[j], symbols[j]) << "kind " << kinds[i] << " symbol " << j;
    }
  }
}

TEST(MsgBlock, CopiesWalkInStagedOrderAndDecodeToTheirRow) {
  // The deliver phase reads the records in staged order: every physical
  // copy — both copies of one scheduled view included — is a record of its
  // own with its own destination, back index and due round, and decodes
  // to the key, flags, wire bits and payload of the view it was staged
  // from: inline rows carried whole, spilled rows through their payload.
  MsgBlock block;
  block.bind(nullptr, /*timed=*/true);
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
  block.push(bcast_row.view, 12, 3, 9);
  block.push(spilled_row.view, 13, 4, 0);

  struct Want {
    const MsgView* view;
    NodeId to;
    std::uint32_t back_index;
    std::uint64_t due;
  };
  const Want want[] = {{&inline_row.view, 10, 1, 0},
                       {&bcast_row.view, 11, 2, 0},
                       {&bcast_row.view, 12, 3, 9},
                       {&spilled_row.view, 13, 4, 0}};
  ASSERT_EQ(block.size(), 4u);
  for (std::size_t j = 0; j < block.size(); ++j) {
    const MsgBlock::Copy& got = block[j];
    const MsgView& v = *want[j].view;
    EXPECT_EQ(got.to, want[j].to) << "copy " << j;
    EXPECT_EQ(got.back_index, want[j].back_index) << "copy " << j;
    EXPECT_EQ(block.due(j), want[j].due) << "copy " << j;
    EXPECT_EQ(got.key(), v.key);
    EXPECT_EQ(got.eos(), v.eos);
    EXPECT_EQ(got.symbol_count, v.symbol_count);
    EXPECT_EQ(got.wire_bits, v.wire_bits);
  }
  EXPECT_EQ(replay(block[1]), replay(block[2]));
  EXPECT_EQ(replay(block[3]), spilled);
  EXPECT_TRUE(block[3].spilled());
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
  // The byte budget of the data path: a staged copy costs one 40-byte
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
