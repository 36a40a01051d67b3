#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/protocol.hpp"
#include "expt/scenario.hpp"
#include "graph/generators.hpp"
#include "runtime/faults.hpp"
#include "runtime/network.hpp"
#include "runtime/reliability.hpp"
#include "test_helpers.hpp"
#include "util/bitio.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace nc {

/// Read access to the engine's per-node state between rounds.
struct NetworkTestPeek {
  static std::uint32_t arrived_kinds(const Network& net, NodeId v) {
    return net.states_[v].arrived_kinds;
  }
  /// Streams in each of node v's inbox buckets and the streams its slot
  /// holds (Inbox::capacity), kind by kind; {0, 0} where the kind has no
  /// bucket.
  static std::array<std::pair<std::size_t, std::size_t>, kMaxMsgKinds>
  inbox_buckets(Network& net, NodeId v) {
    std::array<std::pair<std::size_t, std::size_t>, kMaxMsgKinds> buckets{};
    Inbox& inbox = net.states_[v].inbox;
    for (std::uint16_t kind = 0; kind < kMaxMsgKinds; ++kind) {
      inbox.for_each(kind, [&](std::size_t, const StreamKey&, InStream&) {
        ++buckets[kind].first;
      });
      buckets[kind].second = inbox.capacity(kind);
    }
    return buckets;
  }
};

namespace {

constexpr std::uint16_t kData = 1;
constexpr std::uint16_t kOther = 2;

/// Node that sends a fixed payload to every neighbour in round 1 and records
/// what it receives, with the round number of each arrival.
class EchoNode : public INode {
 public:
  explicit EchoNode(std::size_t payload_symbols, unsigned width = 8)
      : payload_(payload_symbols), width_(width) {}

  void on_start(NodeApi& api) override {
    auto ch = api.open_stream_all(StreamKey{kData, api.id(), 0});
    for (std::size_t i = 0; i < payload_; ++i) {
      ch.put(i % (1ULL << width_), width_);
    }
    ch.close();
  }

  void on_round(NodeApi& api) override {
    bool all_done = true;
    for (std::size_t ni = 0; ni < api.degree(); ++ni) {
      const NodeId from = api.neighbors()[ni];
      InStream* in = api.find_in(ni, StreamKey{kData, from, 0});
      if (in == nullptr) {
        all_done = false;
        continue;
      }
      while (in->available() > 0) {
        received_.emplace_back(api.round(), in->pop());
      }
      if (!in->finished()) all_done = false;
    }
    if (all_done) api.set_done();
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> received_;

 private:
  std::size_t payload_;
  unsigned width_;
};

TEST(Runtime, OneRoundLatency) {
  const Graph g = testing::path_graph(2);
  NetConfig cfg;
  cfg.bandwidth_factor = 16;  // n=2: header is 12 bits; leave room for data
  Network net(g, cfg, [](NodeId) { return std::make_unique<EchoNode>(1); });
  const auto stats = net.run();
  EXPECT_FALSE(stats.stalled);
  auto& n0 = static_cast<EchoNode&>(net.node(0));
  ASSERT_EQ(n0.received_.size(), 1u);
  EXPECT_EQ(n0.received_[0].first, 1u);  // sent in on_start -> round 1
}

TEST(Runtime, LongStreamIsChunkedAcrossRounds) {
  const Graph g = testing::path_graph(2);
  NetConfig cfg;
  cfg.bandwidth_factor = 16;  // B = 32 bits; header 12 -> two symbols/round
  Network net(g, cfg,
              [](NodeId) { return std::make_unique<EchoNode>(100, 8); });
  const auto stats = net.run();
  auto& n0 = static_cast<EchoNode&>(net.node(0));
  ASSERT_EQ(n0.received_.size(), 100u);
  EXPECT_GE(stats.rounds, 50u);  // 100 symbols at two per round
  // FIFO order preserved.
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(n0.received_[i].second, i % 256);
  }
  // Arrival rounds are non-decreasing.
  for (std::size_t i = 1; i < 100; ++i) {
    EXPECT_GE(n0.received_[i].first, n0.received_[i - 1].first);
  }
}

TEST(Runtime, CongestEnforcesMaxMessageBits) {
  const Graph g = testing::complete_graph(8);
  NetConfig cfg;
  cfg.bandwidth_factor = 8;
  Network net(g, cfg,
              [](NodeId) { return std::make_unique<EchoNode>(64, 3); });
  const auto stats = net.run();
  EXPECT_LE(stats.max_message_bits, 8u * id_width(8));
  EXPECT_GT(stats.messages, 0u);
  EXPECT_GT(stats.bits, 0u);
}

TEST(Runtime, OversizedSymbolThrows) {
  const Graph g = testing::path_graph(2);
  NetConfig cfg;
  cfg.bandwidth_factor = 4;  // B = 8 bits; header alone exceeds it
  class BigSymbolNode : public INode {
   public:
    void on_start(NodeApi& api) override {
      auto ch = api.open_stream_all(StreamKey{kData, 0, 0});
      ch.put(0xffffffffffULL, 40);  // 40-bit symbol can never fit
      ch.close();
    }
    void on_round(NodeApi& api) override { api.set_done(); }
  };
  Network net(g, cfg, [](NodeId) { return std::make_unique<BigSymbolNode>(); });
  EXPECT_THROW(net.run(), std::runtime_error);
}

TEST(Runtime, LocalModeDrainsEverythingInOneRound) {
  const Graph g = testing::path_graph(2);
  NetConfig cfg;
  cfg.mode = NetConfig::Mode::kLocal;
  Network net(g, cfg,
              [](NodeId) { return std::make_unique<EchoNode>(5000, 16); });
  const auto stats = net.run();
  EXPECT_LE(stats.rounds, 2u);
  auto& n0 = static_cast<EchoNode&>(net.node(0));
  EXPECT_EQ(n0.received_.size(), 5000u);
  EXPECT_GT(stats.max_message_bits, 5000u);  // one giant message
}

TEST(Runtime, RoundRobinSharesEdgeBetweenStreams) {
  // One sender, two streams on the same edge: both must finish in roughly
  // interleaved fashion rather than one starving the other.
  const Graph g = testing::path_graph(2);
  class TwoStreamSender : public INode {
   public:
    void on_start(NodeApi& api) override {
      if (api.id() != 0) {
        return;
      }
      // Pure sender: never receives anything, so it must arm an alarm to be
      // woken once (the event-driven simulator does not poll quiet nodes).
      api.set_alarm(1);
      auto a = api.open_stream_all(StreamKey{kData, 1, 0});
      auto b = api.open_stream_all(StreamKey{kOther, 2, 0});
      for (int i = 0; i < 50; ++i) {
        a.put(1, 8);
        b.put(2, 8);
      }
      a.close();
      b.close();
    }
    void on_round(NodeApi& api) override {
      if (api.id() == 0) {
        api.set_done();
        return;
      }
      InStream* a = api.find_in(0, StreamKey{kData, 1, 0});
      InStream* b = api.find_in(0, StreamKey{kOther, 2, 0});
      if (a != nullptr) {
        while (a->available() > 0) {
          a->pop();
          if (!first_done_round_a_) first_a_ = api.round();
        }
        if (a->finished()) done_a_ = api.round();
      }
      if (b != nullptr) {
        while (b->available() > 0) b->pop();
        if (b->finished()) done_b_ = api.round();
      }
      if (a != nullptr && b != nullptr && a->finished() && b->finished()) {
        api.set_done();
      }
    }
    std::uint64_t first_a_ = 0, done_a_ = 0, done_b_ = 0;
    bool first_done_round_a_ = false;
  };
  NetConfig cfg;
  cfg.bandwidth_factor = 10;
  Network net(g, cfg,
              [](NodeId) { return std::make_unique<TwoStreamSender>(); });
  net.run();
  auto& n1 = static_cast<TwoStreamSender&>(net.node(1));
  EXPECT_GT(n1.done_a_, 0u);
  EXPECT_GT(n1.done_b_, 0u);
  // Fair sharing: completion rounds within 2 rounds of each other.
  const auto diff = n1.done_a_ > n1.done_b_ ? n1.done_a_ - n1.done_b_
                                            : n1.done_b_ - n1.done_a_;
  EXPECT_LE(diff, 2u);
}

TEST(Runtime, StallDetectionFiresOnDeadlockedProtocol) {
  const Graph g = testing::path_graph(2);
  class WaitsForever : public INode {
   public:
    void on_start(NodeApi&) override {}
    void on_round(NodeApi&) override {}  // never sends, never done
  };
  NetConfig cfg;
  Network net(g, cfg, [](NodeId) { return std::make_unique<WaitsForever>(); });
  const auto stats = net.run();
  EXPECT_TRUE(stats.stalled);
}

TEST(Runtime, AlarmWakesAndFastForwardCountsRounds) {
  const Graph g = testing::path_graph(2);
  class Sleeper : public INode {
   public:
    void on_start(NodeApi& api) override { api.set_alarm(5000); }
    void on_round(NodeApi& api) override {
      if (api.round() >= 5000) {
        woke_at_ = api.round();
        api.set_done();
      } else {
        api.set_alarm(5000);
      }
    }
    std::uint64_t woke_at_ = 0;
  };
  NetConfig cfg;
  Network net(g, cfg, [](NodeId) { return std::make_unique<Sleeper>(); });
  const auto stats = net.run();
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(stats.rounds, 5000u);
  EXPECT_EQ(static_cast<Sleeper&>(net.node(0)).woke_at_, 5000u);
}

TEST(Runtime, MaxRoundsAborts) {
  const Graph g = testing::path_graph(2);
  class Chatter : public INode {
   public:
    void on_start(NodeApi& api) override { api.set_alarm(1); }
    void on_round(NodeApi& api) override {
      auto ch = api.open_stream_all(StreamKey{kData, api.id(), 0});
      ch.put_bit(true);
      ch.close();
    }
  };
  NetConfig cfg;
  cfg.max_rounds = 50;
  Network net(g, cfg, [](NodeId) { return std::make_unique<Chatter>(); });
  const auto stats = net.run();
  EXPECT_TRUE(stats.hit_round_limit);
  EXPECT_LE(stats.rounds, 50u);
}

TEST(Runtime, RunRoundsIsExactWithoutFastForward) {
  const Graph g = testing::path_graph(2);
  class Sleeper : public INode {
   public:
    void on_start(NodeApi& api) override { api.set_alarm(100); }
    void on_round(NodeApi& api) override {
      if (api.round() >= 100) {
        api.set_done();
      } else {
        api.set_alarm(100);
      }
    }
  };
  NetConfig cfg;
  Network net(g, cfg, [](NodeId) { return std::make_unique<Sleeper>(); });
  EXPECT_FALSE(net.run_rounds(10));
  EXPECT_EQ(net.stats().rounds, 10u);
  EXPECT_FALSE(net.all_done());
  EXPECT_TRUE(net.run_rounds(95));
  EXPECT_TRUE(net.all_done());
}

TEST(Runtime, StatsAreDeterministicGivenSeed) {
  const Graph g = testing::complete_graph(6);
  auto run_once = [&]() {
    NetConfig cfg;
    cfg.seed = 99;
    Network net(g, cfg, [](NodeId) { return std::make_unique<EchoNode>(20); });
    return net.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.max_message_bits, b.max_message_bits);
}

TEST(Runtime, BitsByKindAttribution) {
  const Graph g = testing::path_graph(2);
  NetConfig cfg;
  cfg.bandwidth_factor = 16;
  Network net(g, cfg, [](NodeId) { return std::make_unique<EchoNode>(4); });
  const auto stats = net.run();
  EXPECT_GT(stats.bits_by_kind[kData], 0u);
  EXPECT_EQ(stats.bits_by_kind[kData], stats.bits);
  for (std::uint16_t k = 0; k < kMaxMsgKinds; ++k) {
    if (k != kData) {
      EXPECT_EQ(stats.bits_by_kind[k], 0u) << "kind " << k;
    }
  }
}

TEST(Runtime, NodeApiNeighborIndex) {
  const Graph g = testing::star_graph(3);  // center 0, leaves 1,2,3
  class Checker : public INode {
   public:
    void on_start(NodeApi& api) override {
      if (api.id() == 0) {
        EXPECT_EQ(api.degree(), 3u);
        EXPECT_EQ(api.neighbor_index(2), 1u);
        EXPECT_EQ(api.neighbor_index(0), SIZE_MAX);  // not own neighbour
      } else {
        EXPECT_EQ(api.neighbor_index(0), 0u);
      }
    }
    void on_round(NodeApi& api) override { api.set_done(); }
  };
  NetConfig cfg;
  Network net(g, cfg, [](NodeId) { return std::make_unique<Checker>(); });
  net.run();
}

TEST(Runtime, AlarmOverwriteUsesLatestValueAndSkipsStaleBuckets) {
  // set_alarm overwrites: the queue's earlier bucket entry must go stale and
  // never fire. Node 0 arms 500 then immediately re-arms 100; it must wake
  // at exactly 100 and 300, never at 500. Node 1 keeps the network alive
  // past 500 so a spurious wake would be observable.
  const Graph g = testing::path_graph(2);
  class Rearm : public INode {
   public:
    void on_start(NodeApi& api) override {
      api.set_alarm(500);
      api.set_alarm(100);  // latest call wins
    }
    void on_round(NodeApi& api) override {
      wakes_.push_back(api.round());
      if (api.round() == 100) {
        api.set_alarm(300);
      } else {
        api.set_done();
      }
    }
    std::vector<std::uint64_t> wakes_;
  };
  class LongSleeper : public INode {
   public:
    void on_start(NodeApi& api) override { api.set_alarm(600); }
    void on_round(NodeApi& api) override { api.set_done(); }
  };
  NetConfig cfg;
  Network net(g, cfg, [](NodeId v) -> std::unique_ptr<INode> {
    if (v == 0) return std::make_unique<Rearm>();
    return std::make_unique<LongSleeper>();
  });
  const auto stats = net.run();
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(stats.rounds, 600u);
  const auto& wakes = static_cast<Rearm&>(net.node(0)).wakes_;
  EXPECT_EQ(wakes, (std::vector<std::uint64_t>{100, 300}));
}

TEST(Runtime, QuietNodesAreNeverPolled) {
  // Event-driven contract: a node with no deliveries and no alarm costs
  // nothing — on_round is not invoked for it while others traffic.
  const Graph g = testing::path_graph(3);
  class CountingNode : public INode {
   public:
    explicit CountingNode(bool talk) : talk_(talk) {}
    void on_start(NodeApi& api) override {
      if (!talk_ || api.id() != 0) return;
      auto ch = api.open_stream_one(StreamKey{kData, 0, 0}, 0);
      for (int i = 0; i < 30; ++i) ch.put(i % 256, 8);
      ch.close();
      api.set_alarm(40);  // pure sender: wakes once, then finishes
    }
    void on_round(NodeApi& api) override {
      ++calls_;
      if (api.id() == 0) {
        api.set_done();
        return;
      }
      InStream* in = api.find_in(0, StreamKey{kData, 0, 0});
      if (in != nullptr) {
        while (in->available() > 0) in->pop();
        if (in->finished()) api.set_done();
      }
    }
    std::uint64_t calls_ = 0;
    bool talk_;
  };
  NetConfig cfg;
  cfg.bandwidth_factor = 16;  // a few symbols per round: several busy rounds
  Network net(g, cfg, [](NodeId v) {
    return std::make_unique<CountingNode>(v == 0);
  });
  const auto stats = net.run();
  // Node 2 neither received anything nor set an alarm: never woken, so the
  // network ends in a (deliberate) stall with node 2 unfinished.
  EXPECT_TRUE(stats.stalled);
  EXPECT_EQ(static_cast<CountingNode&>(net.node(2)).calls_, 0u);
  EXPECT_GT(static_cast<CountingNode&>(net.node(1)).calls_, 1u);
  EXPECT_EQ(static_cast<CountingNode&>(net.node(0)).calls_, 1u);
}

TEST(Runtime, ActiveLinkSetDrainsToZero) {
  const Graph g = testing::complete_graph(4);
  NetConfig cfg;
  Network net(g, cfg, [](NodeId) { return std::make_unique<EchoNode>(8); });
  EXPECT_GT(net.active_link_count(), 0u);  // on_start queued broadcasts
  net.run();
  EXPECT_EQ(net.active_link_count(), 0u);  // everything delivered
}

TEST(Runtime, OutOfRangeKindIsRejected) {
  const Graph g = testing::path_graph(2);
  class BadKind : public INode {
   public:
    void on_start(NodeApi& api) override {
      EXPECT_THROW((void)api.open_stream_all(StreamKey{32, 0, 0}),
                   std::invalid_argument);
      EXPECT_THROW((void)api.open_stream_all(StreamKey{1, 0, 16}),
                   std::invalid_argument);  // version beyond the 4-bit field
      // Neighbour indices are checked too, all of them before any link is
      // touched: index `degree()` would otherwise land on the next node's
      // first link of the flat per-edge table.
      const std::size_t mixed[2] = {0, api.degree()};
      EXPECT_THROW((void)api.open_stream(StreamKey{1, 0, 0}, mixed),
                   std::out_of_range);
      EXPECT_THROW((void)api.open_stream_one(StreamKey{1, 0, 0}, 7),
                   std::out_of_range);
      // In-range kinds are unaffected.
      EXPECT_EQ(api.arrived_kinds(), 0u);
      auto ch = api.open_stream_all(StreamKey{31, 0, 0});
      ch.put_bit(true);
      ch.close();
    }
    void on_round(NodeApi& api) override {
      if ((api.arrived_kinds() >> 31) != 0) api.set_done();
    }
  };
  NetConfig cfg;
  Network net(g, cfg, [](NodeId) { return std::make_unique<BadKind>(); });
  const auto stats = net.run();
  EXPECT_FALSE(stats.stalled);
}

/// Leaf of ArrivedKindsAreTheKindsDeliveredSinceTheLastCallback: in each
/// scheduled round (0 = on_start) it opens a one-message stream of the
/// scheduled kind to the centre, delivered one round later. It wakes by
/// alarm for each send and at kLast, when it finishes, and records the
/// mask of every wake-up.
class KindSender : public INode {
 public:
  struct Send {
    std::uint64_t round;
    std::uint16_t kind;
  };
  static constexpr std::uint64_t kLast = 12;

  explicit KindSender(std::vector<Send> sends) : sends_(std::move(sends)) {}
  void on_start(NodeApi& api) override { send_due(api); }
  void on_round(NodeApi& api) override {
    seen.emplace_back(api.round(), api.arrived_kinds());
    if (api.round() >= kLast) {
      api.set_done();
      return;
    }
    send_due(api);
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> seen;

 private:
  void send_due(NodeApi& api) {
    std::uint64_t next = kLast;
    for (const Send& s : sends_) {
      if (s.round == api.round()) {
        auto ch = api.open_stream_one(StreamKey{s.kind, 0, 0}, 0);
        ch.put_bit(true);
        ch.close();
      } else if (s.round > api.round()) {
        next = std::min(next, s.round);
      }
    }
    api.set_alarm(next);
  }
  std::vector<Send> sends_;
};

/// Centre of that star: broadcasts kind 3 from on_start, wakes by alarm in
/// round 3, finishes in round 8, and records the mask in every callback.
class KindRecorder : public INode {
 public:
  static constexpr std::uint16_t kBroadcast = 3;
  void on_start(NodeApi& api) override {
    hook_masks |= api.arrived_kinds();
    auto ch = api.open_stream_all(StreamKey{kBroadcast, 0, 0});
    ch.put_bit(true);
    ch.close();
    api.set_alarm(3);
  }
  void on_round(NodeApi& api) override {
    seen.emplace_back(api.round(), api.arrived_kinds());
    if (api.round() == 8) api.set_done();
  }
  void on_crash(NodeApi& api) override {
    crashed_at = api.round();
    hook_masks |= api.arrived_kinds();
  }
  void on_recover(NodeApi& api) override {
    recovered_at = api.round();
    hook_masks |= api.arrived_kinds();
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> seen;
  std::uint32_t hook_masks = 0;  ///< on_start, on_crash and on_recover
  std::uint64_t crashed_at = 0;
  std::uint64_t recovered_at = 0;
};

TEST(Runtime, ArrivedKindsAreTheKindsDeliveredSinceTheLastCallback) {
  // A 4-leaf star whose centre is crashed in rounds [4, 7) and done from
  // round 8. Deliveries to the centre: kinds 2 and 9 in round 1, 31 in
  // round 2, nothing in round 3 (an alarm-only wake), kind 7 in rounds
  // 4-6 (silenced by the crash), nothing in round 7 (the recovery wake),
  // kinds 0 and 5 in round 8, and kind 12 in rounds 9 and 10, charged to
  // the done centre. Each wake must see exactly its round's kinds, and
  // after every round no node may hold a bit: a woken node's mask is
  // cleared once its callback returns, and a crashed or done node gets
  // none.
  const Graph g = testing::star_graph(4);
  const FaultPlan plan = parse_fault_plan(
      "crash_frac=0.5,crash_round=4,recover_after=3,fault_seed=96");
  {
    const FaultEngine schedule(plan, g.n(), 8, 5);
    ASSERT_EQ(schedule.crash_round(0), 4u);
    ASSERT_EQ(schedule.recover_round(0), 7u);
    for (NodeId v = 1; v <= 4; ++v) {
      ASSERT_EQ(schedule.crash_round(v), FaultEngine::kNever);
    }
  }
  const std::vector<std::vector<KindSender::Send>> sends = {
      {{0, 2}, {3, 7}, {4, 7}, {5, 7}, {8, 12}},
      {{0, 9}, {7, 5}},
      {{1, 31}, {9, 12}},
      {{7, 0}},
  };
  const auto bits = [](std::initializer_list<unsigned> kinds) {
    std::uint32_t m = 0;
    for (const unsigned k : kinds) m |= std::uint32_t{1} << k;
    return m;
  };
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> centre_wants = {
      {1, bits({2, 9})}, {2, bits({31})}, {3, 0}, {7, 0}, {8, bits({0, 5})}};
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    NetConfig cfg;
    cfg.seed = 5;
    cfg.threads = threads;
    cfg.faults = plan;
    Network net(g, cfg, [&](NodeId v) -> std::unique_ptr<INode> {
      if (v == 0) return std::make_unique<KindRecorder>();
      return std::make_unique<KindSender>(sends[v - 1]);
    });
    std::uint64_t rounds = 0;
    bool finished = false;
    while (!finished && rounds < 2 * KindSender::kLast) {
      finished = net.run_rounds(1);
      ++rounds;
      for (NodeId v = 0; v < g.n(); ++v) {
        EXPECT_EQ(NetworkTestPeek::arrived_kinds(net, v), 0u)
            << "node " << v << " after round " << rounds;
      }
    }
    EXPECT_TRUE(finished);
    EXPECT_EQ(net.stats().rounds, KindSender::kLast);
    EXPECT_EQ(net.stats().messages_dropped_crash, 3u);  // the kind-7 copies
    const auto& centre = static_cast<KindRecorder&>(net.node(0));
    EXPECT_EQ(centre.crashed_at, 4u);
    EXPECT_EQ(centre.recovered_at, 7u);
    EXPECT_EQ(centre.hook_masks, 0u);
    EXPECT_EQ(centre.seen, centre_wants);
    for (NodeId v = 1; v <= 4; ++v) {
      // Each leaf hears only the centre's round-1 broadcast; its other
      // wakes are alarm-only.
      const auto& leaf = static_cast<KindSender&>(net.node(v));
      ASSERT_FALSE(leaf.seen.empty());
      EXPECT_EQ(leaf.seen.front(),
                std::make_pair(std::uint64_t{1},
                               bits({KindRecorder::kBroadcast})));
      for (std::size_t i = 1; i < leaf.seen.size(); ++i) {
        EXPECT_EQ(leaf.seen[i].second, 0u)
            << "leaf " << v << " round " << leaf.seen[i].first;
      }
      EXPECT_EQ(leaf.seen.back().first, KindSender::kLast);
    }
  }
}

TEST(Runtime, TagWiderThanTheIdFieldIsRejected) {
  // The header charges id_width(n) bits for the tag, so a wider tag is
  // rejected before any link is touched, and the widest that fits is
  // delivered and charged like any other.
  const Graph g = testing::path_graph(5);
  const unsigned id_bits = id_width(g.n());  // 3 bits: tags 0..7
  const NodeId widest = (NodeId{1} << id_bits) - 1;
  class Tagger : public INode {
   public:
    explicit Tagger(NodeId widest) : widest_(widest) {}
    void on_start(NodeApi& api) override {
      EXPECT_THROW(
          (void)api.open_stream_all(StreamKey{kData, widest_ + 1, 0}),
          std::invalid_argument);
      auto ch = api.open_stream_all(StreamKey{kData, widest_, 0});
      ch.put_bit(true);
      ch.close();
    }
    void on_round(NodeApi& api) override {
      std::size_t streams = 0;
      api.for_each_in(kData, [&](std::size_t, const StreamKey& key,
                                 InStream& in) {
        EXPECT_EQ(key.tag, widest_);
        EXPECT_TRUE(in.closed());
        EXPECT_EQ(in.available(), 1u);
        ++streams;
      });
      EXPECT_EQ(streams, api.degree());
      api.set_done();
    }

   private:
    NodeId widest_;
  };
  NetConfig cfg;
  Network net(g, cfg,
              [&](NodeId) { return std::make_unique<Tagger>(widest); });
  const RunStats stats = net.run();
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(stats.messages, 2 * g.m());  // the accepted streams only
  EXPECT_EQ(stats.bits, stats.messages * (stream_header_bits(id_bits) + 1));
}

TEST(Runtime, MidRunExceptionPropagatesCleanlyAtEveryThreadCount) {
  // Regression for `nearclique run` exiting nonzero instead of aborting:
  // a protocol callback that throws mid-run (here at round 3) must surface
  // as an ordinary exception from Network::run() — including when the
  // callback runs on a pool worker — leave the Network destructible, and
  // leave the process healthy enough to build and run a fresh network.
  struct Boom {};  // deliberately NOT std::exception: the worst case
  class ThrowingNode : public INode {
   public:
    void on_start(NodeApi& api) override { api.set_alarm(1); }
    void on_round(NodeApi& api) override {
      if (api.round() >= 3) throw Boom{};
      api.set_alarm(api.round() + 1);
    }
  };
  const Graph g = testing::complete_graph(8);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    NetConfig cfg;
    cfg.threads = threads;
    {
      Network net(g, cfg,
                  [](NodeId) { return std::make_unique<ThrowingNode>(); });
      EXPECT_THROW(net.run(), Boom);
    }  // destruction after the throw must not hang or crash the pool
    // The runtime is reusable after the failure.
    Network ok(g, cfg, [](NodeId) { return std::make_unique<EchoNode>(4); });
    const auto stats = ok.run();
    EXPECT_FALSE(stats.stalled);
    EXPECT_GT(stats.messages, 0u);
  }
}

TEST(Runtime, OnStartRunsOnceForEveryNodeUnderSharding) {
  // on_start is dispatched shard-parallel since the fault-engine PR; every
  // node must still get exactly one call, and fixed-seed results must not
  // depend on the shard count (locked broadly by test_determinism; this is
  // the direct contract check).
  const Graph g = testing::complete_graph(32);
  for (const unsigned threads : {1u, 4u, 64u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    NetConfig cfg;
    cfg.threads = threads;
    cfg.bandwidth_factor = 16;
    std::vector<int> starts(g.n(), 0);
    class CountingStart : public EchoNode {
     public:
      CountingStart(int* slot) : EchoNode(2), slot_(slot) {}
      void on_start(NodeApi& api) override {
        ++*slot_;  // slot is this node's own entry: no cross-node sharing
        EchoNode::on_start(api);
      }
     private:
      int* slot_;
    };
    Network net(g, cfg, [&starts](NodeId v) {
      return std::make_unique<CountingStart>(&starts[v]);
    });
    const auto stats = net.run();
    EXPECT_FALSE(stats.stalled);
    for (NodeId v = 0; v < g.n(); ++v) EXPECT_EQ(starts[v], 1) << v;
  }
}

TEST(Runtime, ProfileAttributesStageAndDeliverAtEveryThreadCount) {
  // Every round stages into lanes, then delivers — with one shard as with
  // four, clean or lossy — so the profile books both phases and the lane
  // and arena peaks the same way at every thread count.
  Rng rng(7);
  PlantedNearCliqueParams pp;
  pp.n = 60;
  pp.clique_size = 24;
  pp.eps_missing = 0.0;
  pp.background_p = 0.08;
  pp.halo_p = 0.25;
  const Instance inst = planted_near_clique(pp, rng);
  for (const bool lossy : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(lossy ? "loss+ARQ" : "clean") +
                   " threads=" + std::to_string(threads));
      DriverConfig cfg;
      cfg.proto.eps = 0.2;
      cfg.proto.p = 0.08;
      cfg.net.seed = 3;
      cfg.net.max_rounds = 300'000;
      cfg.net.threads = threads;
      if (lossy) {
        cfg.net.faults = parse_fault_plan("loss=0.05,fault_seed=9");
        cfg.net.reliability = parse_reliability_plan(
            "rel_mode=1,rel_ack_timeout=2,rel_max_retx=6");
      }
      NetProfile prof;
      cfg.net.profile = &prof;
      const auto res = run_dist_near_clique(inst.graph, cfg);
      ASSERT_GT(res.stats.messages, 0u);
      EXPECT_GT(prof.stage_seconds, 0.0);
      EXPECT_GT(prof.deliver_seconds, 0.0);
      EXPECT_GT(prof.wake_seconds, 0.0);
      EXPECT_EQ(prof.fused_seconds, 0.0);
      EXPECT_GT(prof.lane_msgs_peak, 0u);
      EXPECT_GT(prof.arena_bytes_total, 0u);
      // Every copy is staged as a record of its own: nothing is saved.
      EXPECT_EQ(prof.broadcast_payload_bytes_saved, 0u);
    }
  }
}

TEST(Runtime, ProfileJsonHasEveryFieldInOrder) {
  // The `profile` object of `nearclique run --profile --json`: one key per
  // NetProfile field in declaration order, fused_seconds included.
  NetProfile prof;
  prof.deliver_seconds = 0.5;
  prof.done_copies = 7;
  JsonWriter w;
  prof.to_json(w);
  const JsonValue doc = parse_json(w.str());
  ASSERT_TRUE(doc.is_object());
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "stage_seconds", "deliver_seconds", "fused_seconds",
                      "wake_seconds", "arena_bytes_total",
                      "arena_bytes_peak_shard", "lane_msgs_peak",
                      "delayed_msgs_peak", "broadcast_payload_bytes_saved",
                      "done_copies", "inbox_bytes_carved", "inbox_bytes_live",
                      "link_bytes_carved", "link_bytes_live"}));
  EXPECT_EQ(doc.find("deliver_seconds")->number, 0.5);
  EXPECT_EQ(doc.find("done_copies")->number, 7.0);
  EXPECT_EQ(doc.find("fused_seconds")->number, 0.0);
}

std::string stats_json(const RunStats& stats) {
  JsonWriter w;
  stats.to_json(w);
  return w.str();
}

/// Centre of the star in DeliveriesToDoneNodesAreChargedNotStored: on its
/// first wake-up it calls set_done, then reads what arrived.
class DoneSink : public INode {
 public:
  void on_start(NodeApi&) override {}
  void on_round(NodeApi& api) override {
    ++wakeups;
    api.set_done();
    for (std::size_t ni = 0; ni < api.degree(); ++ni) {
      const InStream* in =
          api.find_in(ni, StreamKey{kData, api.neighbors()[ni], 0});
      if (in != nullptr && in->available() == 1) ++seen_after_done;
    }
  }
  int wakeups = 0;
  std::size_t seen_after_done = 0;
};

/// Leaf of that star: one 8-bit symbol to the centre from on_start and
/// from each of rounds 1..kLast, closing in round kLast, so the centre
/// gets one message a round in rounds 1..kLast+1. Done at kLast + kSlack,
/// long after any retransmission has landed.
class ChattyLeaf : public INode {
 public:
  static constexpr std::uint64_t kLast = 6;
  static constexpr std::uint64_t kSlack = 40;

  void on_start(NodeApi& api) override {
    out_ = api.open_stream_one(StreamKey{kData, api.id(), 0}, 0);
    out_.put(0, 8);
    api.set_alarm(1);
  }
  void on_round(NodeApi& api) override {
    const std::uint64_t r = api.round();
    if (r > kLast) {
      api.set_done();
      return;
    }
    out_.put(r, 8);
    if (r == kLast) out_.close();
    api.set_alarm(r == kLast ? kLast + kSlack : r + 1);
  }

 private:
  OutChannel out_;
};

TEST(Runtime, DeliveriesToDoneNodesAreChargedNotStored) {
  // The centre is done after its first wake-up; the leaves keep sending to
  // it. Every later delivery is charged to RunStats like any other, but
  // nothing is stored: the centre's inbox is dropped once the callback that
  // set it done returns, and the leaves receive nothing, so no inbox byte
  // is live from then on. A copy staged once the centre is done never
  // enters a lane: the profile's done_copies counts those.
  constexpr NodeId kLeaves = 8;
  const Graph g = testing::star_graph(kLeaves);
  const std::uint64_t wire = stream_header_bits(id_width(g.n())) + 8;
  const std::uint64_t sent = kLeaves * (ChattyLeaf::kLast + 1);
  for (const bool lossy : {false, true}) {
    std::string first_stats;
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(lossy ? "loss+delay+ARQ" : "clean") +
                   " threads=" + std::to_string(threads));
      NetConfig cfg;
      cfg.bandwidth_factor = 16;
      cfg.seed = 5;
      cfg.threads = threads;
      if (lossy) {
        cfg.faults = parse_fault_plan("loss=0.1,delay_max=2,fault_seed=9");
        cfg.reliability = parse_reliability_plan(
            "rel_mode=1,rel_ack_timeout=2,rel_max_retx=6");
      }
      NetProfile prof;
      cfg.profile = &prof;
      Network net(g, cfg, [](NodeId v) -> std::unique_ptr<INode> {
        if (v == 0) return std::make_unique<DoneSink>();
        return std::make_unique<ChattyLeaf>();
      });
      net.run_rounds(3);
      EXPECT_GT(net.stats().messages, 0u);
      EXPECT_GT(prof.inbox_bytes_carved, 0u);
      EXPECT_EQ(prof.inbox_bytes_live, 0u);
      const RunStats stats = net.run();
      const auto& sink = static_cast<DoneSink&>(net.node(0));
      EXPECT_EQ(sink.wakeups, 1);
      // find_in after set_done, in the same callback, still sees the mail.
      if (lossy) {
        EXPECT_GE(sink.seen_after_done, 1u);
      } else {
        EXPECT_EQ(sink.seen_after_done, std::size_t{kLeaves});
      }
      EXPECT_FALSE(stats.stalled);
      EXPECT_FALSE(stats.hit_round_limit);
      EXPECT_EQ(stats.rounds, ChattyLeaf::kLast + ChattyLeaf::kSlack);
      EXPECT_EQ(stats.messages, sent);
      EXPECT_EQ(stats.messages_lost, 0u);
      EXPECT_EQ(stats.max_message_bits, wire);
      if (lossy) {
        // The fault and ARQ counters of this seed, which do not depend on
        // whether a done node's mail is stored: resent copies add data
        // bits, and the ACKs are charged to their own control kind.
        EXPECT_EQ(stats.messages_delayed, 37u);
        EXPECT_EQ(stats.messages_retransmitted, 18u);
        EXPECT_EQ(stats.acks_sent, 67u);
        EXPECT_EQ(stats.bits_by_kind[kData], (sent + 11) * wire);
        EXPECT_EQ(stats.bits, 2258u);
        // Every copy staged from round 2 on is accounted for at stage
        // time, a lost one that ARQ recovers included: the centre woke,
        // and finished, in round 1.
        EXPECT_EQ(prof.done_copies, sent - kLeaves);
      } else {
        EXPECT_EQ(stats.bits, sent * wire);
        EXPECT_EQ(stats.bits_by_kind[kData], stats.bits);
        EXPECT_EQ(stats.messages_delayed, 0u);
        // The centre is done after round 1, so each leaf's copies of
        // rounds 2..kLast+1 never enter a lane.
        EXPECT_EQ(prof.done_copies, sent - kLeaves);
      }
      EXPECT_EQ(prof.inbox_bytes_live, 0u);
      EXPECT_EQ(prof.link_bytes_live, 0u);
      // Bit-identical at every thread count.
      if (first_stats.empty()) {
        first_stats = stats_json(stats);
      } else {
        EXPECT_EQ(stats_json(stats), first_stats);
      }
    }
  }
}

/// What DoneCopiesInFlightKeepTheirDueRoundAndCrashVerdict reads after each
/// round: RunStats' messages and messages_dropped_crash, and the stall
/// report's in-flight delayed copies.
struct RoundCounters {
  std::uint64_t messages;
  std::uint64_t dropped_crash;
  std::uint64_t in_flight;
  bool operator==(const RoundCounters&) const = default;
};

TEST(Runtime, DoneCopiesInFlightKeepTheirDueRoundAndCrashVerdict) {
  // The centre of a 4-leaf star is crashed in rounds [4, 7); the leaves
  // send to it in rounds 1..7 with up to 3 rounds of delay. Its first mail
  // lands in round 2, when it sets done, so from round 3 on every delayed
  // copy to it is tallied by its sender's shard under its due round:
  // silenced if the centre is crashed then, charged otherwise. The counters
  // must advance in the same rounds, by the same amounts, as when each such
  // copy travelled to its due round like any delayed copy — the values
  // below, which the engine produced that way — and the stall report must
  // count the tallied copies as in flight. Copies staged in rounds 1 and 2
  // wait as copies and are due by round 5, so the copies in flight after
  // rounds 7..9 are all tallies.
  constexpr NodeId kLeaves = 4;
  const Graph g = testing::star_graph(kLeaves);
  const FaultPlan plan = parse_fault_plan(
      "delay_max=3,crash_frac=0.5,crash_round=4,recover_after=3,"
      "fault_seed=96");
  {
    const FaultEngine schedule(plan, g.n(), 2 * kLeaves, 5);
    ASSERT_EQ(schedule.crash_round(0), 4u);
    ASSERT_EQ(schedule.recover_round(0), 7u);
    for (NodeId v = 1; v <= kLeaves; ++v) {
      ASSERT_EQ(schedule.crash_round(v), FaultEngine::kNever);
    }
  }
  const std::vector<RoundCounters> kPinned = {
      {0, 0, 4},  {1, 0, 7},  {3, 0, 9},  {3, 11, 2}, {3, 17, 0}, {3, 21, 0},
      {3, 21, 4}, {4, 21, 3}, {6, 21, 1}, {7, 21, 0}, {7, 21, 0}, {7, 21, 0},
  };
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    NetConfig cfg;
    cfg.bandwidth_factor = 16;
    cfg.seed = 5;
    cfg.threads = threads;
    cfg.faults = plan;
    NetProfile prof;
    cfg.profile = &prof;
    Network net(g, cfg, [](NodeId v) -> std::unique_ptr<INode> {
      if (v == 0) return std::make_unique<DoneSink>();
      return std::make_unique<ChattyLeaf>();
    });
    std::vector<RoundCounters> seen;
    for (std::size_t r = 0; r < kPinned.size(); ++r) {
      net.run_rounds(1);
      seen.push_back(RoundCounters{net.stats().messages,
                                   net.stats().messages_dropped_crash,
                                   net.stall_report().delayed_in_flight});
    }
    EXPECT_EQ(seen, kPinned);
    EXPECT_EQ(static_cast<DoneSink&>(net.node(0)).wakeups, 1);
    const RunStats stats = net.run();
    EXPECT_FALSE(stats.stalled);
    EXPECT_EQ(stats.rounds, ChattyLeaf::kLast + ChattyLeaf::kSlack);
    EXPECT_EQ(stats.messages, kPinned.back().messages);
    EXPECT_EQ(stats.messages_dropped_crash, kPinned.back().dropped_crash);
    EXPECT_EQ(stats.crash_events, 1u);
    // The copies staged in rounds 3 and 7; those of rounds 4..6 are
    // silenced at stage time, since the centre is crashed then.
    EXPECT_EQ(prof.done_copies, 2 * kLeaves);
  }
}

/// Sender of FecReleaseNeverWakesACrashedNode: one 4-bit symbol a round on
/// a stream to its only neighbour, opened in on_start, through round 40.
class FecTicker : public INode {
 public:
  static constexpr std::uint64_t kLast = 40;
  void on_start(NodeApi& api) override {
    out_ = api.open_stream_one(StreamKey{kData, api.id(), 0}, 0);
    out_.put(0, 4);
    api.set_alarm(1);
  }
  void on_round(NodeApi& api) override {
    const std::uint64_t r = api.round();
    out_.put(r % 16, 4);
    if (r == kLast) {
      out_.close();
      api.set_done();
      return;
    }
    api.set_alarm(r + 1);
  }

 private:
  OutChannel out_;
};

/// Listener of that test: records the rounds it is woken in and its churn
/// hooks' rounds.
class WakeRecorder : public INode {
 public:
  void on_start(NodeApi&) override {}
  void on_round(NodeApi& api) override { woken.push_back(api.round()); }
  void on_crash(NodeApi& api) override { crashed_at = api.round(); }
  void on_recover(NodeApi& api) override { recovered_at = api.round(); }
  std::vector<std::uint64_t> woken;
  std::uint64_t crashed_at = 0;
  std::uint64_t recovered_at = 0;
};

TEST(Runtime, FecReleaseNeverWakesACrashedNode) {
  // A 2-node path under FEC and churn: the listener crashes in round 12
  // and recovers in round 22, while an FEC window of the sender's stream is
  // released at the top of round 13. A row released for the current round
  // must be silenced like any copy arriving at a crashed host, not applied:
  // INode::on_crash promises no on_round inside the window.
  const Graph g = testing::path_graph(2);
  std::string first_stats;
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    NetConfig cfg;
    cfg.bandwidth_factor = 16;
    cfg.seed = 5;
    cfg.threads = threads;
    cfg.faults = parse_fault_plan(
        "loss=0.3,crash_frac=0.5,crash_round=12,recover_after=10,"
        "fault_seed=335");
    cfg.reliability =
        parse_reliability_plan("rel_mode=2,rel_fec_window=4,rel_fec_repair=1");
    Network net(g, cfg, [](NodeId v) -> std::unique_ptr<INode> {
      if (v == 0) return std::make_unique<FecTicker>();
      return std::make_unique<WakeRecorder>();
    });
    const RunStats stats = net.run();
    const auto& listener = static_cast<WakeRecorder&>(net.node(1));
    ASSERT_EQ(listener.crashed_at, 12u);
    ASSERT_EQ(listener.recovered_at, 22u);
    EXPECT_FALSE(listener.woken.empty());
    for (const std::uint64_t r : listener.woken) {
      EXPECT_FALSE(r >= 12 && r < 22) << "woken in round " << r;
    }
    // Two rows released in round 13 are silenced; the engine used to
    // deliver them (27 messages, 10 crash-silenced) and wake the listener.
    EXPECT_EQ(stats.messages, 25u);
    EXPECT_EQ(stats.messages_dropped_crash, 12u);
    EXPECT_EQ(stats.messages_lost, 4u);
    EXPECT_EQ(stats.fec_repairs, 8u);
    if (first_stats.empty()) {
      first_stats = stats_json(stats);
    } else {
      EXPECT_EQ(stats_json(stats), first_stats);
    }
  }
}

TEST(Runtime, LiveInboxBytesOfAPlantedRunArePinned) {
  // Live inbox bytes of the CI profile smoke's instance after rounds 2 and
  // 3: the streams the nodes can still read. Round 2 delivers only the
  // kSampled bits, which every node retires as soon as it has read them,
  // so nothing is live after it; round 3 brings the election and
  // participation streams: 2,063 streams in 239 live buckets of 1 to 31
  // entries. Each bucket is created in round 3's sorted deliver phase,
  // sized once for its kind's copies at the tightest slot class — 2,152
  // entries over the 239 buckets (2,755 at power-of-two sizes) — or, when
  // its shard has no free slot of that class but one of the next class
  // up, in that one. Live bytes are the slots' class sizes times one
  // 8-byte key and one 16-byte stream each. Which buckets get the next
  // class up depends on the shard's free lists, so the sum is read back
  // per bucket. A node's whole inbox goes when it is done, so live bytes
  // are 0 once every node is done.
  static_assert(sizeof(InboxKey) + sizeof(InStream) == 24);
  const Instance inst = ScenarioRegistry::global().make(ScenarioSpec{
      "planted_near_clique",
      ScenarioParams().with("n", 300).with("clique_size", 40), 3});
  ProtocolParams proto;
  proto.eps = 0.2;
  proto.p = 9.0 / static_cast<double>(inst.graph.n());
  NetConfig cfg;
  cfg.seed = 3;
  cfg.max_rounds = 32'000'000;
  const Schedule schedule =
      make_schedule(proto, inst.graph.n(), cfg.max_rounds);
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    NetProfile prof;
    cfg.profile = &prof;
    cfg.threads = threads;
    Network net(inst.graph, cfg, [&](NodeId) {
      return std::make_unique<DistNearCliqueNode>(proto, schedule);
    });
    net.run_rounds(2);
    EXPECT_EQ(prof.inbox_bytes_live, 0u) << "after round 2";
    net.run_rounds(1);
    std::size_t buckets = 0;
    std::size_t streams = 0;
    std::size_t tight = 0;
    std::size_t held = 0;
    for (NodeId v = 0; v < inst.graph.n(); ++v) {
      for (const auto& [size, capacity] : NetworkTestPeek::inbox_buckets(net, v)) {
        held += capacity;
        if (size == 0) {
          EXPECT_EQ(capacity, 0u) << "an empty bucket holds a slot";
          continue;
        }
        const unsigned cls = slot_class_for(size);
        ++buckets;
        streams += size;
        tight += slot_class_size(cls);
        EXPECT_TRUE(capacity == slot_class_size(cls) ||
                    capacity == slot_class_size(cls + 1))
            << "node " << v << ": " << size << " streams in a slot of "
            << capacity;
      }
    }
    EXPECT_EQ(buckets, 239u);
    EXPECT_EQ(streams, 2'063u);
    EXPECT_EQ(tight, 2'152u);
    EXPECT_EQ(prof.inbox_bytes_live, held * 24) << "after round 3";
    const RunStats stats = net.run();
    EXPECT_TRUE(net.all_done());
    EXPECT_FALSE(stats.stalled);
    EXPECT_EQ(prof.inbox_bytes_live, 0u);
    EXPECT_EQ(prof.link_bytes_live, 0u);
  }
}

TEST(Runtime, RunStatsEqualityCoversEveryField) {
  RunStats a;
  a.rounds = 15;
  a.bits = 150;
  a.bits_by_kind[1] = 130;
  RunStats b = a;
  EXPECT_TRUE(a == b);
  b.bits_by_kind[2] = 1;
  EXPECT_FALSE(a == b);
  b = a;
  b.hit_round_limit = true;
  EXPECT_FALSE(a == b);
  b = a;
  b.fec_repairs = 1;
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.summary().find("rounds=15"), std::string::npos);
}

}  // namespace
}  // namespace nc
