// Fault & adversity engine coverage (src/runtime/faults.{hpp,cpp} and its
// integration into the sharded delivery pipeline):
//  - plan parsing/validation through the shared param-bag machinery;
//  - statistical checks: iid marginal loss rate, the Gilbert–Elliott
//    marginal (pi_bad * loss_bad + pi_good * loss_good), GE burstiness and
//    the lazy closed-form advance's cadence independence;
//  - runtime semantics: loss preserves scheduling cadence, delay preserves
//    FIFO stream contents, churn fires on_crash/on_recover and silences
//    links, permanent crashes still let the execution terminate;
//  - the determinism suite: fixed-seed faulty protocol runs bit-identical
//    at threads in {1, 2, 4, 64}, plus exact goldens for one lossy and one
//    churn scenario (the faulty counterpart of test_determinism.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/driver.hpp"
#include "graph/generators.hpp"
#include "runtime/faults.hpp"
#include "runtime/network.hpp"
#include "runtime/reliability.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace nc {
namespace {

constexpr std::uint16_t kData = 1;

// ---------------------------------------------------------------------------
// FaultPlan parsing and validation
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesCsvAndValidates) {
  const FaultPlan plan =
      parse_fault_plan("loss=0.05,delay_max=3,crash_frac=0.01");
  EXPECT_DOUBLE_EQ(plan.loss, 0.05);
  EXPECT_EQ(plan.delay_min, 0u);
  EXPECT_EQ(plan.delay_max, 3u);
  EXPECT_DOUBLE_EQ(plan.crash_frac, 0.01);
  EXPECT_TRUE(plan.any());
  EXPECT_FALSE(FaultPlan{}.any());

  EXPECT_THROW((void)parse_fault_plan("loss=1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("no_such_knob=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("delay_min=4,delay_max=2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("ge_p=0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("crash_frac=0.1,crash_round=0"),
               std::invalid_argument);
}

TEST(FaultPlan, DefaultsDeclareEveryKey) {
  const auto& defaults = fault_param_defaults();
  for (const char* key :
       {"loss", "ge_p", "ge_r", "ge_loss_good", "ge_loss_bad", "delay_min",
        "delay_max", "crash_frac", "crash_round", "recover_after",
        "fault_seed"}) {
    EXPECT_TRUE(defaults.has_number(key)) << key;
  }
  // The all-defaults plan is the clean network.
  EXPECT_FALSE(fault_plan_from_params(defaults).any());
}

TEST(FaultHash, IsAPureKeyedFunction) {
  const std::uint64_t a = fault_mix(1, 2, 3, 4, 5);
  EXPECT_EQ(a, fault_mix(1, 2, 3, 4, 5));
  EXPECT_NE(a, fault_mix(2, 2, 3, 4, 5));  // seed
  EXPECT_NE(a, fault_mix(1, 9, 3, 4, 5));  // salt
  EXPECT_NE(a, fault_mix(1, 2, 9, 4, 5));  // round
  EXPECT_NE(a, fault_mix(1, 2, 3, 9, 5));  // src
  EXPECT_NE(a, fault_mix(1, 2, 3, 4, 9));  // dst
  const double u = fault_uniform(7, 7, 7, 7, 7);
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
}

// ---------------------------------------------------------------------------
// Statistical checks (fixed seeds; generous tolerances)
// ---------------------------------------------------------------------------

TEST(FaultStats, IidLossMarginal) {
  FaultPlan plan;
  plan.loss = 0.1;
  plan.fault_seed = 11;
  FaultEngine engine(plan, /*n=*/2, /*directed_edges=*/2, /*net_seed=*/1);
  std::size_t lost = 0;
  const std::size_t trials = 200'000;
  for (std::size_t r = 1; r <= trials; ++r) {
    lost += engine.lose(/*edge=*/0, /*src=*/0, /*dst=*/1, r);
  }
  const double rate = static_cast<double>(lost) / trials;
  EXPECT_NEAR(rate, 0.1, 0.005);
}

TEST(FaultStats, GilbertElliottMarginalLossRate) {
  // pi_bad = p / (p + r) = 0.05 / 0.25 = 0.2; with loss_bad = 1 and
  // loss_good = 0 the marginal loss rate equals pi_bad.
  FaultPlan plan;
  plan.ge_p = 0.05;
  plan.ge_r = 0.2;
  plan.ge_loss_bad = 1.0;
  plan.ge_loss_good = 0.0;
  plan.fault_seed = 5;
  FaultEngine engine(plan, 2, 2, 1);
  EXPECT_DOUBLE_EQ(engine.ge_stationary_bad(), 0.2);

  std::size_t lost = 0;
  std::size_t runs = 0;  // maximal stretches of consecutive losses
  bool prev = false;
  const std::size_t trials = 300'000;
  for (std::size_t r = 1; r <= trials; ++r) {
    const bool l = engine.lose(0, 0, 1, r);
    lost += l;
    runs += (l && !prev);
    prev = l;
  }
  const double rate = static_cast<double>(lost) / trials;
  EXPECT_NEAR(rate, 0.2, 0.01);
  // Burstiness: mean loss-run length is 1/ge_r = 5 for the chain, vs
  // 1/(1 - rate) = 1.25 for iid loss at the same marginal.
  const double mean_run = static_cast<double>(lost) / runs;
  EXPECT_GT(mean_run, 3.0);
  EXPECT_LT(mean_run, 7.0);
}

TEST(FaultStats, GilbertElliottLazyAdvanceIsCadenceIndependent) {
  // Evaluating the chain only every 13th round must leave the marginal at
  // the stationary rate — the closed-form advance is exact for any gap.
  FaultPlan plan;
  plan.ge_p = 0.1;
  plan.ge_r = 0.3;
  plan.fault_seed = 21;
  FaultEngine engine(plan, 2, 2, 1);
  std::size_t lost = 0;
  std::size_t evals = 0;
  for (std::size_t r = 1; r < 13 * 100'000; r += 13) {
    lost += engine.lose(0, 0, 1, r);
    ++evals;
  }
  const double rate = static_cast<double>(lost) / evals;
  EXPECT_NEAR(rate, 0.25, 0.01);  // pi_bad = 0.1 / 0.4, loss_bad = 1
}

TEST(FaultStats, CrashScheduleMatchesFraction) {
  FaultPlan plan;
  plan.crash_frac = 0.3;
  plan.crash_round = 7;
  plan.recover_after = 5;
  plan.fault_seed = 3;
  const NodeId n = 4000;
  FaultEngine engine(plan, n, 0, 1);
  NodeId crashed = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (engine.crash_round(v) != FaultEngine::kNever) {
      ++crashed;
      EXPECT_EQ(engine.crash_round(v), 7u);
      EXPECT_EQ(engine.recover_round(v), 12u);
      EXPECT_FALSE(engine.crashed_at(v, 6));
      EXPECT_TRUE(engine.crashed_at(v, 7));
      EXPECT_TRUE(engine.crashed_at(v, 11));
      EXPECT_FALSE(engine.crashed_at(v, 12));
    }
  }
  EXPECT_NEAR(static_cast<double>(crashed) / n, 0.3, 0.03);
}

TEST(FaultStats, LossHookTargetsDirectedEdges) {
  // The keyed hook is a per-direction overlay: probability 1 on 0->1 makes
  // that direction always lose while 1->0 and every other pair stay clean,
  // and a fractional hook composes with the iid model as independent loss.
  FaultPlan plan;
  plan.loss_hook = [](NodeId src, NodeId dst) {
    return src == 0 && dst == 1 ? 1.0 : 0.0;
  };
  EXPECT_TRUE(plan.any());  // the hook alone activates the engine
  FaultEngine engine(plan, 3, 4, 1);
  for (std::uint64_t r = 1; r <= 50; ++r) {
    EXPECT_TRUE(engine.lose(0, 0, 1, r));
    EXPECT_FALSE(engine.lose(1, 1, 0, r));
    EXPECT_FALSE(engine.lose(2, 1, 2, r));
  }

  FaultPlan mixed;
  mixed.loss = 0.1;
  mixed.fault_seed = 5;
  mixed.loss_hook = [](NodeId, NodeId) { return 0.2; };
  FaultEngine mixed_engine(mixed, 2, 2, 1);
  std::size_t lost = 0;
  const std::size_t trials = 200'000;
  for (std::size_t r = 1; r <= trials; ++r) {
    lost += mixed_engine.lose(0, 0, 1, r);
  }
  // Independent composition: 1 - 0.9 * 0.8 = 0.28.
  EXPECT_NEAR(static_cast<double>(lost) / trials, 0.28, 0.01);
}

// ---------------------------------------------------------------------------
// Runtime semantics
// ---------------------------------------------------------------------------

/// Streams `symbols` 8-bit symbols to every neighbour in on_start, records
/// everything received, finishes on an alarm (so lossy runs terminate
/// deterministically instead of waiting for traffic that never arrives).
class AlarmedChatter : public INode {
 public:
  AlarmedChatter(std::size_t symbols, std::uint64_t done_round)
      : symbols_(symbols), done_round_(done_round) {}

  void on_start(NodeApi& api) override {
    auto ch = api.open_stream_all(StreamKey{kData, api.id(), 0});
    for (std::size_t i = 0; i < symbols_; ++i) ch.put(i & 0xffu, 8);
    ch.close();
    received_.resize(api.degree());
    api.set_alarm(done_round_);
  }

  void on_round(NodeApi& api) override {
    for (std::size_t ni = 0; ni < api.degree(); ++ni) {
      const NodeId from = api.neighbors()[ni];
      InStream* in = api.find_in(ni, StreamKey{kData, from, 0});
      if (in == nullptr) continue;
      while (in->available() > 0) received_[ni].push_back(in->pop());
    }
    if (api.round() >= done_round_) {
      api.set_done();
    } else {
      api.set_alarm(done_round_);
    }
  }

  /// Symbols received, per neighbour index, in arrival order.
  std::vector<std::vector<std::uint64_t>> received_;

 private:
  std::size_t symbols_;
  std::uint64_t done_round_;
};

TEST(FaultRuntime, LossPreservesSchedulingCadence) {
  // Lost messages are consumed from the link exactly like delivered ones
  // (sent-and-lost), so delivered + lost equals the clean run's count and
  // the active-link schedule is untouched.
  const Graph g = testing::complete_graph(6);
  const auto run_with = [&](double loss) {
    NetConfig cfg;
    cfg.bandwidth_factor = 16;
    cfg.seed = 9;
    cfg.faults.loss = loss;
    Network net(g, cfg, [](NodeId) {
      return std::make_unique<AlarmedChatter>(40, 80);
    });
    return net.run();
  };
  const RunStats clean = run_with(0.0);
  const RunStats lossy = run_with(0.25);
  EXPECT_EQ(clean.messages_lost, 0u);
  EXPECT_GT(lossy.messages_lost, 0u);
  EXPECT_EQ(lossy.messages + lossy.messages_lost, clean.messages);
  EXPECT_LT(lossy.bits, clean.bits);
}

TEST(FaultRuntime, DelayPreservesFifoStreamContents) {
  // Jittered per-message delay must never reorder a link's stream: every
  // receiver sees exactly each neighbour's sent symbol sequence, just later.
  // Two delay plans: [1, 5] floors most messages behind an earlier one's
  // arrival, and [0, 1] often lands a delayed message and the next,
  // on-time one of the same stream in one round, where the deliver phase
  // must apply the held copy first. Two lossy plans protected by the
  // reliability service add the copies that wait for a recovery: ARQ
  // resends a lost message and FEC releases a blocked window, each into
  // the sender's in-flight bucket of its due round, which the same
  // stream's delayed and on-time copies often share. Their budgets are
  // sized like ReliabilityProp's, so every symbol still arrives. A LOCAL
  // run drains each whole stream as one message, delayed like any other.
  // deliver_shard applies a round one of two ways (its span/8 rule), and
  // each graph keeps every round on one side of that rule, at every thread
  // count:
  //  - K8: every node broadcasts to all 7 neighbours and a shard spans at
  //    most 8 nodes, so any round that delivers anything has
  //    copies * 8 >= 8 >= span. Nearly every such round interleaves
  //    different nodes' copies and is sorted by destination first (only
  //    a few tail rounds, whose copies already sit together by node, are
  //    applied in walk order).
  //  - a 2-node path padded with 1022 isolated nodes: the partition weighs
  //    degree + 1, so both path nodes sit in shard 0, which spans at least
  //    255 nodes at 4 threads. Each direction has one stream, and a round
  //    delivers at most the few messages of it that fall due together
  //    (a delay window, a resend schedule or a released FEC window), so
  //    copies * 8 < span, and every round is applied in walk order.
  const auto padded_path = [] {
    GraphBuilder b(1024);
    b.add_edge(0, 1);
    return b.build();
  };
  struct Plan {
    const char* name;
    FaultPlan faults;
    ReliabilityPlan rel;
    NetConfig::Mode mode = NetConfig::Mode::kCongest;
  };
  std::vector<Plan> plans;
  for (const auto& [delay_min, delay_max] :
       {std::pair{1u, 5u}, std::pair{0u, 1u}}) {
    Plan p{delay_min == 0 ? "delay [0, 1]" : "delay [1, 5]", {}, {}};
    p.faults.delay_min = delay_min;
    p.faults.delay_max = delay_max;
    plans.push_back(p);
  }
  {
    Plan arq{"loss 0.05 + delay [0, 1] + ARQ", {}, {}};
    arq.faults = parse_fault_plan("loss=0.05,delay_max=1,fault_seed=17");
    arq.rel =
        parse_reliability_plan("rel_mode=1,rel_ack_timeout=1,rel_max_retx=12");
    plans.push_back(arq);
    Plan fec{"loss 0.05 + delay [0, 1] + FEC", {}, {}};
    fec.faults = parse_fault_plan("loss=0.05,delay_max=1,fault_seed=18");
    fec.rel =
        parse_reliability_plan("rel_mode=2,rel_fec_window=3,rel_fec_repair=8");
    plans.push_back(fec);
    Plan local{"LOCAL, delay [1, 5]", plans[0].faults, {}};
    local.mode = NetConfig::Mode::kLocal;
    plans.push_back(local);
  }
  constexpr std::size_t kSymbols = 600;
  for (const Graph& g : {testing::complete_graph(8), padded_path()}) {
    for (const Plan& plan : plans) {
      RunStats base;
      for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "n=" << g.n() << " " << plan.name
                                          << " threads=" << threads);
        NetConfig cfg;
        cfg.mode = plan.mode;
        cfg.bandwidth_factor = 16;
        cfg.threads = threads;
        cfg.faults = plan.faults;
        cfg.reliability = plan.rel;
        Network net(g, cfg, [&](NodeId) {
          return std::make_unique<AlarmedChatter>(kSymbols, 800);
        });
        const RunStats stats = net.run();
        EXPECT_GT(stats.messages_delayed, 0u);
        EXPECT_EQ(stats.messages_lost, 0u);
        if (plan.faults.delay_min == 0) {
          EXPECT_LT(stats.messages_delayed, stats.messages);
        }
        if (plan.rel.mode == ReliabilityPlan::Mode::kAck) {
          EXPECT_GT(stats.messages_retransmitted, 0u);
        }
        if (plan.rel.mode == ReliabilityPlan::Mode::kFec) {
          EXPECT_GT(stats.fec_repairs, 0u);
        }
        for (NodeId v = 0; v < g.n(); ++v) {
          const auto& received =
              static_cast<AlarmedChatter&>(net.node(v)).received_;
          ASSERT_EQ(received.size(), g.degree(v));
          for (std::size_t ni = 0; ni < received.size(); ++ni) {
            ASSERT_EQ(received[ni].size(), kSymbols)
                << "node " << v << " ni " << ni;
            for (std::size_t i = 0; i < kSymbols; ++i) {
              EXPECT_EQ(received[ni][i], i & 0xffu)
                  << "node " << v << " ni " << ni << " symbol " << i;
            }
          }
        }
        if (threads == 1) {
          base = stats;
        } else {
          EXPECT_EQ(stats, base);
        }
      }
    }
  }
}

TEST(FaultRuntime, DelayedTrafficKeepsTheNetworkAlive) {
  // A message in flight is pending traffic: the network must not stall (or
  // fast-forward past the arrival) while the last delayed message rides.
  const Graph g = testing::path_graph(2);
  class OneShotSender : public INode {
   public:
    void on_start(NodeApi& api) override {
      if (api.id() == 0) {
        auto ch = api.open_stream_all(StreamKey{kData, 0, 0});
        ch.put(42, 8);
        ch.close();
      }
      api.set_done();  // sender finishes immediately; receiver undone
    }
    void on_round(NodeApi&) override {}
  };
  class Receiver : public INode {
   public:
    void on_start(NodeApi&) override {}
    void on_round(NodeApi& api) override {
      InStream* in = api.find_in(0, StreamKey{kData, 0, 0});
      if (in == nullptr) return;
      while (in->available() > 0) in->pop();
      if (in->finished()) {
        got_at_ = api.round();
        api.set_done();
      }
    }
    std::uint64_t got_at_ = 0;
  };
  NetConfig cfg;
  cfg.bandwidth_factor = 16;
  cfg.faults.delay_min = 7;
  cfg.faults.delay_max = 7;
  Network net(g, cfg, [](NodeId v) -> std::unique_ptr<INode> {
    if (v == 0) return std::make_unique<OneShotSender>();
    return std::make_unique<Receiver>();
  });
  const RunStats stats = net.run();
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(static_cast<Receiver&>(net.node(1)).got_at_, 8u);  // 1 + 7
}

TEST(FaultRuntime, InFlightMessageSurvivesSenderCrashButNotReceiverCrash) {
  // The documented churn asymmetry: a delayed message already in flight
  // when its sender crashes is delivered (it left before the crash), but
  // one falling due while its *receiver* is crashed arrives at a dead
  // host and is dropped. Node 0 sends to 1 and 2 in round 1 with a fixed
  // 5-round delay; 0 and 2 crash at round 3 (while the messages ride).
  const Graph g = testing::star_graph(2);  // 0 — 1, 0 — 2
  class Sender : public INode {
   public:
    void on_start(NodeApi& api) override {
      auto ch = api.open_stream_all(StreamKey{kData, 0, 0});
      ch.put(7, 8);
      ch.close();
      api.set_alarm(20);
    }
    void on_round(NodeApi& api) override {
      if (api.round() >= 20) api.set_done();
    }
  };
  class Listener : public INode {
   public:
    void on_start(NodeApi& api) override { api.set_alarm(20); }
    void on_round(NodeApi& api) override {
      InStream* in = api.find_in(0, StreamKey{kData, 0, 0});
      if (in != nullptr) {
        while (in->available() > 0) in->pop();
        if (in->finished()) got_ = true;
      }
      if (api.round() >= 20) api.set_done();
    }
    bool got_ = false;
  };
  NetConfig cfg;
  cfg.bandwidth_factor = 16;
  cfg.faults.delay_min = 5;
  cfg.faults.delay_max = 5;
  cfg.faults.crash_frac = 1.0;  // schedules every node...
  cfg.faults.crash_round = 3;
  cfg.faults.recover_after = 0;
  // ...then carve the exception: build an engine-equal plan where only
  // nodes 0 and 2 crash by probing fault seeds for that pattern.
  bool found = false;
  for (std::uint64_t fs = 1; fs < 200 && !found; ++fs) {
    FaultPlan probe = cfg.faults;
    probe.crash_frac = 0.67;
    probe.fault_seed = fs;
    const FaultEngine engine(probe, 3, 0, cfg.seed);
    if (engine.crash_round(0) == 3 && engine.crash_round(2) == 3 &&
        engine.crash_round(1) == FaultEngine::kNever) {
      cfg.faults = probe;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no fault seed produced the crash pattern";
  Network net(g, cfg, [](NodeId v) -> std::unique_ptr<INode> {
    if (v == 0) return std::make_unique<Sender>();
    return std::make_unique<Listener>();
  });
  const RunStats stats = net.run();
  // Node 1 (alive): the in-flight message from the crashed sender lands.
  EXPECT_TRUE(static_cast<Listener&>(net.node(1)).got_);
  // Node 2 (crashed at 3, in-flight due at 6): dropped on arrival.
  EXPECT_FALSE(static_cast<Listener&>(net.node(2)).got_);
  EXPECT_EQ(stats.messages_dropped_crash, 1u);
}

/// Records its crash/recover hook rounds and every on_round invocation.
class HookRecorder : public INode {
 public:
  void on_start(NodeApi& api) override { api.set_alarm(1); }
  void on_round(NodeApi& api) override {
    round_calls_.push_back(api.round());
    if (api.round() >= 40) {
      api.set_done();
    } else {
      api.set_alarm(api.round() + 1);
    }
  }
  void on_crash(NodeApi& api) override { crashed_at_.push_back(api.round()); }
  void on_recover(NodeApi& api) override {
    recovered_at_.push_back(api.round());
  }
  std::vector<std::uint64_t> round_calls_, crashed_at_, recovered_at_;
};

TEST(FaultRuntime, CrashRecoverFiresHooksAndSilencesTheWindow) {
  // crash_frac = 1: every node crashes at round 10 and recovers at 25. The
  // hooks fire exactly once at those rounds, no on_round runs inside the
  // window (alarms were cancelled), and the runtime's recovery wake lets
  // the nodes re-arm and finish.
  const Graph g = testing::cycle_graph(4);
  NetConfig cfg;
  cfg.faults.crash_frac = 1.0;
  cfg.faults.crash_round = 10;
  cfg.faults.recover_after = 15;
  Network net(g, cfg,
              [](NodeId) { return std::make_unique<HookRecorder>(); });
  const RunStats stats = net.run();
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(stats.crash_events, 4u);
  EXPECT_EQ(stats.recover_events, 4u);
  for (NodeId v = 0; v < 4; ++v) {
    auto& node = static_cast<HookRecorder&>(net.node(v));
    EXPECT_EQ(node.crashed_at_, (std::vector<std::uint64_t>{10}));
    EXPECT_EQ(node.recovered_at_, (std::vector<std::uint64_t>{25}));
    for (const std::uint64_t r : node.round_calls_) {
      EXPECT_TRUE(r < 10 || r >= 25) << "on_round inside crash window: " << r;
    }
    EXPECT_EQ(node.round_calls_.back(), 40u);  // finished after recovery
  }
}

TEST(FaultRuntime, PermanentCrashStillTerminates) {
  // A permanently crashed node counts as done: the run completes instead
  // of stalling on it, and traffic addressed to it is silenced.
  const Graph g = testing::complete_graph(4);
  NetConfig cfg;
  cfg.bandwidth_factor = 16;
  cfg.seed = 13;
  cfg.faults.crash_frac = 1.0;
  cfg.faults.crash_round = 3;
  Network net(g, cfg, [](NodeId) {
    return std::make_unique<AlarmedChatter>(64, 100);
  });
  const RunStats stats = net.run();
  EXPECT_FALSE(stats.stalled);
  EXPECT_FALSE(stats.hit_round_limit);
  EXPECT_EQ(stats.crash_events, 4u);
  EXPECT_EQ(stats.recover_events, 0u);
  EXPECT_GT(stats.messages_dropped_crash, 0u);
  // Rounds 1 and 2 delivered normally before the crash.
  EXPECT_GT(stats.messages, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: faulty fixed-seed runs are bit-identical at every thread
// count, and two scenarios are locked as exact goldens.
// ---------------------------------------------------------------------------

DriverConfig faulty_driver_config() {
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.12;
  cfg.proto.versions = 2;
  cfg.net.seed = 41;
  cfg.net.max_rounds = 100'000;
  return cfg;
}

TEST(FaultDeterminism, ThreadCountsAreBitIdenticalUnderFaults) {
  Rng rng(13);
  const auto inst = planted_partition(56, 4, 0.8, 0.06, rng);
  DriverConfig cfg = faulty_driver_config();
  cfg.net.faults = parse_fault_plan(
      "loss=0.02,ge_p=0.02,ge_r=0.2,delay_max=2,crash_frac=0.05,"
      "crash_round=9,recover_after=20");

  cfg.net.threads = 1;
  const auto serial = run_dist_near_clique(inst.graph, cfg);
  EXPECT_GT(serial.stats.messages_lost, 0u);
  EXPECT_GT(serial.stats.messages_delayed, 0u);
  for (const unsigned threads : {2u, 4u, 64u}) {
    cfg.net.threads = threads;
    const auto sharded = run_dist_near_clique(inst.graph, cfg);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(serial.stats.rounds, sharded.stats.rounds);
    EXPECT_EQ(serial.stats.messages, sharded.stats.messages);
    EXPECT_EQ(serial.stats.bits, sharded.stats.bits);
    EXPECT_EQ(serial.stats.max_message_bits, sharded.stats.max_message_bits);
    EXPECT_EQ(serial.stats.bits_by_kind, sharded.stats.bits_by_kind);
    EXPECT_EQ(serial.stats.messages_lost, sharded.stats.messages_lost);
    EXPECT_EQ(serial.stats.messages_delayed, sharded.stats.messages_delayed);
    EXPECT_EQ(serial.stats.messages_dropped_crash,
              sharded.stats.messages_dropped_crash);
    EXPECT_EQ(serial.stats.crash_events, sharded.stats.crash_events);
    EXPECT_EQ(serial.stats.recover_events, sharded.stats.recover_events);
    EXPECT_EQ(serial.labels, sharded.labels);
    EXPECT_EQ(serial.total_local_ops, sharded.total_local_ops);
  }
}

struct FaultGolden {
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t bits;
  std::uint64_t lost;
  std::uint64_t delayed;
  std::uint64_t dropped_crash;
  std::uint64_t crashes;
  std::uint64_t recoveries;
  std::uint64_t label_hash;
};

std::uint64_t label_hash(const std::vector<Label>& labels) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Label l : labels) {
    h ^= l;
    h *= 1099511628211ULL;
  }
  return h;
}

void expect_fault_golden(const FaultPlan& plan, const FaultGolden& want) {
  Rng rng(7);
  PlantedNearCliqueParams pp;
  pp.n = 60;
  pp.clique_size = 24;
  pp.background_p = 0.08;
  pp.halo_p = 0.25;
  const auto inst = planted_near_clique(pp, rng);
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.08;
  cfg.net.seed = 3;
  cfg.net.max_rounds = 50'000;
  cfg.net.faults = plan;
  for (const unsigned threads : {1u, 4u}) {
    cfg.net.threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto res = run_dist_near_clique(inst.graph, cfg);
    EXPECT_EQ(res.stats.rounds, want.rounds);
    EXPECT_EQ(res.stats.messages, want.messages);
    EXPECT_EQ(res.stats.bits, want.bits);
    EXPECT_EQ(res.stats.messages_lost, want.lost);
    EXPECT_EQ(res.stats.messages_delayed, want.delayed);
    EXPECT_EQ(res.stats.messages_dropped_crash, want.dropped_crash);
    EXPECT_EQ(res.stats.crash_events, want.crashes);
    EXPECT_EQ(res.stats.recover_events, want.recoveries);
    EXPECT_EQ(label_hash(res.labels), want.label_hash);
  }
}

TEST(FaultDeterminism, LossyScenarioGolden) {
  // loss + jittered delay on the 60-node planted instance: 4 messages lost,
  // a 4-node near-clique still survives (partial recovery — the labels are
  // not all bottom). Values recorded from the threads=1 run at the fault
  // engine's introduction; any change to decision keying, delay buckets or
  // accounting shows up here.
  expect_fault_golden(parse_fault_plan("loss=0.001,delay_max=1,fault_seed=3"),
                      FaultGolden{49497, 5718, 187129, 4, 2860, 0, 0, 0,
                                  12291321823258236471ULL});
}

struct RelGolden {
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t bits;
  std::uint64_t lost;
  std::uint64_t retx;
  std::uint64_t acks;
  std::uint64_t fec_repairs;
  std::uint64_t label_hash;
};

void expect_rel_golden(const FaultPlan& faults, const ReliabilityPlan& rel,
                       const RelGolden& want) {
  Rng rng(7);
  PlantedNearCliqueParams pp;
  pp.n = 60;
  pp.clique_size = 24;
  pp.background_p = 0.08;
  pp.halo_p = 0.25;
  const auto inst = planted_near_clique(pp, rng);
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.08;
  cfg.net.seed = 3;
  cfg.net.max_rounds = 50'000;
  cfg.net.faults = faults;
  cfg.net.reliability = rel;
  for (const unsigned threads : {1u, 4u}) {
    cfg.net.threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto res = run_dist_near_clique(inst.graph, cfg);
    EXPECT_EQ(res.stats.rounds, want.rounds);
    EXPECT_EQ(res.stats.messages, want.messages);
    EXPECT_EQ(res.stats.bits, want.bits);
    EXPECT_EQ(res.stats.messages_lost, want.lost);
    EXPECT_EQ(res.stats.messages_retransmitted, want.retx);
    EXPECT_EQ(res.stats.acks_sent, want.acks);
    EXPECT_EQ(res.stats.fec_repairs, want.fec_repairs);
    EXPECT_EQ(label_hash(res.labels), want.label_hash);
  }
}

TEST(FaultDeterminism, LossyArqScenarioGolden) {
  // The LossyScenarioGolden adversity (1e-3 iid loss + 1-round jitter) with
  // per-stream ARQ armed: every loss is retried back to delivery, the
  // labels match the *clean* golden hash, and the exact retransmit / ACK
  // counts pin the closed-form recovery accounting. Values recorded from
  // the threads=1 run at the reliability service's introduction.
  ReliabilityPlan rel;
  rel.mode = ReliabilityPlan::Mode::kAck;
  rel.ack_timeout = 1;
  rel.max_retx = 8;
  expect_rel_golden(parse_fault_plan("loss=0.001,delay_max=1,fault_seed=3"),
                    rel,
                    RelGolden{86, 7045, 359101, 0, 13, 7053, 0,
                              9160231386051612719ULL});
}

TEST(FaultDeterminism, LossyFecScenarioGolden) {
  // The same adversity under windowed FEC: blocked windows resolve with
  // exact repair-chunk counts and zero permanent losses.
  ReliabilityPlan rel;
  rel.mode = ReliabilityPlan::Mode::kFec;
  rel.fec_window = 3;
  rel.fec_repair = 8;
  expect_rel_golden(parse_fault_plan("loss=0.001,delay_max=1,fault_seed=3"),
                    rel,
                    RelGolden{87, 7045, 1344310, 0, 0, 0, 22896,
                              9160231386051612719ULL});
}

TEST(FaultDeterminism, ChurnScenarioGolden) {
  // 9 of 60 nodes crash at round 20 and recover at 45, silencing 453
  // messages mid-protocol; a 4-node near-clique still survives.
  expect_fault_golden(
      parse_fault_plan(
          "crash_frac=0.1,crash_round=20,recover_after=25,fault_seed=3"),
      FaultGolden{49493, 5245, 165954, 0, 0, 453, 9, 9,
                  12291321823258236471ULL});
}

}  // namespace
}  // namespace nc
