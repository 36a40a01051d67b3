// Reliability service coverage (src/runtime/reliability.{hpp,cpp} and its
// integration at the stage/deliver boundary):
//  - plan parsing/validation through the shared param-bag machinery, the
//    CONGEST-only contract, and the closed-form ARQ failure statistics;
//  - the property-based conformance suite: ~50 seeded random fault plans
//    (iid and Gilbert–Elliott loss x delay jitter x churn) on a small
//    planted instance. For every plan, the protected run is bit-identical
//    at threads in {1, 2, 4, 64} (stats, counters, labels); for non-churn
//    plans the service must additionally erase the adversity completely —
//    zero permanent losses and the clean run's labels bit-for-bit;
//  - adversarial fault placement via FaultPlan::loss_hook: concentrated
//    loss on the highest-degree nodes and on the planted-clique boundary
//    kills the bare protocol but not the protected one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
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

// ---------------------------------------------------------------------------
// ReliabilityPlan parsing and validation
// ---------------------------------------------------------------------------

TEST(ReliabilityPlan, ParsesCsvAndValidates) {
  const ReliabilityPlan arq =
      parse_reliability_plan("rel_mode=1,rel_ack_timeout=3,rel_max_retx=5");
  EXPECT_EQ(arq.mode, ReliabilityPlan::Mode::kAck);
  EXPECT_EQ(arq.ack_timeout, 3u);
  EXPECT_EQ(arq.max_retx, 5u);
  EXPECT_TRUE(arq.any());

  const ReliabilityPlan fec =
      parse_reliability_plan("rel_mode=2,rel_fec_window=8,rel_fec_repair=3");
  EXPECT_EQ(fec.mode, ReliabilityPlan::Mode::kFec);
  EXPECT_EQ(fec.fec_window, 8u);
  EXPECT_EQ(fec.fec_repair, 3u);

  EXPECT_FALSE(ReliabilityPlan{}.any());
  EXPECT_FALSE(parse_reliability_plan("rel_mode=0").any());
  EXPECT_THROW((void)parse_reliability_plan("rel_mode=3"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_reliability_plan("rel_mode=1,rel_ack_timeout=0"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_reliability_plan("rel_mode=1,rel_max_retx=0"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_reliability_plan("rel_mode=2,rel_fec_window=0"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_reliability_plan("no_such_knob=1"),
               std::invalid_argument);
}

TEST(ReliabilityPlan, DefaultsDeclareEveryKey) {
  const auto& defaults = reliability_param_defaults();
  for (const char* key : {"rel_mode", "rel_ack_timeout", "rel_max_retx",
                          "rel_fec_window", "rel_fec_repair", "rel_seed"}) {
    EXPECT_TRUE(defaults.has_number(key)) << key;
  }
  // The all-defaults plan is the unprotected network.
  EXPECT_FALSE(reliability_plan_from_params(defaults).any());
}

TEST(ReliabilityPlan, LocalModeRejectsReliability) {
  // The service's control traffic is accounted against the CONGEST
  // bandwidth budget; LOCAL mode defines none, so arming it there is a
  // configuration error, not a silent no-op.
  const Graph g = testing::path_graph(2);
  NetConfig cfg;
  cfg.mode = NetConfig::Mode::kLocal;
  cfg.reliability.mode = ReliabilityPlan::Mode::kAck;
  EXPECT_THROW(Network(g, cfg,
                       [](NodeId) -> std::unique_ptr<INode> {
                         return nullptr;
                       }),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Closed-form ARQ statistics (engine level, fixed seeds)
// ---------------------------------------------------------------------------

TEST(ReliabilityStats, ArqPermanentLossRateIsLossToTheRetxPower) {
  // A message whose first copy was lost is recovered unless all max_retx
  // resends are lost too: P(permanent) = p^max_retx for iid loss p. With
  // p = 0.5 and max_retx = 4 that is 1/16.
  FaultPlan faults;
  faults.loss = 0.5;
  ReliabilityPlan plan;
  plan.mode = ReliabilityPlan::Mode::kAck;
  plan.ack_timeout = 1;
  plan.max_retx = 4;
  ReliabilityEngine engine(plan, faults, nullptr, /*directed_edges=*/2,
                           /*header_bits=*/16, /*bandwidth_bits=*/64,
                           /*net_seed=*/5);
  RunStats t;
  std::size_t permanent = 0;
  const std::size_t trials = 100'000;
  for (std::size_t r = 1; r <= trials; ++r) {
    const std::uint64_t due = engine.arq_recover(/*edge=*/0, /*src=*/0,
                                                 /*dst=*/1, /*round=*/r * 10,
                                                 /*kind=*/1,
                                                 /*wire_bits=*/80, t);
    if (due == ReliabilityEngine::kNever) {
      ++permanent;
    } else {
      EXPECT_GT(due, r * 10);  // recovery lands on the attempt schedule
      EXPECT_LE(due, r * 10 + plan.max_retx * plan.ack_timeout);
    }
  }
  const double rate = static_cast<double>(permanent) / trials;
  EXPECT_NEAR(rate, 1.0 / 16.0, 0.005);
  EXPECT_GT(t.messages_retransmitted, 0u);
  EXPECT_GT(t.acks_sent, 0u);
}

TEST(ReliabilityStats, ArqDeliveredPathChargesAcksOnly) {
  // With a perfectly clean channel the delivered-message bookkeeping is
  // exactly one ACK per message and never a retransmission.
  ReliabilityPlan plan;
  plan.mode = ReliabilityPlan::Mode::kAck;
  ReliabilityEngine engine(plan, FaultPlan{}, nullptr, 2, 16, 64, 5);
  RunStats t;
  for (std::uint64_t r = 1; r <= 1000; ++r) {
    engine.arq_account_delivered(0, 0, 1, r, 1, 80, t);
  }
  EXPECT_EQ(t.acks_sent, 1000u);
  EXPECT_EQ(t.messages_retransmitted, 0u);
  EXPECT_EQ(t.bits, 1000u * 16u);  // one header-sized ACK per message
  EXPECT_EQ(t.bits_by_kind[kRelAck], 1000u * 16u);
}

// ---------------------------------------------------------------------------
// Property-based conformance: ~50 seeded random fault plans. The instance
// and the clean reference run are built once and shared.
// ---------------------------------------------------------------------------

struct PropCase {
  FaultPlan faults;
  ReliabilityPlan rel;
  bool churn = false;
  std::string desc;
};

/// Derives plan #i from a seeded generator: loss model (iid or
/// Gilbert–Elliott), delay jitter, occasional churn, and alternating
/// ARQ/FEC protection with generous budgets (the conformance property is
/// *complete* erasure of the adversity, so the budgets are sized for it).
PropCase make_case(std::size_t i) {
  Rng rng(0x4e11ab1e0000ULL + i);
  PropCase c;
  c.desc = "plan " + std::to_string(i);
  if (rng.next_bernoulli(0.5)) {
    c.faults.loss = 0.005 + 0.045 * rng.next_double();
    c.desc += " iid";
  } else {
    c.faults.ge_p = 0.02 + 0.06 * rng.next_double();
    c.faults.ge_r = 0.3 + 0.3 * rng.next_double();
    c.faults.ge_loss_bad = 1.0;
    c.faults.ge_loss_good = 0.0;
    c.desc += " ge";
  }
  const auto delay = rng.next_below(3);
  if (delay > 0) {
    c.faults.delay_max = delay;
    c.desc += " delay" + std::to_string(delay);
  }
  if (i % 5 == 4) {
    // Churn plans: crashes change protocol behaviour regardless of the
    // transport, so these only assert thread bit-identity below.
    c.churn = true;
    c.faults.crash_frac = 0.05;
    c.faults.crash_round = 10 + rng.next_below(20);
    c.faults.recover_after = 20;
    c.desc += " churn";
  }
  c.faults.fault_seed = 1000 + i;
  if (i % 2 == 0) {
    c.rel.mode = ReliabilityPlan::Mode::kAck;
    c.rel.ack_timeout = 1;
    c.rel.max_retx = 12 + rng.next_below(6);
    c.desc += " arq";
  } else {
    c.rel.mode = ReliabilityPlan::Mode::kFec;
    c.rel.fec_window = 2 + rng.next_below(3);
    c.rel.fec_repair = 8 + rng.next_below(4);
    c.desc += " fec";
  }
  if (i % 3 == 0) c.rel.rel_seed = 77 + i;
  return c;
}

const Graph& prop_graph() {
  static const Graph g = [] {
    Rng rng(7);
    PlantedNearCliqueParams pp;
    pp.n = 60;
    pp.clique_size = 24;
    pp.background_p = 0.08;
    pp.halo_p = 0.25;
    return planted_near_clique(pp, rng).graph;
  }();
  return g;
}

DriverConfig prop_config() {
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.08;
  cfg.net.seed = 3;
  cfg.net.max_rounds = 50'000;
  return cfg;
}

const NearCliqueResult& clean_reference() {
  static const NearCliqueResult res =
      run_dist_near_clique(prop_graph(), prop_config());
  return res;
}

void run_case_range(std::size_t lo, std::size_t hi) {
  const Graph& g = prop_graph();
  const NearCliqueResult& clean = clean_reference();
  for (std::size_t i = lo; i < hi; ++i) {
    const PropCase c = make_case(i);
    SCOPED_TRACE(c.desc);
    DriverConfig cfg = prop_config();
    cfg.net.faults = c.faults;
    cfg.net.reliability = c.rel;
    cfg.net.threads = 1;
    const NearCliqueResult ref = run_dist_near_clique(g, cfg);
    for (const unsigned threads : {2u, 4u, 64u}) {
      cfg.net.threads = threads;
      const NearCliqueResult sharded = run_dist_near_clique(g, cfg);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_EQ(ref.stats.rounds, sharded.stats.rounds);
      EXPECT_EQ(ref.stats.messages, sharded.stats.messages);
      EXPECT_EQ(ref.stats.bits, sharded.stats.bits);
      EXPECT_EQ(ref.stats.max_message_bits, sharded.stats.max_message_bits);
      EXPECT_EQ(ref.stats.bits_by_kind, sharded.stats.bits_by_kind);
      EXPECT_EQ(ref.stats.messages_lost, sharded.stats.messages_lost);
      EXPECT_EQ(ref.stats.messages_delayed, sharded.stats.messages_delayed);
      EXPECT_EQ(ref.stats.messages_retransmitted,
                sharded.stats.messages_retransmitted);
      EXPECT_EQ(ref.stats.acks_sent, sharded.stats.acks_sent);
      EXPECT_EQ(ref.stats.fec_repairs, sharded.stats.fec_repairs);
      EXPECT_EQ(ref.labels, sharded.labels);
      EXPECT_EQ(ref.total_local_ops, sharded.total_local_ops);
    }
    if (!c.churn) {
      // The conformance property: the service erases the adversity. Zero
      // permanent losses, and the protocol cannot tell the lossy protected
      // execution from the clean one — same labels, bit for bit.
      EXPECT_EQ(ref.stats.messages_lost, 0u);
      EXPECT_EQ(ref.labels, clean.labels);
    }
    if (c.rel.mode == ReliabilityPlan::Mode::kAck) {
      EXPECT_GT(ref.stats.acks_sent, 0u);
      EXPECT_EQ(ref.stats.fec_repairs, 0u);
    } else {
      EXPECT_EQ(ref.stats.acks_sent, 0u);
    }
  }
}

// Fifty plans, split so ctest parallelism spreads them across cores.
TEST(ReliabilityProp, SeededPlans00To09) { run_case_range(0, 10); }
TEST(ReliabilityProp, SeededPlans10To19) { run_case_range(10, 20); }
TEST(ReliabilityProp, SeededPlans20To29) { run_case_range(20, 30); }
TEST(ReliabilityProp, SeededPlans30To39) { run_case_range(30, 40); }
TEST(ReliabilityProp, SeededPlans40To49) { run_case_range(40, 50); }

// ---------------------------------------------------------------------------
// Adversarial fault placement: targeted loss via FaultPlan::loss_hook.
// ---------------------------------------------------------------------------

/// Planted instance shared by the adversarial tests (needs the planted set,
/// unlike the conformance suite above).
const Instance& adversarial_instance() {
  static const Instance inst = [] {
    Rng rng(7);
    PlantedNearCliqueParams pp;
    pp.n = 60;
    pp.clique_size = 24;
    pp.background_p = 0.08;
    pp.halo_p = 0.25;
    return planted_near_clique(pp, rng);
  }();
  return inst;
}

TEST(ReliabilityAdversarial, ArqRecoversTargetedLossOnHighestDegreeNodes) {
  // Concentrate loss where it hurts most: every message touching one of
  // the five highest-degree nodes is lost with probability 0.6, in both
  // directions. The bare protocol cannot complete the affected streams —
  // permanent erasures change what is recovered — while ARQ retries
  // through the hot spot and reproduces the clean labels exactly.
  const Instance& inst = adversarial_instance();
  const Graph& g = inst.graph;
  std::vector<NodeId> by_degree(g.n());
  for (NodeId v = 0; v < g.n(); ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(), [&](NodeId a, NodeId b) {
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  std::vector<NodeId> hubs(by_degree.begin(), by_degree.begin() + 5);
  std::sort(hubs.begin(), hubs.end());
  const auto hook = [hubs](NodeId src, NodeId dst) {
    const bool hot = std::binary_search(hubs.begin(), hubs.end(), src) ||
                     std::binary_search(hubs.begin(), hubs.end(), dst);
    return hot ? 0.6 : 0.0;
  };

  DriverConfig cfg = prop_config();
  cfg.net.faults.loss_hook = hook;
  cfg.net.faults.fault_seed = 99;
  const NearCliqueResult bare = run_dist_near_clique(inst.graph, cfg);
  EXPECT_GT(bare.stats.messages_lost, 0u);
  EXPECT_NE(bare.labels, clean_reference().labels);

  cfg.net.reliability.mode = ReliabilityPlan::Mode::kAck;
  cfg.net.reliability.ack_timeout = 1;
  cfg.net.reliability.max_retx = 24;  // 0.6^24 ~ 5e-6 permanent-loss rate
  const NearCliqueResult protected_run = run_dist_near_clique(inst.graph, cfg);
  EXPECT_EQ(protected_run.stats.messages_lost, 0u);
  EXPECT_GT(protected_run.stats.messages_retransmitted, 0u);
  EXPECT_EQ(protected_run.labels, clean_reference().labels);
}

TEST(ReliabilityAdversarial, FecRecoversTargetedLossOnPlantedBoundary) {
  // Loss concentrated on the planted-clique boundary (edges with exactly
  // one endpoint inside the planted set) attacks the halo traffic that
  // separates the near-clique from the background. FEC with a deep repair
  // budget reconstructs every blocked window and reproduces the clean run.
  const Instance& inst = adversarial_instance();
  const std::vector<NodeId> planted = inst.planted;  // sorted by contract
  const auto hook = [planted](NodeId src, NodeId dst) {
    const bool in_src = std::binary_search(planted.begin(), planted.end(), src);
    const bool in_dst = std::binary_search(planted.begin(), planted.end(), dst);
    return in_src != in_dst ? 0.5 : 0.0;
  };

  DriverConfig cfg = prop_config();
  cfg.net.faults.loss_hook = hook;
  cfg.net.faults.fault_seed = 101;
  const NearCliqueResult bare = run_dist_near_clique(inst.graph, cfg);
  EXPECT_GT(bare.stats.messages_lost, 0u);
  EXPECT_NE(bare.labels, clean_reference().labels);

  cfg.net.reliability.mode = ReliabilityPlan::Mode::kFec;
  cfg.net.reliability.fec_window = 2;
  cfg.net.reliability.fec_repair = 16;
  const NearCliqueResult protected_run = run_dist_near_clique(inst.graph, cfg);
  EXPECT_EQ(protected_run.stats.messages_lost, 0u);
  EXPECT_GT(protected_run.stats.fec_repairs, 0u);
  EXPECT_EQ(protected_run.labels, clean_reference().labels);
}

TEST(ReliabilityAdversarial, HookRunsAreBitIdenticalAcrossThreads) {
  // The hook path must keep the determinism contract of every other fault
  // decision: a pure function of (src, dst) keyed through the same hash.
  const Instance& inst = adversarial_instance();
  DriverConfig cfg = prop_config();
  cfg.net.faults.loss_hook = [](NodeId src, NodeId dst) {
    return (src + dst) % 3 == 0 ? 0.4 : 0.0;
  };
  cfg.net.reliability.mode = ReliabilityPlan::Mode::kAck;
  cfg.net.reliability.ack_timeout = 1;
  cfg.net.reliability.max_retx = 16;
  cfg.net.threads = 1;
  const NearCliqueResult ref = run_dist_near_clique(inst.graph, cfg);
  for (const unsigned threads : {2u, 64u}) {
    cfg.net.threads = threads;
    const NearCliqueResult sharded = run_dist_near_clique(inst.graph, cfg);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(ref.stats.bits, sharded.stats.bits);
    EXPECT_EQ(ref.stats.messages_retransmitted,
              sharded.stats.messages_retransmitted);
    EXPECT_EQ(ref.labels, sharded.labels);
  }
}

}  // namespace
}  // namespace nc
