#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "core/driver.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

// Determinism regression suite: the full protocol on three fixed-seed
// graphs must reproduce the exact RunStats and output labels recorded from
// the pre-event-driven simulator (the per-round full-scan implementation
// this repository started from). Any change to the runtime that alters
// delivery order, wake-up order, alarm semantics or accounting shows up
// here as a hard failure, which is the repository's guarantee that perf
// work on the simulator core never changes simulated executions.
//
// Since the sharded delivery engine, every golden configuration is also
// executed at net.threads = 4: the two-phase parallel round must reproduce
// the same pre-refactor numbers bit-for-bit, and a direct k = 1 vs k = 4
// comparison locks full RunStats/label equality across thread counts.

namespace nc {
namespace {

struct Expected {
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t bits;
  std::uint64_t max_message_bits;
  std::uint64_t label_hash;  ///< FNV-1a over the label vector, in node order
  std::size_t nonbottom;     ///< nodes with a non-bottom label
  std::uint64_t local_ops;   ///< summed local computation
};

std::uint64_t label_hash(const std::vector<Label>& labels) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Label l : labels) {
    h ^= l;
    h *= 1099511628211ULL;
  }
  return h;
}

void expect_exact_at(const Graph& g, DriverConfig cfg, const Expected& want,
                     unsigned threads) {
  cfg.net.threads = threads;
  const auto res = run_dist_near_clique(g, cfg);
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_FALSE(res.stats.stalled);
  EXPECT_FALSE(res.stats.hit_round_limit);
  EXPECT_EQ(res.stats.rounds, want.rounds);
  EXPECT_EQ(res.stats.messages, want.messages);
  EXPECT_EQ(res.stats.bits, want.bits);
  EXPECT_EQ(res.stats.max_message_bits, want.max_message_bits);
  std::uint64_t kind_bits = 0;
  for (const auto b : res.stats.bits_by_kind) kind_bits += b;
  EXPECT_EQ(kind_bits, want.bits);  // per-kind attribution is exhaustive
  EXPECT_EQ(label_hash(res.labels), want.label_hash);
  std::size_t nonbottom = 0;
  for (const Label l : res.labels) nonbottom += (l != kBottom);
  EXPECT_EQ(nonbottom, want.nonbottom);
  EXPECT_EQ(res.total_local_ops, want.local_ops);
}

void expect_exact(const Graph& g, const DriverConfig& cfg,
                  const Expected& want) {
  // One shard must reproduce the pre-event-driven goldens, and four shards
  // must reproduce one — same numbers, any thread count.
  expect_exact_at(g, cfg, want, 1);
  expect_exact_at(g, cfg, want, 4);
}

TEST(DeterminismRegression, PlantedClique60) {
  Rng rng(7);
  PlantedNearCliqueParams pp;
  pp.n = 60;
  pp.clique_size = 24;
  pp.eps_missing = 0.0;
  pp.background_p = 0.08;
  pp.halo_p = 0.25;
  const auto inst = planted_near_clique(pp, rng);
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.08;
  cfg.net.seed = 3;
  cfg.net.max_rounds = 300'000;
  expect_exact(inst.graph, cfg,
               Expected{68, 7045, 246118, 48, 9160231386051612719ULL, 22,
                        64751});
}

TEST(DeterminismRegression, PlantedPartition48TwoVersions) {
  Rng rng(11);
  const auto inst = planted_partition(48, 3, 0.85, 0.05, rng);
  DriverConfig cfg;
  cfg.proto.eps = 0.25;
  cfg.proto.p = 0.15;
  cfg.proto.versions = 2;  // exercises version windows + fast-forward
  cfg.net.seed = 17;
  cfg.net.max_rounds = 300'000;
  expect_exact(inst.graph, cfg,
               Expected{149818, 5577, 135883, 47, 6247598316484435304ULL, 11,
                        13443});
}

TEST(DeterminismRegression, ErdosRenyi40MinReportSize) {
  Rng rng(5);
  const Graph g = erdos_renyi(40, 0.18, rng);
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.2;
  cfg.proto.min_report_size = 2;
  cfg.net.seed = 23;
  cfg.net.max_rounds = 300'000;
  expect_exact(g, cfg,
               Expected{66, 1996, 65272, 47, 2160690531911529915ULL, 0, 8411});
}

TEST(DeterminismRegression, ThreadCountsAreBitIdentical) {
  // Direct k = 1 vs k = 4 (and an n < k shard count) comparison of the
  // complete observable outcome: RunStats, per-kind bits and labels. This
  // is the sharded engine's contract — thread count is a pure performance
  // knob, never a semantic one.
  Rng rng(13);
  const auto inst = planted_partition(56, 4, 0.8, 0.06, rng);
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.12;
  cfg.proto.versions = 2;  // exercises version windows + fast-forward
  cfg.net.seed = 41;
  cfg.net.max_rounds = 300'000;

  cfg.net.threads = 1;
  const auto serial = run_dist_near_clique(inst.graph, cfg);
  for (const unsigned threads : {2u, 4u, 64u}) {  // 64 > n: empty shards
    cfg.net.threads = threads;
    const auto sharded = run_dist_near_clique(inst.graph, cfg);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(serial.stats.rounds, sharded.stats.rounds);
    EXPECT_EQ(serial.stats.messages, sharded.stats.messages);
    EXPECT_EQ(serial.stats.bits, sharded.stats.bits);
    EXPECT_EQ(serial.stats.max_message_bits, sharded.stats.max_message_bits);
    EXPECT_EQ(serial.stats.bits_by_kind, sharded.stats.bits_by_kind);
    EXPECT_EQ(serial.stats.stalled, sharded.stats.stalled);
    EXPECT_EQ(serial.stats.hit_round_limit, sharded.stats.hit_round_limit);
    EXPECT_EQ(serial.labels, sharded.labels);
    EXPECT_EQ(serial.total_local_ops, sharded.total_local_ops);
  }
}

TEST(DeterminismRegression, BroadcastInstanceIsPinnedAtEveryThreadCount) {
  // A broadcast-heavy instance (every protocol stage opens one stream on
  // many links), clean and under a fault plan that drops, delays and
  // crashes: each copy of a broadcast is staged as a record of its own with
  // its own per-(src, dst) verdict. The 1-thread RunStats and labels are
  // pinned to the values the engine produced when it still kept both a
  // shared-payload broadcast row and a per-edge path (they agreed), and
  // every thread count must reproduce them.
  struct Pinned {
    const char* name;
    bool faulty;
    std::uint64_t rounds, messages, bits, max_message_bits, label_hash;
    std::array<std::uint64_t, kMaxMsgKinds> bits_by_kind;
  };
  const Pinned pins[2] = {
      {"clean", false, 149782, 5981, 153610, 47, 10034771671789710632ULL,
       {0, 23800, 396, 306, 96, 204, 264, 240, 4412, 2227, 31022, 41219,
        14338, 14338, 14338, 2704, 1853, 1853}},
      {"loss+delay+churn", true, 299985, 2367, 43173, 34,
       14386409456840396907ULL,
       {0, 23239, 198, 85, 32, 68, 44, 56, 1542, 510, 10686, 5604, 684, 0, 0,
        0, 425}},
  };
  Rng rng(19);
  const auto inst = planted_partition(56, 4, 0.8, 0.06, rng);
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.12;
  cfg.proto.versions = 2;
  cfg.net.seed = 47;
  cfg.net.max_rounds = 300'000;

  for (const Pinned& want : pins) {
    if (want.faulty) {
      cfg.net.faults.loss = 0.03;
      cfg.net.faults.delay_min = 0;
      cfg.net.faults.delay_max = 2;
      cfg.net.faults.crash_frac = 0.05;
      cfg.net.faults.crash_round = 40;
      cfg.net.faults.recover_after = 30;
    }
    SCOPED_TRACE(want.name);
    cfg.net.threads = 1;
    const auto golden = run_dist_near_clique(inst.graph, cfg);
    EXPECT_EQ(golden.stats.rounds, want.rounds);
    EXPECT_EQ(golden.stats.messages, want.messages);
    EXPECT_EQ(golden.stats.bits, want.bits);
    EXPECT_EQ(golden.stats.max_message_bits, want.max_message_bits);
    EXPECT_EQ(golden.stats.bits_by_kind, want.bits_by_kind);
    EXPECT_EQ(label_hash(golden.labels), want.label_hash);
    for (const unsigned threads : {2u, 4u, 64u}) {
      cfg.net.threads = threads;
      const auto got = run_dist_near_clique(inst.graph, cfg);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_EQ(golden.stats.rounds, got.stats.rounds);
      EXPECT_EQ(golden.stats.messages, got.stats.messages);
      EXPECT_EQ(golden.stats.bits, got.stats.bits);
      EXPECT_EQ(golden.stats.max_message_bits, got.stats.max_message_bits);
      EXPECT_EQ(golden.stats.bits_by_kind, got.stats.bits_by_kind);
      EXPECT_EQ(golden.stats.stalled, got.stats.stalled);
      EXPECT_EQ(golden.stats.hit_round_limit, got.stats.hit_round_limit);
      EXPECT_EQ(golden.labels, got.labels);
      EXPECT_EQ(golden.total_local_ops, got.total_local_ops);
    }
    cfg.net.faults = FaultPlan{};
  }
}

TEST(DeterminismRegression, RepeatRunsAreIdentical) {
  Rng rng(7);
  PlantedNearCliqueParams pp;
  pp.n = 40;
  pp.clique_size = 16;
  pp.background_p = 0.1;
  pp.halo_p = 0.2;
  const auto inst = planted_near_clique(pp, rng);
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.1;
  cfg.net.seed = 99;
  const auto a = run_dist_near_clique(inst.graph, cfg);
  const auto b = run_dist_near_clique(inst.graph, cfg);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.bits, b.stats.bits);
  EXPECT_EQ(a.stats.bits_by_kind, b.stats.bits_by_kind);
  EXPECT_EQ(a.labels, b.labels);
}

}  // namespace
}  // namespace nc
