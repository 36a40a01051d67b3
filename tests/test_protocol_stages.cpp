#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/driver.hpp"
#include "core/oracle.hpp"
#include "core/protocol.hpp"
#include "core/subsets.hpp"
#include "expt/scenario.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/metrics.hpp"
#include "runtime/network.hpp"
#include "test_helpers.hpp"

// Stage-level verification of the distributed protocol: with p = 1 the
// sampled subgraph is the whole graph and every stage's outcome is
// deterministic, so the election, gather and decision stages can be checked
// against first principles (not just against the oracle).

namespace nc {

/// Read access to a node's per-version state.
struct ProtocolTestPeek {
  static bool holds_exploration(const DistNearCliqueNode& node,
                                std::uint16_t w) {
    return node.versions_.at(w - 1).ex != nullptr;
  }
};

namespace {

struct RunHandle {
  // The nodes point at the run's params and schedule, so both live on the
  // heap and are declared before the network, which is destroyed first.
  std::unique_ptr<DriverConfig> cfg;
  std::unique_ptr<Schedule> schedule;
  std::unique_ptr<Network> net;
  std::vector<DistNearCliqueNode*> nodes;
  RunStats stats;
};

RunHandle run_protocol(const Graph& g, double p, double eps,
                       std::uint64_t seed,
                       std::uint32_t max_subsets = 1u << 18,
                       const FaultPlan& faults = {}) {
  RunHandle h;
  h.cfg = std::make_unique<DriverConfig>();
  DriverConfig& cfg = *h.cfg;
  cfg.proto.eps = eps;
  cfg.proto.p = p;
  cfg.proto.max_subsets = max_subsets;
  cfg.net.seed = seed;
  cfg.net.max_rounds = 32'000'000;
  cfg.net.faults = faults;
  h.schedule = std::make_unique<Schedule>(
      make_schedule(cfg.proto, g.n(), cfg.net.max_rounds));
  h.net = std::make_unique<Network>(g, cfg.net, [&](NodeId) {
    return std::make_unique<DistNearCliqueNode>(cfg.proto, *h.schedule);
  });
  h.stats = h.net->run();
  for (NodeId v = 0; v < g.n(); ++v) {
    h.nodes.push_back(static_cast<DistNearCliqueNode*>(&h.net->node(v)));
  }
  return h;
}

TEST(ProtocolStages, RootIsMinimumIdPerComponent) {
  // Two separate cliques, p = 1: each component's root must be its minimum
  // ID, visible through the RootCandidate diagnostics.
  GraphBuilder b(20);
  b.add_clique({2, 5, 9, 12});
  b.add_clique({3, 7, 15, 19});
  const Graph g = b.build();
  const auto h = run_protocol(g, 1.0, 0.2, 4);
  EXPECT_FALSE(h.stats.stalled);
  std::set<NodeId> roots;
  for (const auto* node : h.nodes) {
    for (const auto& rc : node->root_candidates()) roots.insert(rc.root);
  }
  // Components: {2,5,9,12} -> root 2; {3,7,15,19} -> root 3; singletons are
  // their own roots (isolated nodes are sampled too at p=1).
  EXPECT_TRUE(roots.count(2));
  EXPECT_TRUE(roots.count(3));
  for (const auto* node : h.nodes) {
    for (const auto& rc : node->root_candidates()) {
      if (rc.root == 2) {
        EXPECT_EQ(rc.component_size, 4u);
      }
      if (rc.root == 3) {
        EXPECT_EQ(rc.component_size, 4u);
      }
    }
  }
}

TEST(ProtocolStages, ComponentSizesMatchInducedComponents) {
  // Random graph, fractional p: the roots' component_size diagnostics must
  // match the centralized induced-components computation on the same coins.
  // Under link delay the election tree need not be a BFS tree, but it must
  // still span each component from its minimum-ID member, or the gather
  // convergecast would name another root or miscount.
  Rng rng(8);
  GraphBuilder b(60);
  for (NodeId u = 0; u < 60; ++u) {
    for (NodeId v = u + 1; v < 60; ++v) {
      if (rng.next_bernoulli(0.12)) b.add_edge(u, v);
    }
  }
  const Graph g = b.build();
  const auto sample = oracle_sample(g, 0.3, 17, 1);
  const auto comps = induced_components(g, sample);
  std::map<NodeId, std::uint32_t> expected;  // root -> size
  for (const auto& comp : comps) {
    expected[comp.front()] = static_cast<std::uint32_t>(comp.size());
  }
  for (const char* faults : {"", "delay_max=3"}) {
    SCOPED_TRACE(faults);
    const auto h = run_protocol(g, 0.3, 0.2, 17, /*max_subsets=*/255,
                                parse_fault_plan(faults));
    std::map<NodeId, std::uint32_t> measured;
    for (const auto* node : h.nodes) {
      for (const auto& rc : node->root_candidates()) {
        measured[rc.root] = rc.component_size;
      }
    }
    EXPECT_EQ(measured, expected);
  }
}

TEST(ProtocolStages, WinningCandidateIsGlobalMaximumT) {
  // The decision stage must let (at least) the globally largest candidate
  // survive (the paper's conflict-resolution guarantee).
  Rng rng(12);
  GraphBuilder b(50);
  b.add_clique({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  for (NodeId u = 0; u < 50; ++u) {
    for (NodeId v = u + 1; v < 50; ++v) {
      if (rng.next_bernoulli(0.1)) b.add_edge(u, v);
    }
  }
  const Graph g = b.build();
  const auto h = run_protocol(g, 0.15, 0.2, 23);
  std::uint32_t best_t = 0;
  bool best_survived = false;
  for (const auto* node : h.nodes) {
    for (const auto& rc : node->root_candidates()) {
      if (!rc.live) continue;
      if (rc.t_size > best_t) {
        best_t = rc.t_size;
        best_survived = rc.survived;
      }
    }
  }
  if (best_t > 0) {
    EXPECT_TRUE(best_survived);
  }
}

TEST(ProtocolStages, LabelsBelongToSurvivingCandidatesOnly) {
  const Graph g = testing::complete_graph(12);
  const auto h = run_protocol(g, 0.6, 0.2, 31);
  std::set<Label> surviving;
  for (const auto* node : h.nodes) {
    for (const auto& rc : node->root_candidates()) {
      if (rc.survived) surviving.insert(make_label(rc.root, rc.version));
    }
  }
  for (const auto* node : h.nodes) {
    if (node->label() != kBottom) {
      EXPECT_TRUE(surviving.count(node->label()));
    }
  }
}

TEST(ProtocolStages, SamplingCoinMatchesOracleDerivation) {
  // The protocol's per-node coin and oracle_sample must agree bit for bit.
  const Graph g = testing::complete_graph(50);
  const std::uint64_t seed = 77;
  const Rng master(seed);
  for (std::uint16_t w = 1; w <= 3; ++w) {
    const auto sample = oracle_sample(g, 0.4, seed, w);
    for (NodeId v = 0; v < g.n(); ++v) {
      const bool coin =
          DistNearCliqueNode::sampling_coin(master.derive(v), w, 0.4);
      EXPECT_EQ(coin, std::binary_search(sample.begin(), sample.end(), v));
    }
  }
}

TEST(ProtocolStages, TrafficScalesWithSubsetSpace) {
  // Doubling the component size should multiply exploration traffic by ~2^k:
  // compare total bits for planted cliques whose sampled component differs.
  const Graph g = testing::complete_graph(24);
  const auto small = run_protocol(g, 0.25, 0.2, 3);   // E[|S|] = 6
  const auto large = run_protocol(g, 0.5, 0.2, 3);    // E[|S|] = 12
  EXPECT_GT(large.stats.bits, 4 * small.stats.bits);
}

TEST(ProtocolStages, CandidateXStarSelectsLargestT) {
  // For a complete graph with p = 1 and a subset cap admitting everything,
  // T_eps(X) is the whole clique for every X, so X* must be the first
  // maximal index (tie-break: smallest mask) and |T| = n.
  const Graph g = testing::complete_graph(8);
  const auto h = run_protocol(g, 1.0, 0.2, 9);
  bool found_root = false;
  for (const auto* node : h.nodes) {
    for (const auto& rc : node->root_candidates()) {
      found_root = true;
      EXPECT_EQ(rc.root, 0u);
      EXPECT_EQ(rc.component_size, 8u);
      ASSERT_TRUE(rc.live);
      // With eps = 0.2, K_{0.08}(X) allows floor(0.08|X|) = 0 misses for all
      // |X| <= 12, so X's own members are excluded by self-non-adjacency and
      // K({v}) = Gamma(v) is the largest K achievable: t = n-1 = 7, attained
      // first at the singleton mask X = {node 0}.
      EXPECT_EQ(rc.t_size, 7u);
      EXPECT_EQ(rc.x_star, 1u);
      EXPECT_TRUE(rc.survived);
    }
  }
  EXPECT_TRUE(found_root);
}

TEST(ProtocolStages, VersionWindowsDoNotOverlapInTraffic) {
  // With lambda = 2 sequential windows, version-2 floods must not appear
  // before version 1's window ends; verified via label versions: every
  // surviving label's version is 1 or 2 and the run terminates cleanly.
  const Graph g = testing::complete_graph(14);
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.4;
  cfg.proto.versions = 2;
  cfg.proto.version_budget = 50'000;
  cfg.net.seed = 5;
  cfg.net.max_rounds = 1'000'000;
  const auto res = run_dist_near_clique(g, cfg);
  ASSERT_FALSE(res.aborted());
  for (const auto& [label, members] : res.clusters()) {
    (void)members;
    EXPECT_GE(label_version(label), 1u);
    EXPECT_LE(label_version(label), 2u);
  }
  // Rounds must reflect the second window's start (sequential layout).
  EXPECT_GT(res.stats.rounds, 50'000u);
}

TEST(ProtocolStages, LocalOpsAccountedForExploration) {
  const Graph g = testing::complete_graph(16);
  const auto h = run_protocol(g, 0.5, 0.2, 41);
  std::uint64_t total_ops = 0;
  for (const auto* node : h.nodes) total_ops += node->local_ops();
  EXPECT_GT(total_ops, 0u);
}

TEST(Protocol, OnlySampledNodesAndTheirNeighboursHoldExplorationState) {
  // Section 4: only a node in S or adjacent to it can join a component
  // S_i, its fringe or a T_eps(X) with X in S_i; every other node outputs
  // bottom for the version once it has read its neighbours' sampling bits.
  // So in each version exactly S and its neighbours allocate the
  // exploration block, and they are a small minority here.
  const Instance inst = ScenarioRegistry::global().make(ScenarioSpec{
      "planted_near_clique",
      ScenarioParams()
          .with("n", 3000)
          .with("clique_size", 100)
          .with("background_p", 2e-3)
          .with("halo_p", 1e-3)
          .with("permute_ids", 0),
      3});
  const Graph& g = inst.graph;
  for (const std::uint16_t versions : {1, 2}) {
    SCOPED_TRACE("versions=" + std::to_string(versions));
    DriverConfig cfg;
    cfg.proto.eps = 0.2;
    cfg.proto.p = 60.0 / static_cast<double>(g.n());
    cfg.proto.versions = versions;
    cfg.net.seed = 3;
    cfg.net.max_rounds = 32'000'000;
    const Schedule schedule =
        make_schedule(cfg.proto, g.n(), cfg.net.max_rounds);
    Network net(g, cfg.net, [&](NodeId) {
      return std::make_unique<DistNearCliqueNode>(cfg.proto, schedule);
    });
    const RunStats stats = net.run();
    ASSERT_TRUE(net.all_done());
    EXPECT_FALSE(stats.stalled);
    for (std::uint16_t w = 1; w <= versions; ++w) {
      std::vector<bool> in_reach(g.n(), false);
      for (const NodeId s : oracle_sample(g, cfg.proto.p, cfg.net.seed, w)) {
        in_reach[s] = true;
        for (const NodeId u : g.neighbors(s)) in_reach[u] = true;
      }
      std::size_t holders = 0;
      std::size_t mismatches = 0;
      for (NodeId v = 0; v < g.n(); ++v) {
        const bool holds = ProtocolTestPeek::holds_exploration(
            static_cast<DistNearCliqueNode&>(net.node(v)), w);
        holders += holds ? 1 : 0;
        mismatches += holds != in_reach[v] ? 1 : 0;
      }
      SCOPED_TRACE("version " + std::to_string(w));
      EXPECT_EQ(mismatches, 0u);
      EXPECT_GT(holders, 60u);
      EXPECT_LT(holders, g.n() / 4);
    }
  }
}

}  // namespace
}  // namespace nc
