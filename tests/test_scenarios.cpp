#include <gtest/gtest.h>

#include <memory>

#include "core/driver.hpp"
#include "core/protocol.hpp"
#include "expt/scenario.hpp"
#include "graph/metrics.hpp"
#include "runtime/network.hpp"

namespace nc {
namespace {

// ------------------------------------------- Section 6 impossibility ------

/// The Section 6 barbell gadget (A - P - B), with or without A's edges.
Instance barbell_instance(NodeId n, bool delete_a_edges) {
  return make_scenario(
      "barbell",
      ScenarioParams().with("n", n).with("delete_a_edges", delete_a_edges),
      /*seed=*/0);
}

/// DistNearClique on `g`, advanced one round at a time. The nodes point at
/// `cfg.proto` and `schedule`, so both are members declared before `net`.
struct SteppedRun {
  SteppedRun(const Graph& g, double p, std::uint64_t seed) {
    cfg.proto.eps = 0.2;
    cfg.proto.p = p;
    cfg.net.seed = seed;
    cfg.net.max_rounds = 10'000'000;
    schedule = make_schedule(cfg.proto, g.n(), cfg.net.max_rounds);
    net = std::make_unique<Network>(g, cfg.net, [this](NodeId) {
      return std::make_unique<DistNearCliqueNode>(cfg.proto, schedule);
    });
  }
  const DistNearCliqueNode& node(NodeId v) {
    return static_cast<const DistNearCliqueNode&>(net->node(v));
  }

  DriverConfig cfg;
  Schedule schedule{};
  std::unique_ptr<Network> net;
};

TEST(Impossibility, BSideCannotDistinguishScenariosBeforePathRounds) {
  // Section 6: with clique A, path P, clique B, the vertices of B must
  // behave identically for every horizon r < |P| whether or not A's edges
  // exist, because no information can cross the path faster than one hop
  // per round. Both runs advance in lockstep and B's outputs are compared
  // after every one of those rounds.
  const NodeId n = 256;
  const auto with_a = barbell_instance(n, false);
  const auto without_a = barbell_instance(n, true);
  const auto lay = barbell_layout(n);
  std::size_t decided = 0;
  for (const std::uint64_t seed : {3ULL, 4ULL}) {
    SteppedRun a(with_a.graph, 0.04, seed);
    SteppedRun b(without_a.graph, 0.04, seed);
    for (std::uint64_t r = 1; r < lay.path_len; ++r) {
      a.net->run_rounds(1);
      b.net->run_rounds(1);
      for (NodeId v = lay.b_first; v < n; ++v) {
        ASSERT_EQ(a.node(v).label(), b.node(v).label())
            << "node " << v << " round " << r << " seed " << seed;
        ASSERT_EQ(a.node(v).local_ops(), b.node(v).local_ops())
            << "node " << v << " round " << r << " seed " << seed;
      }
    }
    for (NodeId v = lay.b_first; v < n; ++v) {
      decided += a.node(v).label() != kBottom ? 1 : 0;
    }
  }
  // Not vacuous: B outputs a near clique before information from A could
  // reach it.
  EXPECT_GT(decided, 0u);
}

TEST(Impossibility, BothCliquesMayBeOutputAsSeparateNearCliques) {
  // The paper's resolution: the algorithm outputs a *disjoint collection*;
  // it never needs to suppress B globally. Run to completion and check that
  // any output cluster is a genuine near-clique on its side.
  const auto inst = barbell_instance(48, false);
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.2;
  cfg.net.seed = 5;
  cfg.net.max_rounds = 10'000'000;
  const auto res = run_dist_near_clique(inst.graph, cfg);
  ASSERT_FALSE(res.aborted());
  for (const auto& [label, members] : res.clusters()) {
    (void)label;
    const double bound =
        static_cast<double>(inst.graph.n()) * 0.2 /
        static_cast<double>(members.size());
    EXPECT_TRUE(is_near_clique(inst.graph, members, bound));
  }
}

// --------------------------------- E4 head-to-head on the Claim 1 family --

TEST(Counterexample, DistNearCliqueSucceedsWhereShinglesCannot) {
  // On G_n the planted clique C = C1 ∪ C2 has delta*n nodes. DistNearClique
  // must find a large near-clique with constant probability; across a few
  // seeds at least one run should recover a large dense set.
  const NodeId n = 120;
  const double delta = 0.5;
  int good = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = make_scenario(
        "counterexample", ScenarioParams().with("n", n).with("delta", delta),
        seed);
    DriverConfig cfg;
    cfg.proto.eps = 0.2;
    cfg.proto.p = 0.05;
    cfg.net.seed = seed;
    cfg.net.max_rounds = 4'000'000;
    const auto res = run_dist_near_clique(inst.graph, cfg);
    ASSERT_FALSE(res.aborted());
    const auto best = res.largest_cluster();
    if (best.size() >= 30 && set_density(inst.graph, best) >= 0.8) ++good;
  }
  EXPECT_GE(good, 1);
}

// --------------------------------------------------- motivation domains ---

TEST(WebCommunities, PlantedCommunityDiscoverable) {
  const auto inst = make_scenario(
      "web",
      ScenarioParams().with("n", 250).with("community", 35).with("eps", 0.2),
      11);
  int good = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    DriverConfig cfg;
    cfg.proto.eps = 0.2;
    cfg.proto.p = 0.03;
    cfg.net.seed = seed;
    cfg.net.max_rounds = 4'000'000;
    const auto res = run_dist_near_clique(inst.graph, cfg);
    ASSERT_FALSE(res.aborted());
    const auto best = res.largest_cluster();
    std::size_t overlap = 0;
    for (const NodeId v : best) {
      if (std::binary_search(inst.planted.begin(), inst.planted.end(), v)) {
        ++overlap;
      }
    }
    if (overlap >= 20) ++good;
  }
  EXPECT_GE(good, 1);
}

}  // namespace
}  // namespace nc
