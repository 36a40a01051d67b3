#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/metrics.hpp"

namespace nc {
namespace {

TEST(Generators, ErdosRenyiEdgeCountConcentrates) {
  Rng rng(1);
  const NodeId n = 200;
  const double p = 0.1;
  const Graph g = erdos_renyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.m()), expected, 0.15 * expected);
}

TEST(Generators, ErdosRenyiExtremes) {
  Rng rng(2);
  EXPECT_EQ(erdos_renyi(30, 0.0, rng).m(), 0u);
  EXPECT_EQ(erdos_renyi(30, 1.0, rng).m(), 30u * 29u / 2);
}

TEST(Generators, PlantedNearCliqueDensityIsExact) {
  for (const double eps3 : {0.0, 0.01, 0.05, 0.2}) {
    Rng rng(42);
    PlantedNearCliqueParams params;
    params.n = 120;
    params.clique_size = 60;
    params.eps_missing = eps3;
    params.background_p = 0.05;
    params.halo_p = 0.1;
    const auto inst = planted_near_clique(params, rng);
    ASSERT_EQ(inst.planted.size(), 60u);
    // Exactly floor(eps3 * d(d-1)) / 2 undirected pairs were removed, so the
    // planted set is an eps3-near clique and not much sparser.
    EXPECT_TRUE(is_near_clique(inst.graph, inst.planted, eps3));
    const double density = set_density(inst.graph, inst.planted);
    EXPECT_GE(density, 1.0 - eps3 - 1e-9);
    EXPECT_LE(density, 1.0);
    if (eps3 > 0.0) {
      EXPECT_FALSE(is_clique(inst.graph, inst.planted));
    }
  }
}

TEST(Generators, PlantedNearCliquePermutesIds) {
  Rng rng(7);
  PlantedNearCliqueParams params;
  params.n = 100;
  params.clique_size = 40;
  const auto inst = planted_near_clique(params, rng);
  // With permutation the planted set is essentially never {0..39}.
  std::vector<NodeId> prefix(40);
  for (NodeId i = 0; i < 40; ++i) prefix[i] = i;
  EXPECT_NE(inst.planted, prefix);
  EXPECT_TRUE(std::is_sorted(inst.planted.begin(), inst.planted.end()));
}

TEST(Generators, CounterexampleStructureMatchesClaim1) {
  Rng rng(3);
  const NodeId n = 80;
  const double delta = 0.5;
  const auto inst = shingles_counterexample(n, delta, rng, /*permute=*/false);
  const auto c = inst.planted;  // C = C1 ∪ C2, unpermuted layout [0, 40)
  ASSERT_EQ(c.size(), 40u);
  EXPECT_TRUE(is_clique(inst.graph, c));
  // Block degrees (unpermuted layout): C1 = [0,20): clique(19) + C2(20) +
  // I1(20) = 59; C2 symmetric with I2; I1 members: connected to all of C1.
  EXPECT_EQ(inst.graph.degree(0), 59u);
  EXPECT_EQ(inst.graph.degree(39), 59u);
  EXPECT_EQ(inst.graph.degree(40), 20u);  // I1 node
  EXPECT_EQ(inst.graph.degree(79), 20u);  // I2 node
  // I1 is independent.
  EXPECT_FALSE(inst.graph.has_edge(40, 41));
  // I1 connects to C1 but not C2 or I2.
  EXPECT_TRUE(inst.graph.has_edge(40, 0));
  EXPECT_FALSE(inst.graph.has_edge(40, 20));
  EXPECT_FALSE(inst.graph.has_edge(40, 79));
}

TEST(Generators, CounterexampleCase1DensityFormula) {
  // The candidate set C1 ∪ C2 ∪ I1 has density 2*delta/(1+delta) per the
  // Claim 1 proof; verify on the unpermuted instance.
  Rng rng(4);
  const NodeId n = 120;
  const double delta = 0.5;
  const auto inst = shingles_counterexample(n, delta, rng, false);
  std::vector<NodeId> candidate;
  for (NodeId v = 0; v < 90; ++v) candidate.push_back(v);  // C1,C2,I1
  const double density = set_density(inst.graph, candidate);
  EXPECT_NEAR(density, 2 * delta / (1 + delta), 0.02);
}

TEST(Generators, BarbellLayoutAndIndistinguishability) {
  const NodeId n = 64;
  const auto lay = barbell_layout(n);
  EXPECT_EQ(lay.a_size + lay.path_len + lay.b_size, n);
  const auto with_a = barbell_gadget(n, false);
  const auto without_a = barbell_gadget(n, true);
  // B is a clique in both.
  EXPECT_TRUE(is_clique(with_a.graph, with_a.planted));
  EXPECT_TRUE(is_clique(without_a.graph, without_a.planted));
  EXPECT_EQ(with_a.planted.front(), lay.b_first);
  // A's internal edges differ; everything at distance < path stays equal.
  EXPECT_TRUE(with_a.graph.has_edge(0, 1));
  EXPECT_FALSE(without_a.graph.has_edge(0, 1));
  // Same edges within B and on the path.
  for (NodeId v = lay.b_first; v < n; ++v) {
    EXPECT_EQ(with_a.graph.degree(v), without_a.graph.degree(v));
  }
  // With A's edges the gadget is connected; deleting them isolates all of
  // A except its path port, so the graph falls apart (which is fine for the
  // indistinguishability argument — B's side is identical either way).
  EXPECT_NE(graph_diameter(with_a.graph), kUnreachable);
  EXPECT_EQ(graph_diameter(without_a.graph), kUnreachable);
  const auto dist = induced_bfs_distances(
      without_a.graph,
      [&] {
        std::vector<NodeId> all(n);
        for (NodeId v = 0; v < n; ++v) all[v] = v;
        return all;
      }(),
      lay.a_size - 1);
  EXPECT_NE(dist[lay.b_first], kUnreachable);  // port-path-B still connected
}

TEST(Generators, SublinearCliqueSize) {
  Rng rng(5);
  const NodeId n = 1000;
  const auto inst = sublinear_clique(n, 0.5, 0.02, rng);
  // n / (log2 log2 n)^alpha: log2(1000)≈9.97, log2(9.97)≈3.32, sqrt≈1.82
  const double expected = 1000.0 / std::sqrt(std::log2(std::log2(1000.0)));
  EXPECT_NEAR(static_cast<double>(inst.planted.size()), expected, 2.0);
  EXPECT_TRUE(is_clique(inst.graph, inst.planted));
}

TEST(Generators, RandomGeometricRespectsRadius) {
  Rng rng(6);
  const Graph g = random_geometric(60, 0.0, rng);
  EXPECT_EQ(g.m(), 0u);
  Rng rng2(6);
  const Graph g2 = random_geometric(60, 2.0, rng2);  // diag < 2: complete
  EXPECT_EQ(g2.m(), 60u * 59u / 2);
}

TEST(Generators, PlantedPartitionGroupZeroIsDense) {
  Rng rng(8);
  const auto inst = planted_partition(120, 4, 0.9, 0.05, rng);
  EXPECT_EQ(inst.planted.size(), 30u);
  EXPECT_GE(set_density(inst.graph, inst.planted), 0.8);
}

TEST(Generators, PowerLawWebHasPlantedCommunity) {
  Rng rng(9);
  const auto inst = power_law_web(300, 2.5, 6.0, 30, 0.0, rng);
  EXPECT_EQ(inst.planted.size(), 30u);
  EXPECT_TRUE(is_clique(inst.graph, inst.planted));
  // Power-law-ish: max degree well above average.
  std::size_t max_deg = 0;
  for (NodeId v = 0; v < inst.graph.n(); ++v) {
    max_deg = std::max(max_deg, inst.graph.degree(v));
  }
  const double avg = 2.0 * static_cast<double>(inst.graph.m()) / 300.0;
  EXPECT_GT(static_cast<double>(max_deg), 3.0 * avg);
}

TEST(Generators, PowerLawWebOfAverageDegreeZeroIsTheCommunityAlone) {
  // avg_deg = 0 leaves no background edges on both the exact path and the
  // streaming one above kStreamingCutoffN, not K_n or a zero-weight throw.
  for (const NodeId n : {NodeId{300}, NodeId{kStreamingCutoffN + 1}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(9);
    const auto inst = power_law_web(n, 2.5, 0.0, 30, 0.0, rng);
    EXPECT_EQ(inst.graph.n(), n);
    EXPECT_EQ(inst.graph.m(), 30u * 29 / 2);
    EXPECT_TRUE(is_clique(inst.graph, inst.planted));
  }
}

TEST(Generators, PermuteInstancePreservesStructure) {
  Rng rng(10);
  GraphBuilder b(20);
  b.add_clique({0, 1, 2, 3, 4});
  b.add_path({5, 6, 7});
  const Graph g = b.build();
  const auto inst = permute_instance(g, {0, 1, 2, 3, 4}, rng);
  EXPECT_EQ(inst.graph.n(), g.n());
  EXPECT_EQ(inst.graph.m(), g.m());
  EXPECT_TRUE(is_clique(inst.graph, inst.planted));
  EXPECT_EQ(inst.planted.size(), 5u);
}

TEST(Generators, DeterministicGivenSeed) {
  PlantedNearCliqueParams params;
  params.n = 80;
  params.clique_size = 30;
  params.eps_missing = 0.05;
  Rng r1(77), r2(77);
  const auto a = planted_near_clique(params, r1);
  const auto b = planted_near_clique(params, r2);
  EXPECT_EQ(a.graph.edge_list(), b.graph.edge_list());
  EXPECT_EQ(a.planted, b.planted);
}

}  // namespace
}  // namespace nc
