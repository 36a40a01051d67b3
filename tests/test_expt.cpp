#include <gtest/gtest.h>

#include "expt/scenario.hpp"
#include "expt/trial.hpp"
#include "graph/metrics.hpp"

namespace nc {
namespace {

/// The "theorem" family (Theorem 2.1/5.7 premise) at explicit parameters.
Instance theorem_instance(NodeId n, double delta, double eps,
                          double background_p, double halo_p,
                          std::uint64_t seed) {
  return make_scenario("theorem",
                       ScenarioParams()
                           .with("n", n)
                           .with("delta", delta)
                           .with("eps", eps)
                           .with("background_p", background_p)
                           .with("halo_p", halo_p),
                       seed);
}

TEST(Workloads, TheoremInstanceMeetsPremise) {
  const double eps = 0.2;
  const auto inst = theorem_instance(150, 0.4, eps, 0.08, 0.2, 7);
  EXPECT_EQ(inst.planted.size(), 60u);
  // The premise of Theorem 5.7: D is an eps^3-near clique of size delta*n.
  EXPECT_TRUE(is_near_clique(inst.graph, inst.planted, eps * eps * eps));
}

TEST(Workloads, DeterministicInSeed) {
  const auto a = theorem_instance(100, 0.5, 0.2, 0.1, 0.2, 3);
  const auto b = theorem_instance(100, 0.5, 0.2, 0.1, 0.2, 3);
  EXPECT_EQ(a.graph.edge_list(), b.graph.edge_list());
  EXPECT_EQ(a.planted, b.planted);
  const auto c = theorem_instance(100, 0.5, 0.2, 0.1, 0.2, 4);
  EXPECT_NE(a.graph.edge_list(), c.graph.edge_list());
}

TEST(Workloads, FamiliesProduceExpectedShapes) {
  EXPECT_EQ(make_scenario("linear",
                          ScenarioParams().with("n", 100).with("eps", 0.2), 1)
                .planted.size(),
            50u);
  const auto sub = make_scenario(
      "sublinear", ScenarioParams().with("n", 500).with("alpha", 0.5), 2);
  EXPECT_GT(sub.planted.size(), 200u);
  EXPECT_LT(sub.planted.size(), 500u);
  const auto ce = make_scenario(
      "counterexample", ScenarioParams().with("n", 100).with("delta", 0.5), 3);
  EXPECT_EQ(ce.planted.size(), 50u);
  const auto barbell = make_scenario(
      "barbell", ScenarioParams().with("n", 64).with("delete_a_edges", false),
      0);
  EXPECT_EQ(barbell.planted.size(), 16u);
  const auto web = make_scenario(
      "web",
      ScenarioParams().with("n", 200).with("community", 30).with("eps", 0.2),
      4);
  EXPECT_EQ(web.planted.size(), 30u);
}

TEST(Theorem57, BoundsFormula) {
  // (1 - 13/2 eps)|D| - eps^{-2}: with eps=0.1, |D|=1000 this is 250.
  const auto b = theorem57_bounds(0.1, 0.5, 1000);
  EXPECT_NEAR(b.min_size, 0.35 * 1000 - 100.0, 1e-9);
  EXPECT_NEAR(b.max_eps_out, (1.0 / 0.35) * (0.1 / 0.5), 1e-9);
  // Small planted sets: the -eps^{-2} term dominates and the floor applies.
  EXPECT_DOUBLE_EQ(theorem57_bounds(0.1, 0.5, 10).min_size, 2.0);
  EXPECT_DOUBLE_EQ(theorem57_bounds(0.1, 0.5, 100).min_size, 2.0);
}

}  // namespace
}  // namespace nc
