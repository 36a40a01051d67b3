// The paper's proved bounds as tier-1 checks (arXiv:0905.4147): Lemma 5.1's
// round complexity, Lemma 5.2's sample-size tail, Lemma 5.3's candidate
// density and Section 4.1's boosting. Each runs at small n in well under a
// second; the sweeps in bench/specs/ show the same claims at the
// experiments' sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/oracle.hpp"
#include "expt/scenario.hpp"
#include "expt/sweep.hpp"
#include "graph/builder.hpp"
#include "graph/metrics.hpp"

namespace nc {
namespace {

TEST(Lemma51, RoundsWithinFixedStagesPlusTwoToTheSampleSize) {
  // Lemma 5.1: an execution takes O(2^|S|) rounds. The sampling,
  // election, gather and decision stages cost a few dozen rounds whatever
  // |S| is, and the exploration's subset-indexed convergecasts fewer rounds
  // than S has subsets. The bound does not depend on n, which is
  // Corollary 2.2's O(1) rounds at fixed pn.
  constexpr std::uint64_t kFixedStages = 48;
  std::size_t largest_sample = 0;
  for (const NodeId n : {60u, 120u}) {
    for (const double pn : {2.0, 4.0, 6.0, 8.0}) {
      if (n == 120 && pn > 4.0) continue;  // keeps the test under a second
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        // E5's instance: an exact clique of n/2 (the family's default
        // background and halo).
        const Instance inst = make_scenario(
            "theorem",
            ScenarioParams().with("n", n).with("delta", 0.5).with("eps", 0.0),
            seed);
        DriverConfig cfg;
        cfg.proto.eps = 0.2;
        cfg.proto.p = pn / static_cast<double>(n);
        cfg.net.seed = seed;
        cfg.net.max_rounds = 4'000'000;
        const auto sample = oracle_sample(inst.graph, cfg.proto.p, seed, 1);
        const auto res = run_dist_near_clique(inst.graph, cfg);
        ASSERT_FALSE(res.aborted());
        const std::uint64_t bound = kFixedStages + (1ULL << sample.size());
        EXPECT_LE(res.stats.rounds, bound)
            << "n=" << n << " pn=" << pn << " seed=" << seed
            << " |S|=" << sample.size();
        largest_sample = std::max(largest_sample, sample.size());
      }
    }
  }
  // The exploration term dominates the fixed stages in some run.
  EXPECT_GE(largest_sample, 10u);
}

TEST(Lemma52, SampleTailBelowChernoffBound) {
  // Lemma 5.2: Pr[|S| > 2pn] <= e^{-pn/3}. The sample is the protocol's
  // own coins (oracle_sample replays them); topology does not matter.
  const NodeId n = 1000;
  const std::size_t trials = 2000;
  const Graph g = GraphBuilder(n).build();
  for (const double pn : {2.0, 4.0, 6.0, 9.0, 12.0}) {
    const double p = pn / static_cast<double>(n);
    std::size_t above = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto s = oracle_sample(g, p, 0xe6000 + t, 1);
      if (static_cast<double>(s.size()) > 2.0 * pn) ++above;
    }
    const double tail = static_cast<double>(above) / trials;
    EXPECT_LE(tail, std::exp(-pn / 3.0)) << "pn=" << pn;
  }
}

TEST(Lemma53, EveryOracleCandidateIsNearClique) {
  // Lemma 5.3 is unconditional: every candidate T_eps(X) with t members is
  // an (n eps / t)-near clique. The centralized oracle exposes every live
  // component's winner, so check all of them, on planted, random and
  // power-law graphs.
  struct Family {
    std::string name;
    ScenarioParams params;
    std::vector<double> eps;
  };
  const std::vector<Family> families = {
      {"theorem",
       ScenarioParams()
           .with("n", 150)
           .with("delta", 0.4)
           .with("eps", 0.2)
           .with("background_p", 0.1)
           .with("halo_p", 0.25),
       {0.1, 0.2, 0.3}},
      {"erdos_renyi", ScenarioParams().with("n", 150).with("p", 0.3),
       {0.1, 0.2}},
      {"web",
       ScenarioParams().with("n", 200).with("community", 40).with("eps", 0.2),
       {0.2}},
  };
  std::size_t candidates = 0;
  for (const auto& family : families) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const Instance inst = make_scenario(family.name, family.params, seed);
      const double n = static_cast<double>(inst.graph.n());
      for (const double eps : family.eps) {
        ProtocolParams proto;
        proto.eps = eps;
        proto.p = 8.0 / n;
        const auto orc = run_oracle(inst.graph, proto, seed);
        for (std::size_t i = 0; i < orc.candidates.size(); ++i) {
          const auto& t_set = orc.t_sets[i];
          if (!orc.candidates[i].live || t_set.size() < 2) continue;
          ++candidates;
          const double bound = n * eps / static_cast<double>(t_set.size());
          EXPECT_LE(1.0 - set_density(inst.graph, t_set), bound + 1e-9)
              << family.name << " seed=" << seed << " eps=" << eps
              << " |T|=" << t_set.size();
        }
      }
    }
  }
  EXPECT_GE(candidates, 50u);  // 55 live candidates at these seeds
}

TEST(Boosting, TwoVersionsSucceedWhereverOneDoes) {
  // Section 4.1: lambda independent versions with one decision stage fail
  // with probability (1-r)^lambda instead of 1-r. On each fixed seed the
  // second version only adds candidates and the decision keeps the
  // largest, so versions=2 succeeds wherever versions=1 does, and so at
  // least as often.
  std::size_t one = 0;
  std::size_t two = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SweepSpec spec;
    spec.scenario_family = "theorem";
    spec.scenario_params = ScenarioParams().with("n", 120).with("delta", 0.4);
    spec.algorithms = {{"dist_near_clique",
                        AlgoParams()
                            .with("pn", 3.0)
                            .with("window", 2000)
                            .with("max_rounds", 1'000'000)}};
    spec.axes = {{SweepAxis::Target::kAlgorithm, "versions", {1, 2}}};
    spec.trials = 1;
    spec.seed_base = seed;
    spec.success.kind = SuccessSpec::Kind::kEffective;
    const auto rows = run_sweep(spec);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_LE(rows[0].stats.successes, rows[1].stats.successes)
        << "seed " << seed;
    one += rows[0].stats.successes;
    two += rows[1].stats.successes;
  }
  // Not vacuous: one version fails on some seeds, and a second version
  // recovers at least one of them.
  EXPECT_LT(one, 12u);
  EXPECT_GT(two, one);
}

}  // namespace
}  // namespace nc
