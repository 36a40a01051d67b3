// Web-community discovery — the paper's search-engine motivation.
//
// PageRank-style link analysis is "heavily influenced by tightly knit
// communities" [15]; identifying them means finding large near-cliques in a
// power-law web graph. This example builds a Chung-Lu web graph with a
// hidden near-clique community planted among the *low-degree* tail (so
// degree heuristics cannot see it), runs DistNearClique, and compares what
// it recovers against centralized peeling — which, drawn to globally dense
// regions, often reports the high-degree core instead.
//
//   ./web_communities [--n=400] [--community=50] [--eps=0.2] [--seed=3]

#include <algorithm>
#include <cstdio>
#include <exception>

#include "algo/registry.hpp"
#include "expt/scenario.hpp"
#include "graph/metrics.hpp"
#include "util/cli.hpp"

namespace {

std::size_t overlap_with(const std::vector<nc::NodeId>& sorted_planted,
                         const std::vector<nc::NodeId>& found) {
  std::size_t overlap = 0;
  for (const auto v : found) {
    if (std::binary_search(sorted_planted.begin(), sorted_planted.end(), v)) {
      ++overlap;
    }
  }
  return overlap;
}

}  // namespace

int main(int argc, char** argv) try {
  const nc::Args args(argc, argv);
  args.reject_unknown("example_web_communities",
                      {"n", "community", "eps", "seed"});
  const auto n = static_cast<nc::NodeId>(args.get_int("n", 400));
  const auto community = static_cast<nc::NodeId>(args.get_int("community", 50));
  const double eps = args.get_double("eps", 0.2);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));

  const auto inst = nc::make_scenario("power_law_web",
                                      nc::ScenarioParams()
                                          .with("n", n)
                                          .with("gamma", 2.5)
                                          .with("avg_deg", 8.0)
                                          .with("community", community)
                                          .with("eps_missing", eps * eps * eps),
                                      seed);
  std::printf("web graph: n=%u, m=%zu, hidden community of %zu pages "
              "(density %.3f)\n",
              inst.graph.n(), inst.graph.m(), inst.planted.size(),
              nc::set_density(inst.graph, inst.planted));

  // Distributed discovery: every page is a processor, links are edges.
  // Both algorithms below resolve through the same AlgorithmRegistry the
  // benches and the nearclique CLI use.
  const auto result = nc::run_algorithm(
      inst.graph, "dist_near_clique",
      nc::AlgoParams().with("eps", eps).with("pn", 10.0), seed);
  const auto found = result.largest_cluster();
  std::printf("\nDistNearClique (%llu rounds, max %llu-bit messages):\n",
              static_cast<unsigned long long>(result.stats.rounds),
              static_cast<unsigned long long>(result.stats.max_message_bits));
  std::printf("  community found: %zu nodes, density %.3f, overlap %zu/%zu\n",
              found.size(),
              found.empty() ? 0.0 : nc::set_density(inst.graph, found),
              overlap_with(inst.planted, found), inst.planted.size());

  // Centralized comparison: greedy peeling needs the whole graph in one
  // place and O(m) sequential work.
  const auto peeled =
      nc::run_algorithm(inst.graph, "peeling",
                        nc::AlgoParams().with("eps", eps), seed)
          .largest_cluster();
  std::printf("\ncentralized peeling:\n");
  std::printf("  largest %.2f-near clique: %zu nodes, overlap %zu/%zu\n", eps,
              peeled.size(), overlap_with(inst.planted, peeled),
              inst.planted.size());
  return 0;
} catch (const std::exception& e) {
  // Malformed or unknown flags: name the flag and exit 2, like
  // `nearclique run`.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
