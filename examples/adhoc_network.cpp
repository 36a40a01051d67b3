// Ad-hoc radio network clustering — the paper's low-level networking
// motivation ([4], [12]): dense subgraphs of the communication graph mark
// radio conflict zones and natural clusters for backbone formation.
//
// This example drops nodes uniformly in the unit square (unit-disk
// connectivity), adds one congested hot-spot (a dense cluster of devices in
// a small area), and uses DistNearClique to detect it in O(1) rounds with
// CONGEST messages — exactly the regime where collecting the topology at a
// sink would be prohibitive.
//
//   ./adhoc_network [--n=300] [--radius=0.12] [--hotspot=40] [--seed=7]

#include <cstdio>
#include <exception>

#include "algo/registry.hpp"
#include "expt/scenario.hpp"
#include "graph/metrics.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  const nc::Args args(argc, argv);
  args.reject_unknown("example_adhoc_network",
                      {"n", "radius", "hotspot", "seed"});
  const auto n = static_cast<nc::NodeId>(args.get_int("n", 300));
  const double radius = args.get_double("radius", 0.12);
  const auto hotspot = static_cast<nc::NodeId>(args.get_int("hotspot", 40));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  // Geometric background + a hot-spot: the last `hotspot` nodes also form a
  // clique (devices packed within mutual radio range). The composite is a
  // registered scenario family, so benches and the quickstart CLI can run
  // the same workload.
  const auto inst = nc::make_scenario("adhoc_hotspot",
                                      nc::ScenarioParams()
                                          .with("n", n)
                                          .with("radius", radius)
                                          .with("hotspot", hotspot),
                                      seed);

  std::printf("ad-hoc network: n=%u, m=%zu, hot-spot of %zu devices\n",
              inst.graph.n(), inst.graph.m(), inst.planted.size());
  double avg_deg = 0;
  for (nc::NodeId v = 0; v < inst.graph.n(); ++v) {
    avg_deg += static_cast<double>(inst.graph.degree(v));
  }
  std::printf("average degree: %.1f\n", avg_deg / inst.graph.n());

  // Same registry resolution as `nearclique run --algo=dist_near_clique`.
  const auto result = nc::run_algorithm(
      inst.graph, "dist_near_clique",
      nc::AlgoParams().with("eps", 0.15).with("pn", 9.0), seed);

  std::printf("\nDistNearClique: %s\n", result.stats.summary().c_str());
  for (const auto& [label, members] : result.clusters()) {
    std::size_t hits = 0;
    for (const auto v : members) {
      if (std::binary_search(inst.planted.begin(), inst.planted.end(), v)) {
        ++hits;
      }
    }
    std::printf(
        "  cluster root=%u: %zu devices, density %.3f (%zu in hot-spot)\n",
        nc::label_root(label), members.size(),
        nc::set_density(inst.graph, members), hits);
  }
  if (result.clusters().empty()) {
    std::printf("  no cluster this run (constant success probability; "
                "retry with another --seed)\n");
  }
  return 0;
} catch (const std::exception& e) {
  // Malformed or unknown flags: name the flag and exit 2, like
  // `nearclique run`.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
