// Quickstart: build any registered scenario, run Algorithm DistNearClique on
// the simulated CONGEST network, and print what it found.
//
//   ./quickstart [--scenario=planted_near_clique] [--params=k1=v1,k2=v2]
//                [--seed=1] [--eps=0.2] [--pn=9]
//                [--dot=out.dot]   (Graphviz export of the result)
//   ./quickstart --list            (catalogue of scenario families)
//
// Every instance family in the ScenarioRegistry can be run without
// recompiling, e.g.:
//
//   ./quickstart --scenario=web --params=n=400,community=60 --seed=7
//   ./quickstart --scenario=erdos_renyi --params=n=500,p=0.15

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>

#include "algo/registry.hpp"
#include "expt/scenario.hpp"
#include "graph/dot.hpp"
#include "graph/metrics.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  const nc::Args args(argc, argv);
  // The pre-registry flags were --n/--clique/--pn; reject the removed ones
  // loudly instead of silently running the default instance.
  for (const auto* legacy : {"n", "clique"}) {
    if (args.has(legacy)) {
      std::fprintf(stderr,
                   "error: --%s was replaced by --params=%s=...; see --list\n",
                   legacy, std::string(legacy) == "clique" ? "clique_size"
                                                           : legacy);
      return 2;
    }
  }
  args.reject_unknown(
      "example_quickstart",
      {"list", "scenario", "params", "seed", "eps", "pn", "dot"});
  if (args.has("list")) {
    std::printf("registered scenario families:\n%s",
                nc::describe_families(nc::ScenarioRegistry::global()).c_str());
    return 0;
  }
  const auto scenario = args.get("scenario", "planted_near_clique");
  const auto params = args.get("params", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double eps = args.get_double("eps", 0.2);
  const double pn = args.get_double("pn", 9.0);

  // 1. Resolve the instance through the scenario registry: family name +
  //    typed parameter overrides + seed. --list shows what is available.
  const nc::Instance instance = [&]() -> nc::Instance {
    try {
      return nc::ScenarioRegistry::global().make(
          nc::parse_scenario_spec(scenario, params, seed));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n(run with --list for the catalogue)\n",
                   e.what());
      std::exit(2);
    }
  }();
  const auto n = instance.graph.n();
  std::printf("scenario %s (seed %llu): n=%u, m=%zu, planted=%zu",
              scenario.c_str(), static_cast<unsigned long long>(seed), n,
              instance.graph.m(), instance.planted.size());
  if (!instance.planted.empty()) {
    std::printf(", density(planted)=%.4f",
                nc::set_density(instance.graph, instance.planted));
  }
  std::printf("\n");

  // 2. Resolve the algorithm through the algorithm registry (the symmetric
  //    half of step 1) and run it. Every node runs the same protocol; the
  //    simulator enforces O(log n)-bit messages per edge per round and
  //    reports the traffic. `nearclique run` exposes the same pair of
  //    lookups with every registered algorithm.
  const auto result = nc::run_algorithm(
      instance.graph, "dist_near_clique",
      nc::AlgoParams().with("eps", eps).with("pn", pn), seed);

  std::printf("execution: %s\n", result.stats.summary().c_str());

  // 3. Inspect the output labels.
  const auto clusters = result.clusters();
  std::printf("near-cliques found: %zu\n", clusters.size());
  for (const auto& [label, members] : clusters) {
    std::size_t overlap = 0;
    for (const auto v : members) {
      if (std::binary_search(instance.planted.begin(), instance.planted.end(),
                             v)) {
        ++overlap;
      }
    }
    std::printf(
        "  label (root=%u, version=%u): %zu nodes, density %.4f, "
        "%zu/%zu of planted\n",
        nc::label_root(label), nc::label_version(label), members.size(),
        nc::set_density(instance.graph, members), overlap,
        instance.planted.size());
  }
  if (args.has("dot")) {
    const auto path = args.get("dot");
    std::ofstream out(path);
    out << nc::to_dot(instance.graph, clusters);
    std::printf("wrote %s (render with: dot -Tsvg %s)\n", path.c_str(),
                path.c_str());
  }
  if (clusters.empty()) {
    std::printf(
        "  none — the algorithm succeeds with constant probability; try "
        "another --seed or a larger --pn\n");
  }
  return 0;
} catch (const std::exception& e) {
  // Malformed or unknown flags: name the flag and exit 2, like
  // `nearclique run`.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
