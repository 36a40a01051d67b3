// Bursty evolution of blogspace — the paper's temporal motivation [14]:
// significant events in an evolving link graph appear as *dense subgraphs*
// emerging over time. This example simulates a sequence of graph snapshots
// in which a community of blogs gradually links up ("an event building"),
// runs DistNearClique on every snapshot with boosting (lambda = 3), and
// shows the discovered near-clique growing as the event crystallizes.
//
//   ./blog_burst [--n=250] [--event=45] [--steps=6] [--seed=5]

#include <algorithm>
#include <cstdio>
#include <exception>

#include "algo/registry.hpp"
#include "expt/scenario.hpp"
#include "graph/metrics.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  const nc::Args args(argc, argv);
  args.reject_unknown("example_blog_burst", {"n", "event", "steps", "seed"});
  const auto n = static_cast<nc::NodeId>(args.get_int("n", 250));
  const auto event = static_cast<nc::NodeId>(args.get_int("event", 45));
  const auto steps = static_cast<unsigned>(args.get_int("steps", 6));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));

  std::printf("blogspace: n=%u, event community of %u blogs, %u snapshots\n",
              n, event, steps);
  std::printf("%-6s %-14s %-12s %-10s %-8s\n", "t", "event_density",
              "found_size", "density", "overlap");

  // Snapshot t: background blog links (persistent across time — same seed)
  // plus the first t/steps fraction of the event community's internal links,
  // via the registered "blog_snapshot" scenario family.
  for (unsigned t = 0; t <= steps; ++t) {
    const auto inst = nc::make_scenario("blog_snapshot",
                                        nc::ScenarioParams()
                                            .with("n", n)
                                            .with("event", event)
                                            .with("step", t)
                                            .with("steps", steps),
                                        seed);
    const auto& g = inst.graph;
    const auto& community = inst.planted;
    const double event_density = nc::set_density(g, community);

    // Boosting is an algorithm parameter (versions/window) behind the same
    // registry entry the plain runs use.
    const auto result = nc::run_algorithm(g, "dist_near_clique",
                                          nc::AlgoParams()
                                              .with("eps", 0.2)
                                              .with("pn", 9.0)
                                              .with("versions", 3)
                                              .with("window", 4'000'000)
                                              .with("max_rounds", 64'000'000),
                                          seed + t);

    const auto found = result.largest_cluster();
    std::size_t overlap = 0;
    for (const auto v : found) {
      if (std::binary_search(community.begin(), community.end(), v)) {
        ++overlap;
      }
    }
    std::printf("%-6u %-14.3f %-12zu %-10.3f %zu/%u\n", t, event_density,
                found.size(), found.empty() ? 0.0 : nc::set_density(g, found),
                overlap, event);
  }
  std::printf(
      "\nThe discovered near-clique emerges as the event's density crosses "
      "the detection threshold — the temporal signature of [14].\n");
  return 0;
} catch (const std::exception& e) {
  // Malformed or unknown flags: name the flag and exit 2, like
  // `nearclique run`.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
