// Simulator-core throughput benchmark: rounds/sec and deliveries/sec of the
// 1-thread engine on large sparse and planted-clique graphs. Unlike the
// E1..E12 experiment benches (which measure protocol *quality* against the
// paper's predictions) this one tracks the *runtime* hot path across PRs,
// so the perf trajectory of the event-driven core is visible in
// BENCH_runtime.json. The workloads live in engine_workloads.hpp.
//
// Usage: bench_runtime_scale [--json PATH] [--full]
//   --json PATH  write the JSON artifact to PATH (default BENCH_runtime.json)
//   --full       include the 500k-node sparse_idle and 50k-node
//                planted_protocol configurations (slower)

#include <vector>

#include "engine_workloads.hpp"

namespace {

// Historical reference: the pre-event-driven simulator (per-round full
// scans over every node and link), measured on the same workloads at the
// commit that introduced this bench. Kept in the artifact so every
// regeneration carries the comparison point.
constexpr const char* kBaselineFullScan =
    "  \"baseline_full_scan\": [\n"
    "    {\"name\": \"sparse_idle\", \"n\": 10000, "
    "\"rounds_per_sec\": 1539.2, \"deliveries_per_sec\": 48863.1},\n"
    "    {\"name\": \"sparse_idle\", \"n\": 100000, "
    "\"rounds_per_sec\": 148.5, \"deliveries_per_sec\": 4714.8},\n"
    "    {\"name\": \"planted_protocol\", \"n\": 10000, "
    "\"rounds_per_sec\": 293.8, \"deliveries_per_sec\": 907509}\n"
    "  ],\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace nc::bench;
  BenchArgs args{"BENCH_runtime.json"};
  if (!parse_bench_args(argc, argv, args)) return 2;

  std::vector<Row> rows;
  const auto add = [&](const char* name, const nc::Graph& g, EngineRun run) {
    rows.push_back({name, g.n(), g.m(), 1, std::move(run)});
    print_row(rows.back());
  };
  for (const nc::NodeId n : {10'000u, 100'000u, 500'000u}) {
    if (n > 100'000 && !args.full) continue;
    const nc::Graph g = ring_with_chords(n, 3, /*seed=*/42);
    add("sparse_idle", g, run_sparse_idle(g, 1'000, 16, /*profiled=*/true));
  }
  for (const nc::NodeId n : {10'000u, 50'000u}) {
    if (n > 10'000 && !args.full) continue;
    const nc::Graph g = ring_with_chords(n, 2, /*seed=*/11, 32, 3);
    add("planted_protocol", g, run_protocol(g, 1, /*profiled=*/true));
  }
  const nc::Graph dense = ring_with_chords(10'000, 24, /*seed=*/11, 32, 3);
  add("broadcast_fanout", dense, run_protocol(dense, 1, /*profiled=*/true));

  return write_artifact(args.json_path, "runtime_scale", kBaselineFullScan,
                        rows);
}
