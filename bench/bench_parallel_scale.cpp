// Sharded-engine scaling benchmark: rounds/sec and deliveries/sec at 1, 2,
// 4 and 8 delivery threads on 100k–1M-node workloads, written to
// BENCH_parallel.json. Two workloads from engine_workloads.hpp bracket the
// engine: ring_chatter (every link busy every round, no protocol logic) and
// planted_protocol (DistNearClique: bursty traffic, alarms, fast-forwarded
// idle stretches).
//
// Every configuration is also run as a determinism cross-check: the
// RunStats of each thread count must equal the 1-thread run bit-for-bit
// (the sharded engine's contract), and the bench aborts loudly if not.
//
// The JSON artifact records std::thread::hardware_concurrency() alongside
// the results: thread counts above it time-slice the cores and measure
// synchronization overhead, not speedup. See docs/benchmarks.md.
//
// Usage: bench_parallel_scale [--json PATH] [--full]
//   --json PATH  write the JSON artifact to PATH (default BENCH_parallel.json)
//   --full       include the 1M-node configurations (slower)

#include <cstdlib>
#include <iostream>
#include <vector>

#include "engine_workloads.hpp"

int main(int argc, char** argv) {
  using namespace nc::bench;
  BenchArgs args{"BENCH_parallel.json"};
  if (!parse_bench_args(argc, argv, args)) return 2;

  // Runs `run(threads)` at each thread count; the first run is the 1-thread
  // reference every other one must reproduce.
  std::vector<Row> rows;
  const auto scale = [&](const char* name, const nc::Graph& g, auto&& run) {
    const std::size_t base = rows.size();
    for (const unsigned t : {1u, 2u, 4u, 8u}) {
      Row row{name, g.n(), g.m(), t, run(t)};
      if (rows.size() > base) {
        if (row.run.stats != rows[base].run.stats) {
          std::cerr << "DETERMINISM VIOLATION: " << name << " n=" << row.n
                    << " threads=" << t << " diverged from the 1-thread run\n";
          std::exit(1);
        }
        row.speedup_vs_1t = rows[base].run.run_seconds / row.run.run_seconds;
      }
      print_row(row);
      rows.push_back(std::move(row));
    }
  };

  struct Chatter {
    nc::NodeId n;
    std::uint64_t rounds;
  };
  for (const Chatter c : {Chatter{100'000, 120}, Chatter{500'000, 40},
                          Chatter{1'000'000, 24}}) {
    if (c.n > 500'000 && !args.full) continue;
    const nc::Graph g = ring_with_chords(c.n, 3, /*seed=*/42);
    scale("ring_chatter", g, [&](unsigned t) {
      return run_ring_chatter(g, c.rounds, t, /*profiled=*/true);
    });
  }
  for (const nc::NodeId n : {100'000u, 1'000'000u}) {
    if (n > 100'000 && !args.full) continue;
    const nc::Graph g = ring_with_chords(n, 2, /*seed=*/11, 32, 3);
    scale("planted_protocol", g, [&](unsigned t) {
      return run_protocol(g, t, /*profiled=*/true);
    });
  }

  return write_artifact(args.json_path, "parallel_scale",
                        "  \"thread_counts\": [1, 2, 4, 8],\n", rows);
}
