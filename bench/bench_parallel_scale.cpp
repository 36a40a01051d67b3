// Sharded-engine scaling benchmark: rounds/sec and deliveries/sec at 1, 2,
// 4 and 8 delivery threads on 100k–1M-node workloads, written to
// BENCH_parallel.json. Two workloads bracket the engine:
//
//  - ring_chatter: every node streams to its ring successor, so every link
//    carries traffic every round — the maximally parallel delivery load
//    (pure stage/deliver/wake pipeline, no protocol logic).
//  - planted_protocol: the full DistNearClique protocol on a sparse
//    planted-clique graph — realistic mixed load (bursty traffic, alarms,
//    fast-forwarded idle stretches).
//
// Every configuration is also run as a determinism cross-check: the
// RunStats of each thread count must equal the 1-thread run bit-for-bit
// (the sharded engine's contract), and the bench aborts loudly if not.
//
// The JSON artifact records std::thread::hardware_concurrency() alongside
// the results: thread counts above it time-slice one core and measure
// synchronization overhead, not speedup. See docs/benchmarks.md.
//
// Usage: bench_parallel_scale [--json PATH] [--full]
//   --json PATH  write the JSON artifact to PATH (default BENCH_parallel.json)
//   --full       include the 1M-node configurations (slower)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "core/params.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "runtime/network.hpp"
#include "util/bitio.hpp"
#include "util/rng.hpp"

namespace nc {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Ring + `chords_per_node` random chords: connected, sparse, O(m) to build.
Graph ring_with_chords(NodeId n, unsigned chords_per_node, std::uint64_t seed) {
  GraphBuilder b(n);
  Rng rng(seed);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  for (NodeId v = 0; v < n; ++v) {
    for (unsigned c = 0; c < chords_per_node; ++c) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      if (u != v) b.add_edge(v, u);
    }
  }
  return b.build();
}

/// Ring + chords background with a planted clique and a random halo.
Graph planted_clique_sparse(NodeId n, NodeId clique, unsigned chords_per_node,
                            unsigned halo_per_member, std::uint64_t seed) {
  GraphBuilder b(n);
  Rng rng(seed);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  for (NodeId v = 0; v < n; ++v) {
    for (unsigned c = 0; c < chords_per_node; ++c) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      if (u != v) b.add_edge(v, u);
    }
  }
  std::vector<NodeId> members;
  for (NodeId v = 0; v < clique; ++v) members.push_back(v);
  b.add_clique(members);
  for (const NodeId m : members) {
    for (unsigned h = 0; h < halo_per_member; ++h) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      if (u != m) b.add_edge(m, u);
    }
  }
  return b.build();
}

constexpr std::uint16_t kChatKind = 1;

/// Streams `symbols` 8-bit symbols to the ring successor and reads the ring
/// predecessor's stream; done when the inbound stream finishes.
class RingChatter : public INode {
 public:
  RingChatter(std::size_t succ_ni, std::size_t pred_ni, std::size_t symbols)
      : succ_ni_(succ_ni), pred_ni_(pred_ni), symbols_(symbols) {}

  void on_start(NodeApi& api) override {
    auto ch = api.open_stream_one(StreamKey{kChatKind, api.id(), 0}, succ_ni_);
    for (std::size_t i = 0; i < symbols_; ++i) ch.put(i & 0xffu, 8);
    ch.close();
  }

  void on_round(NodeApi& api) override {
    const NodeId pred = api.neighbors()[pred_ni_];
    InStream* in = api.find_in(pred_ni_, StreamKey{kChatKind, pred, 0});
    if (in == nullptr) return;
    while (in->available() > 0) checksum_ += in->pop();
    if (in->finished()) api.set_done();
  }

  std::uint64_t checksum_ = 0;

 private:
  std::size_t succ_ni_;
  std::size_t pred_ni_;
  std::size_t symbols_;
};

struct Row {
  std::string name;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  unsigned threads = 1;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  double run_seconds = 0;
  double speedup_vs_1t = 1.0;
  NetProfile profile;  // per-phase seconds + arena/lane high-water marks

  [[nodiscard]] double rounds_per_sec() const {
    return run_seconds > 0 ? static_cast<double>(rounds) / run_seconds : 0;
  }
  [[nodiscard]] double deliveries_per_sec() const {
    return run_seconds > 0 ? static_cast<double>(messages) / run_seconds : 0;
  }
};

void check_identical(const Row& base, const Row& row) {
  if (row.rounds != base.rounds || row.messages != base.messages ||
      row.bits != base.bits) {
    std::cerr << "DETERMINISM VIOLATION: " << row.name << " n=" << row.n
              << " threads=" << row.threads
              << " diverged from the 1-thread run\n";
    std::exit(1);
  }
}

/// ring_chatter: every node streams ~target_rounds rounds of traffic to its
/// ring successor; all 2m links in the ring direction are busy every round.
Row bench_ring_chatter(const Graph& g, NodeId n, unsigned threads,
                       std::uint64_t target_rounds) {
  Row row;
  row.name = "ring_chatter";
  row.threads = threads;

  const unsigned idb = id_width(n);
  const std::size_t budget = 8u * idb;
  const std::size_t header = stream_header_bits(idb);
  const std::size_t per_round = (budget - header) / 8;
  const std::size_t symbols = per_round * target_rounds;

  NetConfig cfg;
  cfg.seed = 7;
  cfg.max_rounds = target_rounds + 64;
  cfg.threads = threads;
  cfg.profile = &row.profile;
  Network net(g, cfg, [&](NodeId v) -> std::unique_ptr<INode> {
    const auto nb = g.neighbors(v);
    const NodeId succ = (v + 1) % n;
    const NodeId pred = (v + n - 1) % n;
    std::size_t succ_ni = 0, pred_ni = 0;
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if (nb[i] == succ) succ_ni = i;
      if (nb[i] == pred) pred_ni = i;
    }
    return std::make_unique<RingChatter>(succ_ni, pred_ni, symbols);
  });

  const auto t0 = Clock::now();
  const RunStats stats = net.run();
  row.run_seconds = seconds_since(t0);
  row.n = n;
  row.m = g.m();
  row.rounds = stats.rounds;
  row.messages = stats.messages;
  row.bits = stats.bits;
  return row;
}

/// planted_protocol: DistNearClique end-to-end.
Row bench_planted_protocol(const Graph& g, NodeId n, unsigned threads) {
  Row row;
  row.name = "planted_protocol";
  row.threads = threads;

  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.05;
  cfg.proto.versions = 1;
  cfg.net.seed = 5;
  cfg.net.max_rounds = 400'000;
  cfg.net.threads = threads;
  cfg.net.profile = &row.profile;

  const auto t0 = Clock::now();
  const auto res = run_dist_near_clique(g, cfg);
  row.run_seconds = seconds_since(t0);
  row.n = n;
  row.m = g.m();
  row.rounds = res.stats.rounds;
  row.messages = res.stats.messages;
  row.bits = res.stats.bits;
  return row;
}

bool write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"parallel_scale\",\n";
  os << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n";
  os << "  \"thread_counts\": [1, 2, 4, 8],\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"name\": \"" << r.name << "\", \"n\": " << r.n
       << ", \"m\": " << r.m << ", \"threads\": " << r.threads
       << ", \"rounds\": " << r.rounds << ", \"messages\": " << r.messages
       << ", \"bits\": " << r.bits << ", \"run_seconds\": " << r.run_seconds
       << ", \"rounds_per_sec\": " << r.rounds_per_sec()
       << ", \"deliveries_per_sec\": " << r.deliveries_per_sec()
       << ", \"speedup_vs_1t\": " << r.speedup_vs_1t
       // Per-phase engine profile (docs/benchmarks.md); every thread
       // count runs the same stage/deliver/wake pipeline.
       << ", \"stage_seconds\": " << r.profile.stage_seconds
       << ", \"deliver_seconds\": " << r.profile.deliver_seconds
       << ", \"wake_seconds\": " << r.profile.wake_seconds
       << ", \"arena_bytes_total\": " << r.profile.arena_bytes_total
       << ", \"arena_bytes_peak_shard\": " << r.profile.arena_bytes_peak_shard
       << ", \"lane_msgs_peak\": " << r.profile.lane_msgs_peak
       << ", \"broadcast_payload_bytes_saved\": "
       << r.profile.broadcast_payload_bytes_saved << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.good();
}

}  // namespace
}  // namespace nc

int main(int argc, char** argv) {
  std::string json_path = "BENCH_parallel.json";
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      std::cerr << "usage: bench_parallel_scale [--json PATH] [--full]\n"
                << "unknown argument: " << argv[i] << "\n";
      return 2;
    }
  }

  const unsigned kThreadCounts[] = {1, 2, 4, 8};
  std::vector<nc::Row> rows;

  struct ChatterCfg {
    nc::NodeId n;
    std::uint64_t rounds;
  };
  std::vector<ChatterCfg> chatter = {{100'000, 120}, {500'000, 40}};
  if (full) chatter.push_back({1'000'000, 24});
  for (const auto& cc : chatter) {
    const nc::Graph g = nc::ring_with_chords(cc.n, 3, /*seed=*/42);
    std::size_t base_at = rows.size();
    for (const unsigned t : kThreadCounts) {
      nc::Row row = nc::bench_ring_chatter(g, cc.n, t, cc.rounds);
      nc::check_identical(rows.size() == base_at ? row : rows[base_at], row);
      row.speedup_vs_1t = rows.size() == base_at
                              ? 1.0
                              : rows[base_at].run_seconds / row.run_seconds;
      std::cout << row.name << " n=" << row.n << " threads=" << row.threads
                << " rounds=" << row.rounds << " messages=" << row.messages
                << " run=" << row.run_seconds
                << "s rounds/sec=" << row.rounds_per_sec()
                << " speedup=" << row.speedup_vs_1t << "\n";
      rows.push_back(std::move(row));
    }
  }

  std::vector<nc::NodeId> proto_sizes = {100'000};
  if (full) proto_sizes.push_back(1'000'000);
  for (const nc::NodeId n : proto_sizes) {
    const nc::Graph g =
        nc::planted_clique_sparse(n, 32, 2, 3, /*seed=*/11);
    std::size_t base_at = rows.size();
    for (const unsigned t : kThreadCounts) {
      nc::Row row = nc::bench_planted_protocol(g, n, t);
      nc::check_identical(rows.size() == base_at ? row : rows[base_at], row);
      row.speedup_vs_1t = rows.size() == base_at
                              ? 1.0
                              : rows[base_at].run_seconds / row.run_seconds;
      std::cout << row.name << " n=" << row.n << " threads=" << row.threads
                << " rounds=" << row.rounds << " messages=" << row.messages
                << " run=" << row.run_seconds
                << "s rounds/sec=" << row.rounds_per_sec()
                << " speedup=" << row.speedup_vs_1t << "\n";
      rows.push_back(std::move(row));
    }
  }

  if (!nc::write_json(json_path, rows)) {
    std::cerr << "error: could not write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
