// Simulator-core throughput benchmark: rounds/sec and deliveries/sec on
// large sparse and planted-clique graphs. Unlike the E1..E12 experiment
// benches (which measure protocol *quality* against the paper's predictions)
// this one tracks the *runtime* hot path across PRs, so the perf trajectory
// of the event-driven core is visible in BENCH_runtime.json.
//
// Workloads:
//  - sparse_idle: ring+chord graph where a handful of node pairs stream
//    bits at each other while every other node sleeps on a far alarm. Low
//    traffic density: per-round work should be proportional to the handful,
//    not to n or m.
//  - planted_protocol: the full DistNearClique protocol on a sparse
//    background graph with a planted clique; end-to-end deliveries/sec.
//  - broadcast_fanout: the same protocol on a dense background (avg degree
//    ~50). The protocol is broadcast-shaped — nearly every kind is an
//    open_stream_all — so staged bytes grow with degree unless the engine
//    dedups broadcast payloads; this row is the degree-scaling witness for
//    the broadcast-aware fan-out path (broadcast_payload_bytes_saved).
//
// Usage: bench_runtime_scale [--json PATH] [--full]
//   --json PATH  write the JSON artifact to PATH (default BENCH_runtime.json)
//   --full       include the 500k-node configuration (slower)

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
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

/// Ring + chords background with a planted clique (IDs 0..size-1) and a halo
/// of random clique-to-outside edges.
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

/// Streams `symbols` 8-bit symbols to one designated neighbour, reads the
/// partner's stream back, and finishes when it is fully delivered. Wakes on
/// deliveries only.
class ChatterNode : public INode {
 public:
  explicit ChatterNode(std::size_t partner_ni, std::size_t symbols)
      : partner_ni_(partner_ni), symbols_(symbols) {}

  void on_start(NodeApi& api) override {
    auto ch = api.open_stream_one(StreamKey{kChatKind, 0, 0}, partner_ni_);
    for (std::size_t i = 0; i < symbols_; ++i) ch.put(i & 0xffu, 8);
    ch.close();
  }

  void on_round(NodeApi& api) override {
    InStream* in = api.find_in(partner_ni_, StreamKey{kChatKind, 0, 0});
    if (in == nullptr) return;
    while (in->available() > 0) checksum_ += in->pop();
    if (in->finished()) api.set_done();
  }

  std::uint64_t checksum_ = 0;

 private:
  std::size_t partner_ni_;
  std::size_t symbols_;
};

/// Sleeps on one far alarm, then finishes.
class SleeperNode : public INode {
 public:
  explicit SleeperNode(std::uint64_t horizon) : horizon_(horizon) {}
  void on_start(NodeApi& api) override { api.set_alarm(horizon_); }
  void on_round(NodeApi& api) override {
    if (api.round() >= horizon_) {
      api.set_done();
    } else {
      api.set_alarm(horizon_);
    }
  }

 private:
  std::uint64_t horizon_;
};

struct Row {
  std::string name;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  double build_seconds = 0;
  double run_seconds = 0;
  NetProfile profile;  // per-phase seconds + arena/lane high-water marks

  [[nodiscard]] double rounds_per_sec() const {
    return run_seconds > 0 ? static_cast<double>(rounds) / run_seconds : 0;
  }
  [[nodiscard]] double deliveries_per_sec() const {
    return run_seconds > 0 ? static_cast<double>(messages) / run_seconds : 0;
  }
};

/// sparse_idle: `pairs` adjacent node pairs chatter for ~`target_rounds`
/// rounds while everyone else sleeps until the chatter is over.
Row bench_sparse_idle(NodeId n, std::uint64_t target_rounds, unsigned pairs) {
  Row row;
  row.name = "sparse_idle";
  const Graph g = ring_with_chords(n, 3, /*seed=*/42);

  // One message per round carries floor((B - header) / 8) 8-bit symbols.
  const unsigned idb = id_width(n);
  const std::size_t budget = 8u * idb;
  const std::size_t header = stream_header_bits(idb);
  const std::size_t per_round = (budget - header) / 8;
  const std::size_t symbols = per_round * target_rounds;
  const std::uint64_t horizon = target_rounds + 8;

  // Chatter pairs are ring neighbours (v, v+1), spread across the ID space
  // so the pre-refactor early-exit scans cannot get lucky.
  std::vector<NodeId> lo(n, kNoNode);  // partner's neighbour slot, by node
  std::vector<std::size_t> partner_ni(n, SIZE_MAX);
  for (unsigned i = 0; i < pairs; ++i) {
    const NodeId a = static_cast<NodeId>((static_cast<std::uint64_t>(i) + 1) *
                                         n / (pairs + 1));
    const NodeId b = (a + 1) % n;
    lo[a] = b;
    lo[b] = a;
  }

  const auto t0 = Clock::now();
  NetConfig cfg;
  cfg.seed = 7;
  cfg.max_rounds = horizon + 16;
  cfg.profile = &row.profile;
  Network net(g, cfg, [&](NodeId v) -> std::unique_ptr<INode> {
    if (lo[v] != kNoNode) {
      // Find the partner's index among v's sorted neighbours.
      const auto nb = g.neighbors(v);
      std::size_t ni = 0;
      while (nb[ni] != lo[v]) ++ni;
      return std::make_unique<ChatterNode>(ni, symbols);
    }
    return std::make_unique<SleeperNode>(horizon);
  });
  row.build_seconds = seconds_since(t0);

  const auto t1 = Clock::now();
  const RunStats stats = net.run();
  row.run_seconds = seconds_since(t1);
  row.n = n;
  row.m = g.m();
  row.rounds = stats.rounds;
  row.messages = stats.messages;
  row.bits = stats.bits;
  return row;
}

/// planted_protocol / broadcast_fanout: DistNearClique end-to-end on a
/// planted-clique graph; `chords_per_node` sets the background density
/// (2 chords ≈ avg degree 7 — the sparse row; 24 chords ≈ avg degree 50 —
/// the broadcast fan-out row).
Row bench_protocol(const std::string& name, NodeId n, NodeId clique,
                   unsigned chords_per_node) {
  Row row;
  row.name = name;
  const Graph g = planted_clique_sparse(n, clique, chords_per_node,
                                        /*halo_per_member=*/3, /*seed=*/11);

  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.05;
  cfg.proto.versions = 1;
  cfg.net.seed = 5;
  cfg.net.max_rounds = 400'000;
  cfg.net.profile = &row.profile;

  const auto t0 = Clock::now();
  const Schedule schedule = make_schedule(cfg.proto, g.n(), cfg.net.max_rounds);
  Network net(g, cfg.net, [&](NodeId) {
    return std::make_unique<DistNearCliqueNode>(cfg.proto, schedule);
  });
  row.build_seconds = seconds_since(t0);

  const auto t1 = Clock::now();
  const RunStats stats = net.run();
  row.run_seconds = seconds_since(t1);
  row.n = n;
  row.m = g.m();
  row.rounds = stats.rounds;
  row.messages = stats.messages;
  row.bits = stats.bits;
  return row;
}

bool write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"runtime_scale\",\n";
  // Historical reference: the pre-event-driven simulator (per-round full
  // scans over every node and link), measured on the same workloads at the
  // commit that introduced this bench. Kept in the artifact so every
  // regeneration carries the comparison point.
  os << "  \"baseline_full_scan\": [\n"
        "    {\"name\": \"sparse_idle\", \"n\": 10000, "
        "\"rounds_per_sec\": 1539.2, \"deliveries_per_sec\": 48863.1},\n"
        "    {\"name\": \"sparse_idle\", \"n\": 100000, "
        "\"rounds_per_sec\": 148.5, \"deliveries_per_sec\": 4714.8},\n"
        "    {\"name\": \"planted_protocol\", \"n\": 10000, "
        "\"rounds_per_sec\": 293.8, \"deliveries_per_sec\": 907509}\n"
        "  ],\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"name\": \"" << r.name << "\", \"n\": " << r.n
       << ", \"m\": " << r.m << ", \"rounds\": " << r.rounds
       << ", \"messages\": " << r.messages << ", \"bits\": " << r.bits
       << ", \"build_seconds\": " << r.build_seconds
       << ", \"run_seconds\": " << r.run_seconds
       << ", \"rounds_per_sec\": " << r.rounds_per_sec()
       << ", \"deliveries_per_sec\": " << r.deliveries_per_sec()
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
  std::string json_path = "BENCH_runtime.json";
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      std::cerr << "usage: bench_runtime_scale [--json PATH] [--full]\n"
                << "unknown argument: " << argv[i] << "\n";
      return 2;
    }
  }

  std::vector<nc::Row> rows;
  rows.push_back(nc::bench_sparse_idle(10'000, 1'000, 16));
  rows.push_back(nc::bench_sparse_idle(100'000, 1'000, 16));
  if (full) rows.push_back(nc::bench_sparse_idle(500'000, 1'000, 16));
  rows.push_back(nc::bench_protocol("planted_protocol", 10'000, 32, 2));
  if (full) rows.push_back(nc::bench_protocol("planted_protocol", 50'000, 32, 2));
  rows.push_back(nc::bench_protocol("broadcast_fanout", 10'000, 32, 24));

  for (const auto& r : rows) {
    std::cout << r.name << " n=" << r.n << " m=" << r.m
              << " rounds=" << r.rounds << " messages=" << r.messages
              << " build=" << r.build_seconds << "s run=" << r.run_seconds
              << "s rounds/sec=" << r.rounds_per_sec()
              << " deliveries/sec=" << r.deliveries_per_sec()
              << " [stage=" << r.profile.stage_seconds
              << "s deliver=" << r.profile.deliver_seconds
              << "s wake=" << r.profile.wake_seconds
              << "s arena=" << r.profile.arena_bytes_total << "B]\n";
  }
  if (!nc::write_json(json_path, rows)) {
    std::cerr << "error: could not write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
