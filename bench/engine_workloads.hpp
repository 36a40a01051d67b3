#pragma once

// The engine workload catalogue behind bench_runtime_scale,
// bench_parallel_scale and bench_perf_gate: one graph generator, the two
// synthetic node programs, one timed runner per workload, and the row
// schema BENCH_runtime.json and BENCH_parallel.json share
// (docs/benchmarks.md).
//
// Workloads:
//  - sparse_idle: a handful of adjacent node pairs stream bits at each
//    other while every other node sleeps on a far alarm. Per-round work
//    should track the handful of busy links, not n or m.
//  - ring_chatter: every node streams to its ring successor, so every ring
//    link carries traffic every round — the maximally parallel delivery
//    load, with no protocol logic.
//  - planted_protocol / broadcast_fanout: the full DistNearClique protocol
//    on a planted-clique graph. 2 chords per node (avg degree ~6) is the
//    mixed protocol load; 24 chords (avg degree ~50) makes every
//    open_stream_all fan wide: each copy is a 40-byte record of its own, so
//    staged bytes grow with degree, and the stage phase reuses one
//    scheduled view across the sibling links. The rows' profile columns
//    keep broadcast_payload_bytes_saved, which now reads 0.
//
// Every runner builds the Network itself and times two intervals apart:
// build_seconds is construction (node factory and on_start included) and
// run_seconds is Network::run() alone. Graph generation, schedule
// computation and teardown fall in neither.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "runtime/network.hpp"
#include "runtime/telemetry.hpp"
#include "util/bitio.hpp"
#include "util/rng.hpp"

namespace nc::bench {

/// Ring over 0..n-1 plus `chords` random chords per node: connected,
/// sparse, O(m) to build. With `clique` > 0 it also plants a clique on IDs
/// 0..clique-1 and draws `halo` random edges from each member; `clique` = 0
/// draws nothing after the chords.
inline Graph ring_with_chords(NodeId n, unsigned chords, std::uint64_t seed,
                              NodeId clique = 0, unsigned halo = 0) {
  GraphBuilder b(n);
  Rng rng(seed);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  for (NodeId v = 0; v < n; ++v) {
    for (unsigned c = 0; c < chords; ++c) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      if (u != v) b.add_edge(v, u);
    }
  }
  std::vector<NodeId> members(clique);
  std::iota(members.begin(), members.end(), NodeId{0});
  b.add_clique(members);
  for (const NodeId v : members) {
    for (unsigned h = 0; h < halo; ++h) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      if (u != v) b.add_edge(v, u);
    }
  }
  return b.build();
}

inline constexpr StreamKey kChatKey{1, 0, 0};

/// Streams `symbols` 8-bit symbols to neighbour slot `out_ni`, drains the
/// stream arriving on slot `in_ni`, and finishes once that stream is fully
/// delivered. Wakes on deliveries only. A sparse_idle pair member uses one
/// slot for both; a ring_chatter node sends to its successor and reads its
/// predecessor.
class ChatterNode : public INode {
 public:
  ChatterNode(std::size_t out_ni, std::size_t in_ni, std::size_t symbols)
      : out_ni_(out_ni), in_ni_(in_ni), symbols_(symbols) {}

  void on_start(NodeApi& api) override {
    auto ch = api.open_stream_one(kChatKey, out_ni_);
    for (std::size_t i = 0; i < symbols_; ++i) ch.put(i & 0xffu, 8);
    ch.close();
  }

  void on_round(NodeApi& api) override {
    InStream* in = api.find_in(in_ni_, kChatKey);
    if (in == nullptr) return;
    while (in->available() > 0) checksum_ += in->pop();
    if (in->finished()) api.set_done();
  }

 private:
  std::size_t out_ni_;
  std::size_t in_ni_;
  std::size_t symbols_;
  std::uint64_t checksum_ = 0;  ///< reads every symbol, as a protocol would
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

/// Symbols a chatter sends so that its stream lasts ~`rounds` rounds: one
/// message per round carries floor((B - header) / 8) 8-bit symbols, where B
/// is the CONGEST budget of 8 ID widths.
inline std::size_t chatter_symbols(NodeId n, std::uint64_t rounds) {
  const unsigned idb = id_width(n);
  return (8u * idb - stream_header_bits(idb)) / 8 * rounds;
}

/// Index of `u` among v's sorted neighbours; `u` must be one of them.
inline std::size_t slot_of(const Graph& g, NodeId v, NodeId u) {
  const auto nb = g.neighbors(v);
  return static_cast<std::size_t>(std::lower_bound(nb.begin(), nb.end(), u) -
                                  nb.begin());
}

/// One timed engine run.
struct EngineRun {
  RunStats stats;
  double build_seconds = 0;  ///< Network construction, on_start included
  double run_seconds = 0;    ///< Network::run() alone
  NetProfile profile;        ///< all zero unless the run was profiled
};

/// Builds a Network over `g` and runs it, timing the two apart. A profiled
/// run points NetConfig::profile at the result; an unprofiled one leaves it
/// null, the engine's default.
inline EngineRun timed_run(
    const Graph& g, NetConfig cfg, bool profiled,
    const std::function<std::unique_ptr<INode>(NodeId)>& factory) {
  using Clock = std::chrono::steady_clock;
  EngineRun r;
  if (profiled) cfg.profile = &r.profile;
  const auto t0 = Clock::now();
  Network net(g, cfg, factory);
  const auto t1 = Clock::now();
  r.stats = net.run();
  const auto t2 = Clock::now();
  r.build_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.run_seconds = std::chrono::duration<double>(t2 - t1).count();
  return r;
}

/// sparse_idle on `g`: `pairs` adjacent pairs (v, v+1), spread evenly over
/// the ID space, chatter for ~`rounds` rounds while every other node sleeps
/// until the chatter is over. One shard.
inline EngineRun run_sparse_idle(const Graph& g, std::uint64_t rounds,
                                 unsigned pairs, bool profiled) {
  const NodeId n = g.n();
  const std::size_t symbols = chatter_symbols(n, rounds);
  const std::uint64_t horizon = rounds + 8;
  std::vector<NodeId> partner(n, kNoNode);
  for (unsigned i = 0; i < pairs; ++i) {
    const auto a =
        static_cast<NodeId>((std::uint64_t{i} + 1) * n / (pairs + 1));
    const NodeId b = (a + 1) % n;
    partner[a] = b;
    partner[b] = a;
  }
  NetConfig cfg;
  cfg.seed = 7;
  cfg.max_rounds = horizon + 16;
  const auto make = [&](NodeId v) -> std::unique_ptr<INode> {
    if (partner[v] == kNoNode) return std::make_unique<SleeperNode>(horizon);
    const std::size_t ni = slot_of(g, v, partner[v]);
    return std::make_unique<ChatterNode>(ni, ni, symbols);
  };
  return timed_run(g, cfg, profiled, make);
}

/// ring_chatter on `g`: every node streams ~`rounds` rounds of traffic to
/// its ring successor.
inline EngineRun run_ring_chatter(const Graph& g, std::uint64_t rounds,
                                  unsigned threads, bool profiled) {
  const NodeId n = g.n();
  const std::size_t symbols = chatter_symbols(n, rounds);
  NetConfig cfg;
  cfg.seed = 7;
  cfg.max_rounds = rounds + 64;
  cfg.threads = threads;
  return timed_run(g, cfg, profiled, [&](NodeId v) {
    return std::make_unique<ChatterNode>(slot_of(g, v, (v + 1) % n),
                                         slot_of(g, v, (v + n - 1) % n),
                                         symbols);
  });
}

/// planted_protocol / broadcast_fanout on `g`: DistNearClique with eps 0.2,
/// p 0.05 and one version. A non-null `sink` records every telemetry facet
/// (metrics, trace, probes) into it.
inline EngineRun run_protocol(const Graph& g, unsigned threads, bool profiled,
                              Telemetry* sink = nullptr) {
  ProtocolParams proto;
  proto.eps = 0.2;
  proto.p = 0.05;
  proto.versions = 1;
  NetConfig cfg;
  cfg.seed = 5;
  cfg.max_rounds = 400'000;
  cfg.threads = threads;
  if (sink != nullptr) {
    cfg.telemetry =
        parse_telemetry_plan("tel_metrics=1,tel_trace=1,tel_probes=1");
    cfg.telemetry.sink = sink;
  }
  const Schedule schedule = make_schedule(proto, g.n(), cfg.max_rounds);
  return timed_run(g, cfg, profiled, [&](NodeId) {
    return std::make_unique<DistNearCliqueNode>(proto, schedule);
  });
}

/// `count` per second; 0 for a zero interval.
inline double per_sec(std::uint64_t count, double seconds) {
  return seconds > 0 ? static_cast<double>(count) / seconds : 0;
}

/// One artifact row: a workload on one graph at one thread count.
struct Row {
  std::string name;
  NodeId n = 0;
  std::uint64_t m = 0;
  unsigned threads = 1;
  EngineRun run;
  double speedup_vs_1t = 1.0;  ///< 1-thread run_seconds over this row's
};

/// Echoes a row to stdout as one line.
inline void print_row(const Row& r) {
  const RunStats& s = r.run.stats;
  std::cout << r.name << " n=" << r.n << " m=" << r.m
            << " threads=" << r.threads << " rounds=" << s.rounds
            << " messages=" << s.messages
            << " build=" << r.run.build_seconds
            << "s run=" << r.run.run_seconds
            << "s rounds/sec=" << per_sec(s.rounds, r.run.run_seconds)
            << " deliveries/sec=" << per_sec(s.messages, r.run.run_seconds)
            << " speedup=" << r.speedup_vs_1t
            << " [stage=" << r.run.profile.stage_seconds
            << "s deliver=" << r.run.profile.deliver_seconds
            << "s wake=" << r.run.profile.wake_seconds
            << "s arena=" << r.run.profile.arena_bytes_total << "B]\n";
}

/// Writes an artifact: `bench`, hardware_concurrency, the `extra` members
/// (verbatim JSON, each line ending in ",\n"), then one line per row.
/// Returns main's exit code.
inline int write_artifact(const std::string& path, const std::string& bench,
                           const std::string& extra,
                           const std::vector<Row>& rows) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"" << bench << "\",\n  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ",\n"
     << extra << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const RunStats& s = r.run.stats;
    const NetProfile& p = r.run.profile;
    os << "    {\"name\": \"" << r.name << "\", \"n\": " << r.n
       << ", \"m\": " << r.m << ", \"threads\": " << r.threads
       << ", \"rounds\": " << s.rounds << ", \"messages\": " << s.messages
       << ", \"bits\": " << s.bits
       << ", \"build_seconds\": " << r.run.build_seconds
       << ", \"run_seconds\": " << r.run.run_seconds
       << ", \"rounds_per_sec\": " << per_sec(s.rounds, r.run.run_seconds)
       << ", \"deliveries_per_sec\": "
       << per_sec(s.messages, r.run.run_seconds)
       << ", \"speedup_vs_1t\": " << r.speedup_vs_1t
       << ", \"stage_seconds\": " << p.stage_seconds
       << ", \"deliver_seconds\": " << p.deliver_seconds
       << ", \"wake_seconds\": " << p.wake_seconds
       << ", \"arena_bytes_total\": " << p.arena_bytes_total
       << ", \"arena_bytes_peak_shard\": " << p.arena_bytes_peak_shard
       << ", \"lane_msgs_peak\": " << p.lane_msgs_peak
       << ", \"broadcast_payload_bytes_saved\": "
       << p.broadcast_payload_bytes_saved << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  if (!os.good()) {
    std::cerr << "error: could not write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}

/// The scale benches' command line: [--json PATH] [--full].
struct BenchArgs {
  std::string json_path;  ///< the caller's default unless --json is given
  bool full = false;      ///< include the slow large-n configurations
};

/// Parses argv into `args`; prints usage and returns false on anything else.
inline bool parse_bench_args(int argc, char** argv, BenchArgs& args) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--full") == 0) {
      args.full = true;
    } else {
      std::cerr << "usage: " << argv[0] << " [--json PATH] [--full]\n"
                << "unknown argument: " << argv[i] << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace nc::bench
