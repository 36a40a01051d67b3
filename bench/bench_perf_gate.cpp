// CI perf-regression gate: three pinned runtime workloads with committed
// rounds/sec floors. The gate FAILS (exit 1) if the best of three runs of
// any workload drops below its floor — catching order-of-magnitude hot
// path regressions (an accidental O(n) scan, a lost fast path) while being
// deliberately insensitive to machine speed:
//
//  - Floors carry large slack (>= 2x below what the 4-core host that
//    regenerated the artifacts measures, far more than the ~30%
//    round-to-round noise we see on shared runners), so an honest build on
//    modest hardware passes.
//  - Best-of-three measures the machine's capability, not its worst
//    scheduling hiccup.
//
// When a runner is still slower than the slack allows (or a deliberate
// engine change moves the floors), --floor-scale=X scales every floor.
//
// The pinned workloads (engine_workloads.hpp) are BENCH_runtime.json's,
// so a floor failure can be cross-read against the committed artifact
// (broadcast_fanout runs at 4k here, 10k there):
//  - sparse_idle n=10k: event-driven idle scheduling — per-round cost must
//    track the handful of busy links, not n or m. Times run() alone.
//  - planted_protocol n=10k: DistNearClique — the mixed stage/deliver/wake
//    + protocol load. Times construction + run().
//  - broadcast_fanout n=4k: DistNearClique on an avg-degree ~50 graph, where
//    every open_stream_all fans wide: a lost view-reuse fast path
//    (Link::schedule_matches) or a costlier staged copy shows up here long
//    before it moves the low-degree rows. Times construction + run().
// No timed run attaches a profile.
//
// A fourth check gates correctness, not throughput: the telemetry engine's
// observer-effect contract (recording on vs off must leave the fixed-seed
// RunStats bit-identical; src/runtime/telemetry.hpp). The floors double as
// the disabled-path cost gate — every floor workload runs with telemetry
// off, so a null-check that stopped being free would drop them.
//
// Usage: bench_perf_gate [--floor-scale=X]

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iostream>

#include "engine_workloads.hpp"

namespace {

using namespace nc::bench;

// Committed floors, in rounds/sec, >= 2x below the median best-of-3 of ten
// gate runs on the 4-core host that regenerated BENCH_runtime.json (shared
// VM, GCC 12, -O3 -DNDEBUG). Each comment gives that median and the range.
constexpr double kSparseIdleFloor = 70'000.0;    // 141k (99k–173k)
constexpr double kPlantedProtoFloor = 180.0;     // 851 (614–1055)
constexpr double kBroadcastFanoutFloor = 140.0;  // 532 (353–608)

/// Best of three `rate()` readings against `floor`; prints the verdict.
template <typename Fn>
bool gate(const char* name, double floor, Fn&& rate) {
  double best = 0;
  for (int i = 0; i < 3; ++i) best = std::max(best, rate());
  const bool pass = best >= floor;
  std::cout << (pass ? "PASS " : "FAIL ") << name
            << ": best-of-3 rounds/sec = " << best << " (floor " << floor
            << ")\n";
  if (!pass) {
    std::cerr << "perf gate FAILED: " << name << " at " << best
              << " rounds/sec is below the floor " << floor
              << ".\nIf this machine is genuinely slower than the slack "
                 "allows, rerun with --floor-scale=<x<1>.\n";
  }
  return pass;
}

/// rounds/sec of construction + run(), the protocol rows' interval.
double built_rate(const EngineRun& r) {
  return per_sec(r.stats.rounds, r.build_seconds + r.run_seconds);
}

/// Telemetry gate: the 4k planted_protocol load with telemetry off and with
/// every facet recording into a live sink must produce bit-identical
/// RunStats and a non-empty capture. The recording cost is printed
/// informationally; the disabled path's cost is what the floors gate.
bool telemetry_observer_gate() {
  const nc::Graph g = ring_with_chords(4'000, 2, /*seed=*/11, 32, 3);
  const EngineRun off = run_protocol(g, 1, /*profiled=*/false);
  nc::Telemetry sink;
  const EngineRun on = run_protocol(g, 1, /*profiled=*/false, &sink);

  const bool identical = off.stats == on.stats;
  const bool captured = sink.metrics.samples() > 0 && !sink.spans.empty() &&
                        !sink.probes.empty();
  const bool pass = identical && captured;
  std::cout << (pass ? "PASS " : "FAIL ")
            << "telemetry_observer_4k: RunStats "
            << (identical ? "bit-identical" : "DIVERGED")
            << " with recording on; capture "
            << (captured ? "non-empty" : "EMPTY") << "; recording cost "
            << (off.run_seconds > 0
                    ? (on.run_seconds / off.run_seconds - 1.0) * 100.0
                    : 0.0)
            << "% wall-clock\n";
  if (!pass) {
    std::cerr << "perf gate FAILED: telemetry recording changed the "
                 "fixed-seed RunStats (observer-effect contract)\n";
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--floor-scale=", 14) == 0) {
      // Checked whole, before any workload runs.
      const char* text = argv[i] + 14;
      const char* end = text + std::strlen(text);
      const auto [ptr, ec] = std::from_chars(text, end, scale);
      if (ec != std::errc() || ptr != end || !std::isfinite(scale) ||
          scale <= 0) {
        std::cerr << "error: --floor-scale expects a number > 0, got '"
                  << text << "'\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_perf_gate [--floor-scale=X]\n"
                << "unknown argument: " << argv[i] << "\n";
      return 2;
    }
  }
  std::cout << "perf gate: floor scale " << scale << "\n";

  const nc::Graph idle = ring_with_chords(10'000, 3, /*seed=*/42);
  const nc::Graph planted = ring_with_chords(10'000, 2, /*seed=*/11, 32, 3);
  const nc::Graph fanout = ring_with_chords(4'000, 24, /*seed=*/11, 32, 3);
  bool pass = gate("sparse_idle_10k", kSparseIdleFloor * scale, [&] {
    const EngineRun r = run_sparse_idle(idle, 1'000, 16, /*profiled=*/false);
    return per_sec(r.stats.rounds, r.run_seconds);
  });
  pass &= gate("planted_protocol_10k", kPlantedProtoFloor * scale, [&] {
    return built_rate(run_protocol(planted, 1, /*profiled=*/false));
  });
  pass &= gate("broadcast_fanout_4k", kBroadcastFanoutFloor * scale, [&] {
    return built_rate(run_protocol(fanout, 1, /*profiled=*/false));
  });
  // Correctness gate rather than a throughput floor: telemetry recording
  // must not perturb the simulated execution.
  pass &= telemetry_observer_gate();
  if (!pass) return 1;
  std::cout << "perf gate passed\n";
  return 0;
}
