// Telemetry engine coverage (src/runtime/telemetry.{hpp,cpp} and its
// integration into the Network round loop):
//
//  - the observer-effect contract: fixed-seed RunStats, labels and local
//    work are bit-identical with telemetry off, metrics-only, and
//    metrics+trace+probes — at threads 1, 2 and 64, clean and under a
//    lossy fault plan with ARQ armed;
//  - metric-column conservation: windowed columns sum to the run totals at
//    any sampling stride, every column but the shard load-balance triple
//    is the same at every thread count, and the row budget drops samples
//    loudly;
//  - protocol probes: dist_near_clique's dnc.* series exist, carry
//    non-trivial totals, arrive name-sorted, and are thread-invariant;
//  - phase spans: names come from the engine's fixed vocabulary and the
//    trace writer emits a well-formed Chrome trace_event document;
//  - the --metrics JSONL schema, golden-pinned byte for byte
//    (tests/data/metrics_schema_golden.jsonl);
//  - the stall post-mortem: a deadlocked protocol triggers a StallReport
//    that names the armed-alarm / no-delivery state, and clean runs don't.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "graph/generators.hpp"
#include "runtime/faults.hpp"
#include "runtime/reliability.hpp"
#include "runtime/telemetry.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace nc {
namespace {

// Small planted instance: big enough that the protocol stages, delivers,
// wakes and finishes with non-bottom output, small enough for a matrix of
// runs per test.
Instance telemetry_instance() {
  Rng rng(7);
  PlantedNearCliqueParams pp;
  pp.n = 60;
  pp.clique_size = 24;
  pp.eps_missing = 0.0;
  pp.background_p = 0.08;
  pp.halo_p = 0.25;
  return planted_near_clique(pp, rng);
}

DriverConfig telemetry_config() {
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.08;
  cfg.net.seed = 3;
  cfg.net.max_rounds = 300'000;
  return cfg;
}

void expect_same_outcome(const NearCliqueResult& a, const NearCliqueResult& b,
                         const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.bits, b.stats.bits);
  EXPECT_EQ(a.stats.max_message_bits, b.stats.max_message_bits);
  EXPECT_EQ(a.stats.bits_by_kind, b.stats.bits_by_kind);
  EXPECT_EQ(a.stats.messages_lost, b.stats.messages_lost);
  EXPECT_EQ(a.stats.messages_retransmitted, b.stats.messages_retransmitted);
  EXPECT_EQ(a.stats.stalled, b.stats.stalled);
  EXPECT_EQ(a.stats.hit_round_limit, b.stats.hit_round_limit);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.total_local_ops, b.total_local_ops);
}

TEST(TelemetryPlan, ParsesAndValidates) {
  EXPECT_FALSE(parse_telemetry_plan("").requested());
  const auto p = parse_telemetry_plan(
      "tel_metrics=1,tel_trace=1,tel_probes=1,tel_stride=8,"
      "tel_max_samples=100,tel_max_spans=200");
  EXPECT_TRUE(p.metrics);
  EXPECT_TRUE(p.trace);
  EXPECT_TRUE(p.probes);
  EXPECT_EQ(p.stride, 8u);
  EXPECT_EQ(p.max_samples, 100u);
  EXPECT_EQ(p.max_spans, 200u);
  EXPECT_TRUE(p.requested());
  EXPECT_FALSE(p.any());  // no sink attached yet
  EXPECT_FALSE(parse_telemetry_plan("tel_stride=4").requested());

  EXPECT_THROW((void)parse_telemetry_plan("tel_metrics=1,tel_stride=0"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_telemetry_plan("tel_metrics=1,tel_max_samples=0"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_telemetry_plan("tel_trace=1,tel_max_spans=0"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_telemetry_plan("no_such_knob=1"),
               std::invalid_argument);
}

TEST(TelemetryObserverEffect, RecordingNeverPerturbsTheRun) {
  // The tentpole contract: with the same seed, telemetry off /
  // metrics-only / everything-on produce bit-identical RunStats, labels
  // and local work at every thread count. Telemetry only reads counters
  // the engine maintains anyway, so any divergence here means a recording
  // hook leaked into a simulation decision.
  const auto inst = telemetry_instance();
  for (const unsigned threads : {1u, 2u, 64u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DriverConfig cfg = telemetry_config();
    cfg.net.threads = threads;
    const auto off = run_dist_near_clique(inst.graph, cfg);

    Telemetry metrics_sink;
    cfg.net.telemetry = parse_telemetry_plan("tel_metrics=1");
    cfg.net.telemetry.sink = &metrics_sink;
    const auto metrics_only = run_dist_near_clique(inst.graph, cfg);
    expect_same_outcome(off, metrics_only, "metrics-only vs off");
    EXPECT_GT(metrics_sink.metrics.samples(), 0u);

    Telemetry full_sink;
    cfg.net.telemetry =
        parse_telemetry_plan("tel_metrics=1,tel_trace=1,tel_probes=1");
    cfg.net.telemetry.sink = &full_sink;
    const auto full = run_dist_near_clique(inst.graph, cfg);
    expect_same_outcome(off, full, "metrics+trace+probes vs off");
    EXPECT_FALSE(full_sink.spans.empty());
    EXPECT_FALSE(full_sink.probes.empty());
  }
}

TEST(TelemetryObserverEffect, HoldsUnderLossWithArq) {
  // Same contract with the fault engine dropping messages and the
  // reliability service retransmitting them: the keyed-hash verdicts must
  // not see the telemetry branch.
  const auto inst = telemetry_instance();
  for (const unsigned threads : {1u, 2u, 64u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DriverConfig cfg = telemetry_config();
    cfg.net.threads = threads;
    cfg.net.faults = parse_fault_plan("loss=0.05,fault_seed=9");
    cfg.net.reliability =
        parse_reliability_plan("rel_mode=1,rel_ack_timeout=2,rel_max_retx=6");
    const auto off = run_dist_near_clique(inst.graph, cfg);
    // ARQ recovers every drop here, so losses surface as retransmissions.
    EXPECT_GT(off.stats.messages_retransmitted, 0u);

    Telemetry sink;
    cfg.net.telemetry =
        parse_telemetry_plan("tel_metrics=1,tel_trace=1,tel_probes=1");
    cfg.net.telemetry.sink = &sink;
    const auto on = run_dist_near_clique(inst.graph, cfg);
    expect_same_outcome(off, on, "lossy+ARQ, telemetry on vs off");
  }
}

TEST(TelemetryMetrics, WindowedColumnsSumToRunTotals) {
  // Each sampled row covers the window since the previous sample, so the
  // delivered/lost/retransmitted/bits columns must sum to the final
  // RunStats — at stride 1 and at a stride that doesn't divide the round
  // count (the final partial window still closes at flush).
  const auto inst = telemetry_instance();
  for (const std::uint64_t stride : {1ull, 7ull}) {
    SCOPED_TRACE("stride=" + std::to_string(stride));
    DriverConfig cfg = telemetry_config();
    cfg.net.threads = 2;
    Telemetry sink;
    cfg.net.telemetry =
        parse_telemetry_plan("tel_metrics=1,tel_stride=" +
                             std::to_string(stride));
    cfg.net.telemetry.sink = &sink;
    const auto res = run_dist_near_clique(inst.graph, cfg);

    ASSERT_GT(sink.metrics.samples(), 0u);
    EXPECT_EQ(sink.metrics.stride, stride);
    std::uint64_t delivered = 0, lost = 0, retx = 0, bits = 0, kind_bits = 0;
    for (std::size_t i = 0; i < sink.metrics.samples(); ++i) {
      delivered += sink.metrics.delivered[i];
      lost += sink.metrics.lost[i];
      retx += sink.metrics.retransmitted[i];
      bits += sink.metrics.bits[i];
    }
    for (const auto b : sink.metrics.bits_by_kind) kind_bits += b;
    EXPECT_EQ(delivered, res.stats.messages);
    EXPECT_EQ(lost, res.stats.messages_lost);
    EXPECT_EQ(retx, res.stats.messages_retransmitted);
    EXPECT_EQ(bits, res.stats.bits);
    EXPECT_EQ(kind_bits, res.stats.bits);
    EXPECT_EQ(sink.stats.rounds, res.stats.rounds);  // run echo
    EXPECT_EQ(sink.n, inst.graph.n());
    EXPECT_EQ(sink.threads, 2u);
  }
}

TEST(TelemetryMetrics, RowsDoNotDependOnThreadCount) {
  // Every thread count runs the same stage → deliver → wake pipeline, so
  // each per-round column — `staged` included — describes the execution,
  // not the partition: rows at threads 2 and 64 must equal the 1-thread
  // rows, clean and lossy. Only the shard load-balance triple
  // (shard_staged_min/max/mean) describes the partition itself.
  const auto inst = telemetry_instance();
  for (const bool lossy : {false, true}) {
    SCOPED_TRACE(lossy ? "loss+ARQ" : "clean");
    Telemetry::Metrics one_thread;
    for (const unsigned threads : {1u, 2u, 64u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      DriverConfig cfg = telemetry_config();
      cfg.net.threads = threads;
      if (lossy) {
        cfg.net.faults = parse_fault_plan("loss=0.05,fault_seed=9");
        cfg.net.reliability = parse_reliability_plan(
            "rel_mode=1,rel_ack_timeout=2,rel_max_retx=6");
      }
      Telemetry sink;
      cfg.net.telemetry = parse_telemetry_plan("tel_metrics=1,tel_stride=1");
      cfg.net.telemetry.sink = &sink;
      (void)run_dist_near_clique(inst.graph, cfg);
      const Telemetry::Metrics& m = sink.metrics;
      ASSERT_GT(m.samples(), 0u);
      std::uint64_t staged = 0;
      for (const auto v : m.staged) staged += v;
      EXPECT_GT(staged, 0u);
      if (threads == 1) {
        one_thread = m;
        continue;
      }
      EXPECT_EQ(m.round, one_thread.round);
      EXPECT_EQ(m.active_links, one_thread.active_links);
      EXPECT_EQ(m.wakeups, one_thread.wakeups);
      EXPECT_EQ(m.staged, one_thread.staged);
      EXPECT_EQ(m.delivered, one_thread.delivered);
      EXPECT_EQ(m.lost, one_thread.lost);
      EXPECT_EQ(m.delayed, one_thread.delayed);
      EXPECT_EQ(m.retransmitted, one_thread.retransmitted);
      EXPECT_EQ(m.fec_parks, one_thread.fec_parks);
      EXPECT_EQ(m.bits, one_thread.bits);
      EXPECT_EQ(m.bits_by_kind, one_thread.bits_by_kind);
      EXPECT_EQ(m.samples_dropped, one_thread.samples_dropped);
    }
  }
}

TEST(TelemetryMetrics, RowBudgetDropsSamplesLoudly) {
  const auto inst = telemetry_instance();
  DriverConfig cfg = telemetry_config();
  Telemetry sink;
  cfg.net.telemetry = parse_telemetry_plan("tel_metrics=1,tel_max_samples=8");
  cfg.net.telemetry.sink = &sink;
  const auto res = run_dist_near_clique(inst.graph, cfg);
  ASSERT_GT(res.stats.rounds, 8u);  // the budget actually binds
  EXPECT_EQ(sink.metrics.samples(), 8u);
  EXPECT_GT(sink.metrics.samples_dropped, 0u);
}

TEST(TelemetryProbes, ProtocolSeriesAreSortedAndThreadInvariant) {
  const auto inst = telemetry_instance();
  std::vector<std::uint64_t> baseline_totals;
  for (const unsigned threads : {1u, 2u, 64u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DriverConfig cfg = telemetry_config();
    cfg.net.threads = threads;
    Telemetry sink;
    cfg.net.telemetry = parse_telemetry_plan("tel_metrics=1,tel_probes=1");
    cfg.net.telemetry.sink = &sink;
    (void)run_dist_near_clique(inst.graph, cfg);

    ASSERT_FALSE(sink.probes.empty());
    std::vector<std::uint64_t> totals;
    std::set<std::string> names;  // nclint:allow(ordered-map) test-only assertion set
    for (std::size_t i = 0; i < sink.probes.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(sink.probes[i - 1].name, sink.probes[i].name);
      }
      names.insert(sink.probes[i].name);
      totals.push_back(sink.probes[i].total);
      const auto& p = sink.probes[i];
      ASSERT_FALSE(p.value.empty()) << p.name;
      if (p.counter) {
        // Counters are sampled as their cumulative total: non-decreasing,
        // ending at the final total.
        for (std::size_t j = 1; j < p.value.size(); ++j) {
          EXPECT_LE(p.value[j - 1], p.value[j]) << p.name;
        }
        EXPECT_EQ(p.value.back(), p.total) << p.name;
      } else {
        // Gauges are sampled as per-window delta sums, so the samples sum
        // to the total.
        std::uint64_t sum = 0;
        for (const auto v : p.value) sum += v;
        EXPECT_EQ(sum, p.total) << p.name;
      }
    }
    EXPECT_TRUE(names.count("dnc.stream_opens"));
    EXPECT_TRUE(names.count("dnc.candidate_nodes"));
    EXPECT_TRUE(names.count("dnc.pairs_initialized"));
    for (const auto& p : sink.probes) {
      if (p.name == "dnc.stream_opens") {
        EXPECT_GT(p.total, 0u);
      }
    }
    if (baseline_totals.empty()) {
      baseline_totals = totals;
    } else {
      EXPECT_EQ(baseline_totals, totals);  // probe charges shard-invariant
    }
  }
}

TEST(TelemetryProbes, OffCostsNothingAndReturnsSentinel) {
  // With tel_probes off the registration API hands back kNoProbe and
  // probe_add is a no-op; the protocol must tolerate that without a sink.
  const auto inst = telemetry_instance();
  DriverConfig cfg = telemetry_config();
  Telemetry sink;
  cfg.net.telemetry = parse_telemetry_plan("tel_metrics=1");  // no probes
  cfg.net.telemetry.sink = &sink;
  (void)run_dist_near_clique(inst.graph, cfg);
  EXPECT_TRUE(sink.probes.empty());
}

TEST(TelemetryTrace, SpansUseTheEngineVocabularyAndSerialize) {
  const auto inst = telemetry_instance();
  DriverConfig cfg = telemetry_config();
  cfg.net.threads = 2;
  Telemetry sink;
  cfg.net.telemetry = parse_telemetry_plan("tel_trace=1,tel_probes=1");
  cfg.net.telemetry.sink = &sink;
  (void)run_dist_near_clique(inst.graph, cfg);

  ASSERT_FALSE(sink.spans.empty());
  const std::set<std::string> vocab{"stage", "deliver", "wake", "alarm"};  // nclint:allow(ordered-map) test-only vocabulary set
  bool saw_parallel_phase = false;
  for (const auto& s : sink.spans) {
    EXPECT_TRUE(vocab.count(s.name)) << s.name;
    EXPECT_GE(s.dur_us, 0.0);
    if (std::string(s.name) == "stage" || std::string(s.name) == "deliver") {
      saw_parallel_phase = true;
    }
  }
  EXPECT_TRUE(saw_parallel_phase);  // threads=2 runs the two-phase round

  // The writer emits a loadable Chrome trace_event document: one
  // traceEvents array of objects each carrying name/ph/pid.
  const auto doc = parse_json(telemetry_trace_json(sink, "test"));
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  const auto& arr = events->as_array("traceEvents");
  ASSERT_GT(arr.size(), sink.spans.size());  // spans + metadata (+ counters)
  for (const auto& e : arr) {
    ASSERT_TRUE(e.is_object());
    EXPECT_NE(e.find("name"), nullptr);
    EXPECT_NE(e.find("ph"), nullptr);
    EXPECT_NE(e.find("pid"), nullptr);
  }
}

TEST(TelemetryTrace, SpanBudgetDropsLoudly) {
  const auto inst = telemetry_instance();
  DriverConfig cfg = telemetry_config();
  Telemetry sink;
  cfg.net.telemetry = parse_telemetry_plan("tel_trace=1,tel_max_spans=16");
  cfg.net.telemetry.sink = &sink;
  (void)run_dist_near_clique(inst.graph, cfg);
  EXPECT_EQ(sink.spans.size(), 16u);
  EXPECT_GT(sink.spans_dropped, 0u);
}

TEST(TelemetryMetricsJsonl, RepeatRunsAreByteIdentical) {
  // The metrics file deliberately excludes wall-clock, so two runs of the
  // same configuration render the identical byte stream — the property the
  // golden below pins across code changes.
  const auto inst = telemetry_instance();
  const auto capture = [&] {
    DriverConfig cfg = telemetry_config();
    cfg.net.threads = 2;
    Telemetry sink;
    cfg.net.telemetry = parse_telemetry_plan(
        "tel_metrics=1,tel_probes=1,tel_stride=4");
    cfg.net.telemetry.sink = &sink;
    (void)run_dist_near_clique(inst.graph, cfg);
    return telemetry_metrics_jsonl(sink, "golden");
  };
  EXPECT_EQ(capture(), capture());
}

TEST(TelemetryMetricsJsonl, GoldenSchema) {
  const auto inst = telemetry_instance();
  DriverConfig cfg = telemetry_config();
  cfg.net.threads = 2;
  Telemetry sink;
  cfg.net.telemetry =
      parse_telemetry_plan("tel_metrics=1,tel_probes=1,tel_stride=4");
  cfg.net.telemetry.sink = &sink;
  (void)run_dist_near_clique(inst.graph, cfg);
  const std::string actual = telemetry_metrics_jsonl(sink, "golden");

  std::ifstream golden_file(std::string(NC_TEST_DATA_DIR) +
                            "/metrics_schema_golden.jsonl");
  ASSERT_TRUE(golden_file.is_open())
      << "missing tests/data/metrics_schema_golden.jsonl; expected "
         "contents:\n"
      << actual;
  std::stringstream golden;
  golden << golden_file.rdbuf();
  EXPECT_EQ(golden.str(), actual)
      << "metrics JSONL schema changed; if intentional, regenerate "
         "tests/data/metrics_schema_golden.jsonl with the actual output "
         "above/below:\n"
      << actual;
}

TEST(StallDiagnostics, DeadlockedProtocolProducesAPostMortem) {
  const Graph g = testing::path_graph(3);
  class WaitsForever : public INode {
   public:
    void on_start(NodeApi&) override {}
    void on_round(NodeApi&) override {}  // never sends, never done
  };
  NetConfig cfg;
  Network net(g, cfg, [](NodeId) { return std::make_unique<WaitsForever>(); });
  const auto stats = net.run();
  ASSERT_TRUE(stats.stalled);

  // A stall by definition means nothing is scheduled ahead: no armed
  // alarms, no in-flight traffic, and nobody done.
  const StallReport report = net.stall_report();
  EXPECT_TRUE(report.triggered());
  EXPECT_TRUE(report.stalled);
  EXPECT_FALSE(report.hit_round_limit);
  EXPECT_EQ(report.nodes_total, 3u);
  EXPECT_EQ(report.nodes_done, 0u);
  EXPECT_EQ(report.armed_alarms, 0u);
  EXPECT_EQ(report.next_alarm_round, StallReport::kNone);
  EXPECT_EQ(report.active_links, 0u);

  const std::string text = report.summary();
  EXPECT_NE(text.find("stall"), std::string::npos);

  // to_json renders one well-formed object carrying the headline fields.
  JsonWriter w;
  report.to_json(w);
  const auto doc = parse_json(w.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_NE(doc.find("stalled"), nullptr);
  EXPECT_NE(doc.find("nodes_done"), nullptr);
  EXPECT_NE(doc.find("armed_alarms"), nullptr);
}

TEST(StallDiagnostics, CleanRunsDontTrigger) {
  const auto inst = telemetry_instance();
  const auto res =
      run_dist_near_clique(inst.graph, telemetry_config());
  EXPECT_FALSE(res.aborted());
  EXPECT_FALSE(res.stall.triggered());
  EXPECT_TRUE(res.stall.summary().empty());
}

TEST(StallDiagnostics, RoundLimitReportsThroughTheDriver) {
  // The driver captures the post-mortem while the network still holds its
  // final state, so an aborted NearCliqueResult is self-diagnosing.
  const auto inst = telemetry_instance();
  DriverConfig cfg = telemetry_config();
  cfg.net.max_rounds = 5;  // far below the protocol's schedule
  const auto res = run_dist_near_clique(inst.graph, cfg);
  ASSERT_TRUE(res.aborted());
  EXPECT_TRUE(res.stall.triggered());
  EXPECT_TRUE(res.stall.hit_round_limit);
  // The limit feeds the protocol's schedule, so the exact abort round is
  // schedule-shaped; the report must agree with the run's own accounting.
  EXPECT_EQ(res.stall.rounds, res.stats.rounds);
  EXPECT_FALSE(res.stall.summary().empty());
}

}  // namespace
}  // namespace nc
