// Coverage for the declarative sweep runner: grid expansion and ordering,
// seed schedules, the threads knob, validation errors, every spec under
// bench/specs, and a golden-file test for the JSON-lines schema.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "expt/sweep.hpp"

namespace nc {
namespace {

/// A tiny, fully deterministic sweep (the barbell gadget ignores its seed
/// and both algorithms are deterministic given one) used by the ordering
/// and golden-schema tests.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.title = "golden";
  spec.scenario_family = "barbell";
  spec.algorithms = {{"peeling", AlgoParams().with("eps", 0.2)},
                     {"shingles", {}}};
  spec.axes = {{SweepAxis::Target::kScenario, "n", {24, 32}}};
  spec.trials = 2;
  spec.seed_base = 5;
  spec.success.kind = SuccessSpec::Kind::kSizeDensity;
  spec.success.min_size = 4;
  spec.success.max_eps = 0.25;
  return spec;
}

TEST(Sweep, AlgorithmMajorGridOrdering) {
  const auto rows = run_sweep(tiny_spec());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].algorithm, "peeling");
  EXPECT_EQ(rows[1].algorithm, "peeling");
  EXPECT_EQ(rows[2].algorithm, "shingles");
  EXPECT_EQ(rows[3].algorithm, "shingles");
  EXPECT_EQ(rows[0].scenario_params.get_int("n"), 24);
  EXPECT_EQ(rows[1].scenario_params.get_int("n"), 32);
  EXPECT_EQ(rows[0].model, CostModel::kCentral);
  EXPECT_EQ(rows[2].model, CostModel::kCongest);
  for (const auto& row : rows) EXPECT_EQ(row.stats.trials, 2u);
  // Deterministic algorithms on the deterministic gadget: zero variance.
  EXPECT_DOUBLE_EQ(rows[0].stats.out_size.stddev(), 0.0);
}

TEST(Sweep, BothAxisFeedsScenarioAndAlgorithm) {
  SweepSpec spec;
  spec.scenario_family = "theorem";
  spec.scenario_params = ScenarioParams().with("n", 40);
  spec.algorithms = {{"shingles", {}}};
  spec.axes = {{SweepAxis::Target::kBoth, "eps", {0.05, 0.3}}};
  spec.trials = 1;
  const auto rows = run_sweep(spec);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].scenario_params.get_double("eps"), 0.05);
  EXPECT_DOUBLE_EQ(rows[0].algo_params.get_double("eps"), 0.05);
  EXPECT_DOUBLE_EQ(rows[1].scenario_params.get_double("eps"), 0.3);
  EXPECT_DOUBLE_EQ(rows[1].algo_params.get_double("eps"), 0.3);
}

TEST(TrialRunner, SeedSchedules) {
  // Trial t runs on seed seed_base + t under the sequential schedule and
  // on seed_base + 7919 * (t + 1) under the salted default; a telemetry
  // capture records the seed each trial ran on.
  SweepSpec spec;
  spec.scenario_family = "barbell";
  spec.scenario_params = ScenarioParams().with("n", 16);
  spec.algorithms = {{"dist_near_clique", AlgoParams().with("tel_metrics", 1)}};
  spec.trials = 3;
  spec.seed_base = 100;
  spec.seeds = SeedSchedule::kSequential;
  const auto seeds_of = [&spec] {
    TelemetryCapture capture;
    (void)run_sweep(spec, &capture);
    std::vector<std::uint64_t> seeds;
    for (const auto& entry : capture.entries) seeds.push_back(entry.seed);
    return seeds;
  };
  EXPECT_EQ(seeds_of(), (std::vector<std::uint64_t>{100, 101, 102}));
  spec.trials = 2;
  spec.seeds = SeedSchedule::kSalted;
  EXPECT_EQ(seeds_of(), (std::vector<std::uint64_t>{100 + 7919, 100 + 15838}));
}

TEST(TrialRunner, ThreadsKnobForwardsOnlyToDeclaringAlgorithms) {
  // The sweep's threads knob shards delivery for algorithms that declare
  // it — bit-identical, so the serial and sharded rows must agree exactly
  // — and is skipped, not an error, for centralized baselines (so one
  // sweep can mix both kinds).
  SweepSpec spec;
  spec.scenario_family = "planted_partition";
  spec.scenario_params =
      ScenarioParams().with("n", 48).with("k", 3).with("p_in", 0.85);
  spec.algorithms = {
      {"dist_near_clique",
       AlgoParams().with("eps", 0.2).with("max_rounds", 2'000'000)},
      {"peeling", {}}};
  spec.trials = 3;
  spec.seed_base = 23;
  spec.seeds = SeedSchedule::kSequential;
  const auto serial = run_sweep(spec);
  spec.threads = 4;
  const auto sharded = run_sweep(spec);
  ASSERT_EQ(sharded.size(), 2u);
  EXPECT_EQ(serial[0].algo_merged.get_int("threads"), 1);
  EXPECT_EQ(sharded[0].algo_merged.get_int("threads"), 4);
  EXPECT_FALSE(sharded[1].algo_merged.has("threads"));
  EXPECT_GT(sharded[1].stats.out_size.mean(), 0.0);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].algorithm);
    EXPECT_EQ(serial[i].stats.stats_total, sharded[i].stats.stats_total);
    EXPECT_EQ(serial[i].stats.out_size.sum(), sharded[i].stats.out_size.sum());
    EXPECT_EQ(serial[i].stats.recall.sum(), sharded[i].stats.recall.sum());
    EXPECT_EQ(serial[i].stats.local_ops.sum(),
              sharded[i].stats.local_ops.sum());
  }
}

TEST(Sweep, ValidatesBeforeRunning) {
  SweepSpec spec = tiny_spec();
  spec.scenario_family = "no_such_family";
  EXPECT_THROW((void)run_sweep(spec), std::invalid_argument);

  spec = tiny_spec();
  spec.algorithms.clear();
  EXPECT_THROW((void)run_sweep(spec), std::invalid_argument);

  spec = tiny_spec();
  spec.algorithms[0].name = "no_such_algorithm";
  EXPECT_THROW((void)run_sweep(spec), std::invalid_argument);

  spec = tiny_spec();
  spec.axes[0].values.clear();
  EXPECT_THROW((void)run_sweep(spec), std::invalid_argument);

  // An axis key no target declares fails with the registry's own message.
  spec = tiny_spec();
  spec.axes[0].key = "bogus_knob";
  spec.axes[0].values = {1.0};
  try {
    (void)run_sweep(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus_knob"), std::string::npos)
        << e.what();
  }
}

TEST(Sweep, ExplicitSuccessEpsOverridesDerivedValue) {
  // Deterministic setup (fixed seed): peeling at eps = 0.2 on the planted
  // theorem instance finds a ~0.82-density set. With the predicate eps
  // derived from the algorithm's merged params (0.2), Theorem 5.7's density
  // bound caps at 1 and the trial succeeds; an explicit success eps = 0.05
  // overrides the derived value, demands density >= ~0.85, and the same
  // output fails. Guards that --success-eps is an override, not just a
  // fallback for configurations lacking an "eps" key.
  SweepSpec spec;
  spec.scenario_family = "theorem";
  spec.scenario_params = ScenarioParams().with("n", 60).with("delta", 0.5);
  spec.algorithms = {{"peeling", AlgoParams().with("eps", 0.2)}};
  spec.trials = 1;
  spec.seed_base = 77;
  spec.success.kind = SuccessSpec::Kind::kTheorem57;

  ASSERT_TRUE(std::isnan(spec.success.eps));  // default: derive
  EXPECT_EQ(run_sweep(spec).at(0).stats.successes, 1u);

  spec.success.eps = 0.05;
  EXPECT_EQ(run_sweep(spec).at(0).stats.successes, 0u);
}

TEST(Sweep, SuccessSpecParsesByName) {
  EXPECT_EQ(parse_success_spec("none").kind, SuccessSpec::Kind::kNone);
  EXPECT_EQ(parse_success_spec("theorem57").kind,
            SuccessSpec::Kind::kTheorem57);
  EXPECT_EQ(parse_success_spec("effective").kind,
            SuccessSpec::Kind::kEffective);
  EXPECT_EQ(parse_success_spec("size_density").kind,
            SuccessSpec::Kind::kSizeDensity);
  for (const auto& spec :
       {parse_success_spec("theorem57"), parse_success_spec("none")}) {
    EXPECT_EQ(parse_success_spec(spec.name()).kind, spec.kind);
  }
  EXPECT_THROW(parse_success_spec("always"), std::invalid_argument);
}

TEST(Sweep, FaultOverridesReachOnlyDeclaringAlgorithms) {
  // The sweep's fault plan forwards key by key to algorithms that declare
  // the fault knobs (dist_near_clique), mirroring the threads rule; the
  // centralized baseline in the same comparison stays clean.
  SweepSpec spec;
  spec.scenario_family = "theorem";
  spec.scenario_params = ScenarioParams().with("n", 40);
  spec.algorithms = {{"dist_near_clique",
                      AlgoParams().with("max_rounds", 50'000)},
                     {"peeling", {}}};
  spec.trials = 1;
  spec.plans["faults"] = ParamSet().with("loss", 0.05).with("delay_max", 2);
  const auto rows = run_sweep(spec);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].algo_merged.get_double("loss"), 0.05);
  EXPECT_EQ(rows[0].algo_merged.get_int("delay_max"), 2);
  EXPECT_FALSE(rows[1].algo_merged.has("loss"));

  // An explicit per-algorithm override wins over the sweep-level plan.
  spec.algorithms[0].params.with("loss", 0.2);
  EXPECT_DOUBLE_EQ(
      run_sweep(spec).at(0).algo_merged.get_double("loss"), 0.2);

  // Unknown fault keys fail up front with the fault catalogue.
  spec.plans["faults"] = ParamSet().with("packet_loss", 0.05);
  EXPECT_THROW((void)run_sweep(spec), std::invalid_argument);
}

TEST(Sweep, FaultKeysWorkAsGridAxes) {
  // A loss axis crosses like any other algorithm parameter: one row per
  // loss value, each run under its own adversity.
  SweepSpec spec;
  spec.scenario_family = "theorem";
  spec.scenario_params = ScenarioParams().with("n", 40);
  spec.algorithms = {{"dist_near_clique",
                      AlgoParams().with("max_rounds", 20'000)}};
  spec.axes = {{SweepAxis::Target::kAlgorithm, "loss", {0.0, 0.05}}};
  spec.trials = 1;
  const auto rows = run_sweep(spec);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].algo_merged.get_double("loss"), 0.0);
  EXPECT_DOUBLE_EQ(rows[1].algo_merged.get_double("loss"), 0.05);
}

/// Field-by-field fold of per-run RunStats, written out here instead of
/// reusing accumulate_trial's: counters and rounds add, the largest
/// message is a maximum, the abort flags OR.
RunStats sum_field_by_field(const std::vector<RunStats>& runs) {
  RunStats sum;
  for (const RunStats& r : runs) {
    sum.rounds += r.rounds;
    sum.messages += r.messages;
    sum.bits += r.bits;
    sum.max_message_bits = std::max(sum.max_message_bits, r.max_message_bits);
    sum.hit_round_limit = sum.hit_round_limit || r.hit_round_limit;
    sum.stalled = sum.stalled || r.stalled;
    sum.messages_lost += r.messages_lost;
    sum.messages_delayed += r.messages_delayed;
    sum.messages_dropped_crash += r.messages_dropped_crash;
    sum.crash_events += r.crash_events;
    sum.recover_events += r.recover_events;
    sum.messages_retransmitted += r.messages_retransmitted;
    sum.acks_sent += r.acks_sent;
    sum.fec_repairs += r.fec_repairs;
    for (std::size_t k = 0; k < sum.bits_by_kind.size(); ++k) {
      sum.bits_by_kind[k] += r.bits_by_kind[k];
    }
  }
  return sum;
}

TEST(Sweep, RowSumsItsTrialsRunStats) {
  // A row's stats_total is the sum of its trials' RunStats, so a fault
  // sweep row carries the loss, delay, churn and reliability counters.
  const ScenarioParams scenario =
      ScenarioParams().with("n", 200).with("clique_size", 40);
  const AlgoParams lossy = AlgoParams()
                               .with("loss", 0.02)
                               .with("delay_max", 2)
                               .with("rel_mode", 1);
  const AlgoParams churn = AlgoParams()
                               .with("crash_frac", 0.05)
                               .with("crash_round", 4)
                               .with("recover_after", 20);
  SweepSpec spec;
  spec.scenario_family = "planted_near_clique";
  spec.scenario_params = scenario;
  spec.algorithms = {{"dist_near_clique", lossy},
                     {"dist_near_clique", churn}};
  spec.trials = 2;
  spec.seed_base = 11;
  const auto rows = run_sweep(spec);
  ASSERT_EQ(rows.size(), 2u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    std::vector<RunStats> runs;
    for (std::uint64_t t = 0; t < spec.trials; ++t) {
      const std::uint64_t seed = spec.seed_base + 7919 * (t + 1);
      const Instance inst =
          make_scenario(spec.scenario_family, scenario, seed);
      runs.push_back(run_algorithm(inst.graph, "dist_near_clique",
                                   spec.algorithms[i].params, seed)
                         .stats);
    }
    EXPECT_EQ(rows[i].stats.stats_total, sum_field_by_field(runs));
  }
  const RunStats& arq = rows[0].stats.stats_total;
  EXPECT_GT(arq.messages_delayed, 0u);
  EXPECT_GT(arq.messages_retransmitted, 0u);
  EXPECT_GT(arq.acks_sent, 0u);
  const RunStats& crashed = rows[1].stats.stats_total;
  EXPECT_GT(crashed.crash_events, 0u);
  EXPECT_EQ(crashed.recover_events, crashed.crash_events);
}

TEST(SweepSpecJson, BenchSpecsParseAndMerge) {
  // Every spec under bench/specs parses, and every entry and every axis
  // value merges against its target's defaults (the family's, each
  // algorithm's, or both) with in-range plan values, so a typo fails here
  // instead of minutes into a bench run.
  std::size_t files = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(NC_BENCH_SPECS_DIR)) {
    if (file.path().extension() != ".json") continue;
    ++files;
    SCOPED_TRACE(file.path().string());
    std::ifstream in(file.path());
    std::stringstream text;
    text << in.rdbuf();
    const SweepSpec spec = sweep_spec_from_json(text.str());
    const auto& family =
        ScenarioRegistry::global().family(spec.scenario_family);
    const auto merge_scenario = [&](const ScenarioParams& params) {
      (void)merge_params(family.defaults, params, spec.scenario_family);
    };
    const auto merge_algorithms = [&](const AlgoParams& axis_overrides) {
      for (const auto& algo : spec.algorithms) {
        const auto& entry = AlgorithmRegistry::global().algorithm(algo.name);
        AlgoParams params = algo.params;
        for (const auto& [key, value] : axis_overrides.values()) {
          params.with(key, value);
        }
        const AlgoParams merged =
            merge_params(entry.defaults, params, algo.name);
        for (const auto& plan : runtime_plans()) plan.validate(merged);
      }
    };
    merge_scenario(spec.scenario_params);
    merge_algorithms({});
    for (const auto& axis : spec.axes) {
      for (const double value : axis.values) {
        SCOPED_TRACE(axis.key);
        if (axis.target != SweepAxis::Target::kAlgorithm) {
          merge_scenario(ScenarioParams(spec.scenario_params)
                             .with(axis.key, value));
        }
        if (axis.target != SweepAxis::Target::kScenario) {
          merge_algorithms(AlgoParams().with(axis.key, value));
        }
      }
    }
  }
  // faults, faults_1m, sweep and the experiments e1, e2, e3, e5, e8, e9.
  EXPECT_GE(files, 9u);
}

/// The spec committed as bench/specs/<name>.json.
SweepSpec bench_spec(const std::string& name) {
  std::ifstream in(std::string(NC_BENCH_SPECS_DIR) + "/" + name + ".json");
  std::stringstream text;
  text << in.rdbuf();
  return sweep_spec_from_json(text.str());
}

/// The table's cells, row by row (header first, separator line skipped),
/// each trimmed of its padding.
std::vector<std::vector<std::string>> table_cells(const Table& table) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(table.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("|-", 0) == 0) continue;
    std::vector<std::string> cells;
    std::istringstream fields(line.substr(1));
    std::string cell;
    while (std::getline(fields, cell, '|')) {
      const auto first = cell.find_first_not_of(' ');
      const auto last = cell.find_last_not_of(' ');
      cells.push_back(first == std::string::npos
                          ? ""
                          : cell.substr(first, last - first + 1));
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

/// A row of `trials` trials, `hits` and `hits2` of them judged successes.
SweepRow judged_row(std::size_t trials, std::size_t hits, std::size_t hits2) {
  SweepRow row;
  row.scenario_family = "theorem";
  row.algorithm = "dist_near_clique";
  row.stats.trials = trials;
  row.stats.successes = hits;
  row.stats.successes2 = hits2;
  return row;
}

TEST(Sweep, TableShowsTheSpecsPredicates) {
  // e1.json judges theorem57 and, second, effective: the table shows both
  // rates, so the eps values the effective rate tells apart stay apart.
  const SweepSpec e1 = bench_spec("e1");
  ASSERT_EQ(e1.success2.kind, SuccessSpec::Kind::kEffective);
  auto cells = table_cells(sweep_table(
      {judged_row(10, 10, 4), judged_row(10, 10, 9)}, e1.success, e1.success2));
  ASSERT_EQ(cells.size(), 3u);
  const std::vector<std::string> e1_head{
      "scenario", "algorithm", "model", "overrides", "success", "success2",
      "size", "density", "recall", "max_msg_bits", "cost"};
  EXPECT_EQ(cells[0], e1_head);
  EXPECT_EQ(cells[1][4], "1.00");
  EXPECT_EQ(cells[1][5], "0.40");
  EXPECT_EQ(cells[2][5], "0.90");
  // e9.json declares no predicate: nothing was judged, so the success
  // column reads "-" rather than a rate of 0, and no success2 column shows.
  const SweepSpec e9 = bench_spec("e9");
  ASSERT_EQ(e9.success.kind, SuccessSpec::Kind::kNone);
  ASSERT_EQ(e9.success2.kind, SuccessSpec::Kind::kNone);
  cells = table_cells(
      sweep_table({judged_row(5, 0, 0)}, e9.success, e9.success2));
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].size(), e1_head.size() - 1);
  EXPECT_EQ(std::count(cells[0].begin(), cells[0].end(), "success2"), 0);
  EXPECT_EQ(cells[0][4], "success");
  EXPECT_EQ(cells[1][4], "-");
}

SweepSpec full_spec() {
  SweepSpec spec;
  spec.title = "spec file roundtrip";
  spec.scenario_family = "planted_near_clique";
  spec.scenario_params =
      ScenarioParams().with("n", 120).with("clique_size", 24);
  spec.algorithms = {
      {"dist_near_clique", AlgoParams().with("eps", 0.25).with("pn", 8.0)},
      {"peeling", AlgoParams().with("objective", "densest")}};
  spec.axes = {{SweepAxis::Target::kBoth, "eps", {0.1, 0.2}},
               {SweepAxis::Target::kScenario, "n", {120, 240}}};
  spec.trials = 3;
  spec.seed_base = 42;
  spec.seeds = SeedSchedule::kSequential;
  spec.threads = 2;
  spec.plans["faults"] = ParamSet().with("loss", 0.02).with("delay_max", 3);
  spec.plans["reliability"] =
      ParamSet().with("rel_mode", 1).with("rel_max_retx", 6);
  spec.plans["telemetry"] =
      ParamSet().with("tel_metrics", 1).with("tel_stride", 4);
  spec.success.kind = SuccessSpec::Kind::kTheorem57;
  spec.success.eps = 0.15;
  spec.success2.kind = SuccessSpec::Kind::kSizeDensity;
  spec.success2.min_size = 5;
  spec.success2.max_eps = 0.3;
  return spec;
}

TEST(SweepSpecJson, RoundTripsEveryField) {
  const SweepSpec spec = full_spec();
  const SweepSpec back = sweep_spec_from_json(sweep_spec_json(spec));

  EXPECT_EQ(back.title, spec.title);
  EXPECT_EQ(back.scenario_family, spec.scenario_family);
  EXPECT_EQ(back.scenario_params.values(), spec.scenario_params.values());
  ASSERT_EQ(back.algorithms.size(), spec.algorithms.size());
  for (std::size_t i = 0; i < spec.algorithms.size(); ++i) {
    EXPECT_EQ(back.algorithms[i].name, spec.algorithms[i].name);
    EXPECT_EQ(back.algorithms[i].params.values(),
              spec.algorithms[i].params.values());
    EXPECT_EQ(back.algorithms[i].params.strings(),
              spec.algorithms[i].params.strings());
  }
  ASSERT_EQ(back.axes.size(), spec.axes.size());
  for (std::size_t i = 0; i < spec.axes.size(); ++i) {
    EXPECT_EQ(back.axes[i].target, spec.axes[i].target);
    EXPECT_EQ(back.axes[i].key, spec.axes[i].key);
    EXPECT_EQ(back.axes[i].values, spec.axes[i].values);
  }
  EXPECT_EQ(back.trials, spec.trials);
  EXPECT_EQ(back.seed_base, spec.seed_base);
  EXPECT_EQ(back.seeds, spec.seeds);
  EXPECT_EQ(back.threads, spec.threads);
  ASSERT_EQ(back.plans.size(), spec.plans.size());
  for (const auto& [name, overrides] : spec.plans) {
    EXPECT_EQ(back.plans.at(name).values(), overrides.values()) << name;
  }
  EXPECT_EQ(back.success.kind, spec.success.kind);
  EXPECT_DOUBLE_EQ(back.success.eps, spec.success.eps);
  EXPECT_TRUE(std::isnan(back.success.delta));  // kFromParams survives
  EXPECT_EQ(back.success2.kind, spec.success2.kind);
  EXPECT_DOUBLE_EQ(back.success2.min_size, spec.success2.min_size);
  EXPECT_DOUBLE_EQ(back.success2.max_eps, spec.success2.max_eps);

  // And a re-serialization is textually identical (canonical key order).
  EXPECT_EQ(sweep_spec_json(back), sweep_spec_json(spec));
}

TEST(SweepSpecJson, ParsedSpecRunsIdenticallyToTheStructOne) {
  SweepSpec spec;
  spec.scenario_family = "barbell";
  spec.algorithms = {{"peeling", AlgoParams().with("eps", 0.2)}};
  spec.axes = {{SweepAxis::Target::kScenario, "n", {24, 32}}};
  spec.trials = 2;
  spec.seed_base = 5;
  spec.success.kind = SuccessSpec::Kind::kSizeDensity;
  spec.success.min_size = 4;
  spec.success.max_eps = 0.25;
  const auto direct = run_sweep(spec);
  const auto via_json = run_sweep(sweep_spec_from_json(sweep_spec_json(spec)));
  ASSERT_EQ(direct.size(), via_json.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(sweep_row_json(direct[i]), sweep_row_json(via_json[i]));
  }
}

TEST(SweepSpecJson, RejectsMalformedDocuments) {
  EXPECT_THROW((void)sweep_spec_from_json("not json"),
               std::invalid_argument);
  EXPECT_THROW((void)sweep_spec_from_json("[1,2]"), std::invalid_argument);
  // Missing required fields.
  EXPECT_THROW((void)sweep_spec_from_json("{}"), std::invalid_argument);
  EXPECT_THROW((void)sweep_spec_from_json(
                   R"({"scenario":{"family":"barbell"}})"),
               std::invalid_argument);
  // Unknown top-level and nested fields name themselves.
  try {
    (void)sweep_spec_from_json(
        R"({"scenario":{"family":"barbell"},)"
        R"("algorithms":[{"name":"peeling"}],"gridd":[]})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("gridd"), std::string::npos);
  }
  // Bad fault keys are caught at parse time.
  EXPECT_THROW((void)sweep_spec_from_json(
                   R"({"scenario":{"family":"barbell"},)"
                   R"("algorithms":[{"name":"peeling"}],)"
                   R"("faults":{"packet_loss":0.1}})"),
               std::invalid_argument);
  // Count fields must be integral, matching the CLI flags' strictness.
  for (const char* bad :
       {R"("trials": 2.9)", R"("seed_base": 1.5)", R"("threads": 2.5)"}) {
    EXPECT_THROW((void)sweep_spec_from_json(
                     std::string(R"({"scenario":{"family":"barbell"},)") +
                     R"("algorithms":[{"name":"peeling"}],)" + bad + "}"),
                 std::invalid_argument)
        << bad;
  }
}

TEST(SweepJson, GoldenSchema) {
  const auto rows = run_sweep(tiny_spec());
  const std::string actual = sweep_json_lines(rows);

  std::ifstream golden_file(std::string(NC_TEST_DATA_DIR) +
                            "/sweep_schema_golden.jsonl");
  ASSERT_TRUE(golden_file.is_open())
      << "missing tests/data/sweep_schema_golden.jsonl; expected contents:\n"
      << actual;
  std::stringstream golden;
  golden << golden_file.rdbuf();
  EXPECT_EQ(golden.str(), actual)
      << "sweep JSON schema changed; if intentional, regenerate "
         "tests/data/sweep_schema_golden.jsonl with the actual output "
         "above/below:\n"
      << actual;
}

}  // namespace
}  // namespace nc
