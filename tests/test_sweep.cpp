// Coverage for the declarative sweep runner: grid expansion and ordering,
// seed schedules, equivalence with hand-wired trial batches (the guarantee
// the ported E-benches rely on), validation errors, and a golden-file test
// for the JSON-lines schema.

#include <gtest/gtest.h>

#include <cmath>
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

TEST(Sweep, MatchesHandWiredTrialBatch) {
  // The guarantee the ported E-benches rely on: a one-point sweep aggregates
  // exactly like the historical TrialSpec plumbing with the same seeds.
  const AlgoParams algo_params = AlgoParams()
                                     .with("eps", 0.2)
                                     .with("pn", 5.0)
                                     .with("max_rounds", 2'000'000);
  TrialSpec hand;
  hand.make_instance = scenario_maker(
      "theorem", ScenarioParams().with("n", 60).with("delta", 0.5));
  hand.run = algorithm_runner("dist_near_clique", algo_params);
  hand.success = [](const Instance& inst, const AlgoResult& res) {
    return theorem57_success(inst, res, 0.2, 0.5);
  };
  const TrialStats direct = run_trials(hand, 3, 0x5eed);

  SweepSpec spec;
  spec.scenario_family = "theorem";
  spec.scenario_params = ScenarioParams().with("n", 60).with("delta", 0.5);
  spec.algorithms = {{"dist_near_clique", algo_params}};
  spec.trials = 3;
  spec.seed_base = 0x5eed;
  spec.success.kind = SuccessSpec::Kind::kTheorem57;
  const auto rows = run_sweep(spec);
  ASSERT_EQ(rows.size(), 1u);
  const TrialStats& via_sweep = rows[0].stats;

  EXPECT_EQ(direct.trials, via_sweep.trials);
  EXPECT_EQ(direct.successes, via_sweep.successes);
  EXPECT_DOUBLE_EQ(direct.rounds.mean(), via_sweep.rounds.mean());
  EXPECT_DOUBLE_EQ(direct.bits.mean(), via_sweep.bits.mean());
  EXPECT_DOUBLE_EQ(direct.out_size.mean(), via_sweep.out_size.mean());
  EXPECT_DOUBLE_EQ(direct.out_density.mean(), via_sweep.out_density.mean());
  EXPECT_DOUBLE_EQ(direct.recall.mean(), via_sweep.recall.mean());
  EXPECT_DOUBLE_EQ(direct.local_ops.mean(), via_sweep.local_ops.mean());
}

TEST(TrialRunner, SeedSchedules) {
  std::vector<std::uint64_t> seeds;
  TrialSpec t;
  t.make_instance = [&seeds](std::uint64_t seed) {
    seeds.push_back(seed);
    return make_scenario("barbell", ScenarioParams().with("n", 16), seed);
  };
  t.run = algorithm_runner("peeling", {});
  (void)run_trials(t, 3, 100, SeedSchedule::kSequential);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{100, 101, 102}));
  seeds.clear();
  (void)run_trials(t, 2, 100);  // default: the historical salted schedule
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{100 + 7919, 100 + 15838}));
}

TEST(TrialRunner, ThreadsKnobForwardsOnlyToDeclaringAlgorithms) {
  // algorithm_runner's threads argument shards delivery for algorithms
  // that declare the knob — bit-identical results, so the two runners
  // must agree exactly — and is silently ignored for centralized
  // baselines (so one batch can mix both kinds).
  Rng rng(19);
  const auto inst = planted_partition(48, 3, 0.85, 0.05, rng);
  const AlgoParams params =
      AlgoParams().with("eps", 0.2).with("max_rounds", 2'000'000);
  const auto serial = algorithm_runner("dist_near_clique", params);
  const auto sharded = algorithm_runner("dist_near_clique", params, 4);
  const AlgoResult a = serial(inst.graph, 23);
  const AlgoResult b = sharded(inst.graph, 23);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.bits, b.stats.bits);
  EXPECT_EQ(a.local_ops, b.local_ops);

  const auto central = algorithm_runner("peeling", {}, 4);  // no knob: ok
  EXPECT_FALSE(central(inst.graph, 23).labels.empty());
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
