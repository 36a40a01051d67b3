#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "expt/scenario.hpp"
#include "expt/trial.hpp"
#include "util/table.hpp"

namespace nc {

/// One swept parameter: a key taking each listed value in turn, applied to
/// the scenario params, the algorithm params, or both (e.g. "eps", which the
/// theorem family and DistNearClique share).
struct SweepAxis {
  enum class Target { kScenario, kAlgorithm, kBoth };
  Target target = Target::kScenario;
  std::string key;
  std::vector<double> values;
};

/// Declarative, serializable success predicate evaluated per trial, so a
/// sweep spec fully describes an experiment without callback plumbing.
struct SuccessSpec {
  enum class Kind {
    kNone,         ///< no success column (comparison sweeps like E10)
    kTheorem57,    ///< the paper's Theorem 5.7 predicate at (eps, delta)
    kEffective,    ///< >= 2/3 of the planted set at density >= 1 - 2 eps
                   ///< (the finite-n companion predicate of bench E1)
    kSizeDensity,  ///< literal bound: size >= min_size, max_eps-near clique
  };
  Kind kind = Kind::kNone;

  /// Sentinel meaning "derive from the run's own parameters".
  static constexpr double kFromParams =
      std::numeric_limits<double>::quiet_NaN();

  /// theorem57/effective eps and theorem57 delta. Left at kFromParams they
  /// are read per grid point from the merged algorithm params ("eps") and
  /// merged scenario params ("delta"), falling back to 0.2 / 0.4 when the
  /// configuration declares neither; set explicitly they override both
  /// (the CLI's --success-eps / --success-delta).
  double eps = kFromParams;
  double delta = kFromParams;

  double min_size = 2;    ///< size_density bound
  double max_eps = 0.1;   ///< size_density bound

  [[nodiscard]] std::string name() const;
};

/// Parses a predicate name ("none", "theorem57", "effective",
/// "size_density"); throws std::invalid_argument listing the options.
SuccessSpec parse_success_spec(const std::string& text);

/// A declarative experiment: scenario family x algorithms x parameter grid
/// x trials x seeds -> one TrialStats row per (algorithm, grid point).
/// Everything resolves through the two global registries, so a spec is a
/// complete, replayable description of a comparison (the E-bench tables,
/// `nearclique sweep`, BENCH_sweep.json are all this struct).
struct SweepSpec {
  std::string title;

  std::string scenario_family;
  ScenarioParams scenario_params;  ///< base overrides on the family defaults

  /// Algorithms to compare; each spec's params are base overrides on that
  /// algorithm's defaults (AlgoSpec::seed is ignored — seeds come from the
  /// schedule below).
  std::vector<AlgoSpec> algorithms;

  std::vector<SweepAxis> axes;  ///< cross product, first axis outermost

  std::size_t trials = 5;
  std::uint64_t seed_base = 1;
  SeedSchedule seeds = SeedSchedule::kSalted;

  /// Delivery sharding for network-backed algorithms: applied as the
  /// "threads" parameter to every listed algorithm that declares one
  /// (explicit per-algorithm overrides win). Purely a performance knob —
  /// the sharded engine is bit-identical at every thread count — so it
  /// lives here beside trials/seeds rather than in the parameter grid.
  std::size_t threads = 1;

  /// Runtime-plan overrides keyed by plan name (runtime_plans(): "faults",
  /// "reliability", "telemetry"). Each bag reaches every listed algorithm
  /// that declares its keys by forward_params, exactly like `threads` —
  /// explicit per-algorithm overrides and axis values win. One
  /// `--faults=loss=0.05` therefore subjects every network-backed
  /// algorithm in a comparison to the same adversity while centralized
  /// baselines are unaffected; telemetry captures come back via
  /// run_sweep's capture sink.
  std::map<std::string, ParamSet> plans;

  SuccessSpec success;
  SuccessSpec success2;
};

/// One result row: the resolved configuration plus aggregated trial stats.
struct SweepRow {
  std::string scenario_family;
  ScenarioParams scenario_params;  ///< base + axis overrides (not defaults)
  std::string algorithm;
  CostModel model = CostModel::kCongest;
  AlgoParams algo_params;          ///< base + axis overrides (not defaults)
  /// Fully merged configurations (defaults + overrides) — what actually
  /// ran. The JSON output records these, so a row is self-describing even
  /// when an algorithm took a default the others overrode.
  ScenarioParams scenario_merged;
  AlgoParams algo_merged;
  std::size_t trials = 0;
  std::uint64_t seed_base = 1;
  SeedSchedule seeds = SeedSchedule::kSalted;
  TrialStats stats;

  /// Mean model-appropriate cost: rounds under CONGEST, local_ops under
  /// LOCAL/central (the E10 comparison convention).
  [[nodiscard]] double headline_cost_mean() const;
};

/// Per-trial telemetry captures of a sweep (only trials whose algorithm ran
/// with telemetry enabled contribute an entry). Entries arrive in execution
/// order: grid-point-major, then trial, then the spec's algorithm order.
struct TelemetryCapture {
  struct Entry {
    std::string algorithm;
    std::size_t row = 0;    ///< index into run_sweep's returned rows
    std::size_t trial = 0;  ///< trial ordinal within the row
    std::uint64_t seed = 0;
    std::shared_ptr<Telemetry> telemetry;
  };
  std::vector<Entry> entries;
};

/// Runs the sweep: for every algorithm and every grid point, `trials` seeded
/// executions resolved through the Scenario- and AlgorithmRegistry,
/// aggregated exactly like run_trials (so sweep rows are bit-identical to
/// the historical hand-wired TrialSpec batches). Each grid point's instance
/// is generated once per trial seed and shared by every algorithm (the E10
/// comparison shape pays one generation, not one per algorithm). Rows are
/// ordered algorithm-major, then grid points with the first axis outermost.
/// Every (algorithm, grid point) configuration is validated up front, so
/// unknown families, algorithms or parameters throw std::invalid_argument
/// before any trial runs. When `capture` is non-null, every trial that ran
/// with telemetry enabled appends its capture there.
std::vector<SweepRow> run_sweep(const SweepSpec& spec,
                                TelemetryCapture* capture = nullptr);

/// One machine-readable JSON object (single line, no trailing newline) per
/// row: scenario, algorithm, seed schedule, trial counts and the full
/// measurement distribution summaries.
std::string sweep_row_json(const SweepRow& row);

/// All rows as JSON lines (one object per line, trailing newline).
std::string sweep_json_lines(const std::vector<SweepRow>& rows);

/// Human-readable comparison table of the rows.
Table sweep_table(const std::vector<SweepRow>& rows);

/// Serializes a SweepSpec as a pretty-printed JSON document (every field,
/// including one object per runtime plan), the inverse of
/// sweep_spec_from_json — round-tripping is exact up to key order.
std::string sweep_spec_json(const SweepSpec& spec);

/// Parses a sweep spec document (the `nearclique sweep --spec=FILE`
/// format):
///
///   {
///     "title": "...",
///     "scenario": {"family": "theorem", "params": {"n": 60}},
///     "algorithms": [{"name": "dist_near_clique",
///                     "params": {"eps": 0.2}}],
///     "axes": [{"target": "both", "key": "eps",
///               "values": [0.1, 0.2]}],
///     "trials": 4, "seed_base": 1, "seeds": "salted",
///     "threads": 2, "faults": {"loss": 0.05, "delay_max": 3},
///     "reliability": {"rel_mode": 1, "rel_max_retx": 8},
///     "success": {"kind": "theorem57"},
///     "success2": {"kind": "none"}
///   }
///
/// Every key is optional except scenario.family and algorithms; omitted
/// keys take the SweepSpec defaults. Each runtime plan's object ("faults",
/// "reliability", "telemetry") is validated against that plan's keys.
/// Throws std::invalid_argument with a self-explaining message on
/// malformed JSON, unknown keys or bad values.
SweepSpec sweep_spec_from_json(const std::string& text);

}  // namespace nc
