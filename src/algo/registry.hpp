#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "algo/result.hpp"
#include "core/driver.hpp"
#include "graph/graph.hpp"
#include "util/paramset.hpp"

namespace nc {

/// Algorithm parameters use the shared registry param bag, exactly like
/// scenario parameters.
using AlgoParams = ParamSet;

/// A fully specified algorithm invocation: registered name, parameter
/// overrides on the algorithm's defaults, and the seed every random draw
/// derives from. Value-semantics and printable, mirroring ScenarioSpec, so
/// a (scenario, algorithm) pair fully describes an experiment trial.
struct AlgoSpec {
  std::string name;
  AlgoParams params;  ///< overrides; unset keys take the algorithm defaults
  std::uint64_t seed = 1;
};

/// Registry mapping algorithm names to adapters producing the common
/// AlgoResult. The symmetric half of the ScenarioRegistry: every comparison
/// entry point (E10, the sweep runner, the nearclique CLI, the examples)
/// resolves algorithms through this table, so adding an algorithm (or
/// baseline) is one registration instead of one more copy of config
/// plumbing.
///
/// Determinism contract: run() is a pure function of (graph, name, merged
/// params, seed) — repeated calls return identical AlgoResults.
class AlgorithmRegistry {
 public:
  using Runner = std::function<AlgoResult(
      const Graph& g, const AlgoParams& params, std::uint64_t seed)>;

  struct Algorithm {
    std::string name;
    std::string description;
    CostModel model;
    /// Declares the complete legal parameter set with its default values;
    /// a spec referencing any other key is rejected.
    AlgoParams defaults;
    Runner run;
  };

  /// Registers an algorithm. Throws std::invalid_argument on duplicates.
  void add(Algorithm algorithm);

  /// Looks up an algorithm. Throws std::invalid_argument (listing the known
  /// names) when absent.
  [[nodiscard]] const Algorithm& algorithm(const std::string& name) const;

  /// Runs a spec on `g`: validates the name and every override key, merges
  /// overrides onto the defaults, invokes the adapter and stamps the
  /// result's cost model. Throws std::invalid_argument with a
  /// self-explaining message on unknown names or parameters.
  [[nodiscard]] AlgoResult run(const Graph& g, const AlgoSpec& spec) const;

  /// Registered algorithm names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// The process-wide registry with every built-in algorithm registered:
  /// dist_near_clique, shingles, neighbors2, peeling, grasp, ggr_find.
  static const AlgorithmRegistry& global();

 private:
  std::map<std::string, Algorithm> algorithms_;
};

/// Convenience: resolve through the global registry.
AlgoResult run_algorithm(const Graph& g, const std::string& name,
                         const AlgoParams& params, std::uint64_t seed);

/// The forward rule behind every run-wide knob (`--threads`, `--profile`
/// and the plan flags below), shared by `nearclique run`, run_sweep and
/// algorithm_runner: copies each numeric key of `bag` that the globally
/// registered algorithm `name` declares into `params`, unless `params`
/// already sets it (explicit per-algorithm values win). Returns whether the
/// algorithm declares any key of `bag`; false (also for an unknown
/// algorithm) means the bag was ignored for it.
bool forward_params(const std::string& name, const ParamSet& bag,
                    AlgoParams& params);

/// One opt-in runtime plan: a named bag of parameters that disturbs or
/// observes the simulated network (src/runtime/). Adding a plan is one
/// entry in runtime_plans(); the CLI flag, the SweepSpec/spec-file entry,
/// validation, forwarding and the network-backed algorithm's defaults all
/// come from the table.
struct RuntimePlan {
  std::string name;  ///< also the CLI flag (--name=k=v,..) and spec-file key
  const ParamSet& (*defaults)();  ///< the complete key set with defaults
  /// Throws std::invalid_argument on an out-of-range value in a merged
  /// (defaults + overrides) bag; the plan's typed reader does the work.
  void (*validate)(const ParamSet& merged);
};

/// The plan table, in CLI and spec-file order: faults
/// (src/runtime/faults.hpp), reliability (reliability.hpp), telemetry
/// (telemetry.hpp).
const std::vector<RuntimePlan>& runtime_plans();

/// Validates an override bag for the plan named `plan`. Throws
/// std::invalid_argument on an unknown plan (listing the plans), an unknown
/// key (listing the plan's keys) or an out-of-range value.
void validate_plan_params(const std::string& plan, const ParamSet& overrides);

/// Parses a "key=value,key=value" parameter list into a spec for `name`
/// (string-typed parameters of the algorithm parse verbatim). Throws
/// std::invalid_argument on malformed input.
AlgoSpec parse_algo_spec(const std::string& name,
                         const std::string& params_csv, std::uint64_t seed);

/// Human-readable catalogue of the registered algorithms with model and
/// defaults (what `nearclique list-algorithms` prints).
std::string describe_algorithms(const AlgorithmRegistry& registry);

/// Wraps a protocol outcome in the common result type (used by adapters and
/// by benches with bespoke drivers).
AlgoResult to_algo_result(const NearCliqueResult& result);

}  // namespace nc
