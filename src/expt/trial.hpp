#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "algo/result.hpp"
#include "core/driver.hpp"
#include "expt/scenario.hpp"
#include "graph/generators.hpp"
#include "util/stats.hpp"

namespace nc {

/// Aggregated measurements over repeated randomized trials of one
/// experimental configuration (one table row / one sweep JSON line).
/// Success is defined by the experiment (each bench documents its predicate
/// against the paper's statement being reproduced).
struct TrialStats {
  std::size_t trials = 0;
  std::size_t successes = 0;
  std::size_t successes2 = 0;  ///< optional secondary predicate

  [[nodiscard]] double success2_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(successes2) /
                             static_cast<double>(trials);
  }
  RunningStat rounds;
  RunningStat bits;
  RunningStat max_msg_bits;
  RunningStat out_size;        ///< largest output cluster size
  RunningStat out_density;     ///< its Definition-1 density
  RunningStat size_ratio;      ///< |output| / |planted|
  RunningStat recall;          ///< |output ∩ planted| / |planted|
  RunningStat local_ops;
  /// Every trial's RunStats folded into one: rounds and counters summed,
  /// the largest message kept, the two abort flags OR-ed. Carries the
  /// fault and reliability counters (lost, delayed, retransmitted, ...).
  RunStats stats_total;

  [[nodiscard]] double success_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(successes) /
                             static_cast<double>(trials);
  }
  [[nodiscard]] Interval success_interval() const {
    return wilson_interval(successes, trials);
  }
};

/// Per-trial hooks: generate the instance, run the algorithm, judge success.
/// `run` speaks the unified AlgoResult, so one TrialSpec covers the
/// distributed protocol and every registered baseline alike (registry-backed
/// hooks come from scenario_maker / the sweep runner in expt/sweep.hpp).
struct TrialSpec {
  std::function<Instance(std::uint64_t seed)> make_instance;
  std::function<AlgoResult(const Graph& g, std::uint64_t seed)> run;
  /// Judge: given instance, result — is this trial a success?
  std::function<bool(const Instance&, const AlgoResult&)> success;
  /// Optional second judge (e.g. a non-vacuous finite-n predicate reported
  /// next to the literal theorem predicate).
  std::function<bool(const Instance&, const AlgoResult&)> success2;
};

/// How per-trial seeds derive from the batch's base seed.
enum class SeedSchedule {
  kSalted,      ///< seed_base + 7919 * (t + 1) — the historical E-bench salt
  kSequential,  ///< seed_base + t — comparison batches (E10) sharing seeds
};

/// Runs `trials` seeded executions and aggregates.
TrialStats run_trials(const TrialSpec& spec, std::size_t trials,
                      std::uint64_t seed_base,
                      SeedSchedule schedule = SeedSchedule::kSalted);

/// Folds one trial's outcome into the aggregate. Shared by run_trials and
/// the sweep runner (which shares instances across algorithms), so both
/// aggregate bit-identically.
void accumulate_trial(TrialStats& stats, const Instance& inst,
                      const AlgoResult& result, bool success, bool success2);

/// Builds a TrialSpec::make_instance hook that resolves `family` through the
/// global ScenarioRegistry with the given parameter overrides; the per-trial
/// seed from run_trials becomes the scenario seed.
std::function<Instance(std::uint64_t)> scenario_maker(std::string family,
                                                      ScenarioParams params);

/// Builds a TrialSpec::run hook that resolves `algorithm` through the global
/// AlgorithmRegistry with the given parameter overrides; the per-trial seed
/// becomes the algorithm seed. The registry counterpart of scenario_maker.
/// `threads` > 1 requests delivery sharding and is forwarded as the
/// "threads" parameter when the algorithm declares one (an explicit value
/// in `params` wins); it is ignored — not an error — for algorithms that
/// don't, so one trial batch can mix network-backed and centralized
/// algorithms.
std::function<AlgoResult(const Graph&, std::uint64_t)> algorithm_runner(
    std::string algorithm, ParamSet params, unsigned threads = 1);

/// Standard Theorem 5.7 success predicate: the largest output cluster is a
/// bound_eps-near clique of size at least (1 - 13/2 eps)|D| - eps^{-2}.
/// Evaluates via the single theorem_success predicate in core/driver.hpp.
bool theorem57_success(const Instance& inst, const AlgoResult& result,
                       double eps, double delta);

/// Theorem 5.7 bounds, exposed for table printing.
struct Theorem57Bounds {
  double min_size;     ///< (1 - 13/2 eps)|D| - eps^{-2}, floored at 2
  double max_eps_out;  ///< (1/(1 - 13/2 eps)) * eps/delta
};
Theorem57Bounds theorem57_bounds(double eps, double delta,
                                 std::size_t planted_size);

}  // namespace nc
