#pragma once

#include <cstdint>

#include "algo/result.hpp"
#include "expt/scenario.hpp"
#include "util/stats.hpp"

namespace nc {

/// Aggregated measurements over repeated randomized trials of one
/// experimental configuration (one sweep table row / one sweep JSON line).
/// Success is judged by the sweep spec's named predicates (SuccessSpec).
struct TrialStats {
  std::size_t trials = 0;
  std::size_t successes = 0;
  std::size_t successes2 = 0;  ///< optional secondary predicate
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

/// How per-trial seeds derive from a sweep's base seed.
enum class SeedSchedule {
  kSalted,      ///< seed_base + 7919 * (t + 1)
  kSequential,  ///< seed_base + t — comparison sweeps sharing seeds
};

/// Folds one trial's outcome into the aggregate (the sweep runner's one
/// aggregation step).
void accumulate_trial(TrialStats& stats, const Instance& inst,
                      const AlgoResult& result, bool success, bool success2);

/// Standard Theorem 5.7 success predicate: the largest output cluster is a
/// bound_eps-near clique of size at least (1 - 13/2 eps)|D| - eps^{-2}.
/// Evaluates via the single theorem_success predicate in core/driver.hpp.
bool theorem57_success(const Instance& inst, const AlgoResult& result,
                       double eps, double delta);

/// The Theorem 5.7 bounds that theorem57_success applies.
struct Theorem57Bounds {
  double min_size;     ///< (1 - 13/2 eps)|D| - eps^{-2}, floored at 2
  double max_eps_out;  ///< (1/(1 - 13/2 eps)) * eps/delta
};
Theorem57Bounds theorem57_bounds(double eps, double delta,
                                 std::size_t planted_size);

}  // namespace nc
