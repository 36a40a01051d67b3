#include "expt/trial.hpp"

#include <algorithm>

#include "algo/registry.hpp"
#include "graph/metrics.hpp"

namespace nc {

TrialStats run_trials(const TrialSpec& spec, std::size_t trials,
                      std::uint64_t seed_base, SeedSchedule schedule) {
  TrialStats stats;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::uint64_t seed = schedule == SeedSchedule::kSalted
                                   ? seed_base + 7919 * (t + 1)
                                   : seed_base + t;
    const Instance inst = spec.make_instance(seed);
    const AlgoResult result = spec.run(inst.graph, seed);
    accumulate_trial(stats, inst, result,
                     spec.success && spec.success(inst, result),
                     spec.success2 && spec.success2(inst, result));
  }
  return stats;
}

void accumulate_trial(TrialStats& stats, const Instance& inst,
                      const AlgoResult& result, bool success, bool success2) {
  ++stats.trials;
  if (success) ++stats.successes;
  if (success2) ++stats.successes2;
  stats.rounds.add(static_cast<double>(result.stats.rounds));
  stats.bits.add(static_cast<double>(result.stats.bits));
  stats.max_msg_bits.add(static_cast<double>(result.stats.max_message_bits));
  stats.local_ops.add(static_cast<double>(result.local_ops));
  const auto best = result.largest_cluster();
  stats.out_size.add(static_cast<double>(best.size()));
  stats.out_density.add(best.empty() ? 0.0 : set_density(inst.graph, best));
  if (!inst.planted.empty()) {
    stats.size_ratio.add(static_cast<double>(best.size()) /
                         static_cast<double>(inst.planted.size()));
    std::size_t overlap = 0;
    for (const NodeId v : best) {
      if (std::binary_search(inst.planted.begin(), inst.planted.end(), v)) {
        ++overlap;
      }
    }
    stats.recall.add(static_cast<double>(overlap) /
                     static_cast<double>(inst.planted.size()));
  }
}

std::function<Instance(std::uint64_t)> scenario_maker(std::string family,
                                                      ScenarioParams params) {
  return [family = std::move(family),
          params = std::move(params)](std::uint64_t seed) {
    return make_scenario(family, params, seed);
  };
}

std::function<AlgoResult(const Graph&, std::uint64_t)> algorithm_runner(
    std::string algorithm, ParamSet params, unsigned threads) {
  if (threads > 1) {
    forward_params(algorithm, ParamSet().with("threads", threads), params);
  }
  return [algorithm = std::move(algorithm),
          params = std::move(params)](const Graph& g, std::uint64_t seed) {
    return run_algorithm(g, algorithm, params, seed);
  };
}

Theorem57Bounds theorem57_bounds(double eps, double delta,
                                 std::size_t planted_size) {
  Theorem57Bounds b;
  const double shrink = 1.0 - 6.5 * eps;
  b.min_size = std::max(
      2.0, shrink * static_cast<double>(planted_size) - 1.0 / (eps * eps));
  // For eps >= 2/13 the theorem's density factor exceeds 1 and the bound is
  // vacuous (any set qualifies); cap at 1 so callers and tables stay sane.
  // The footnote of Theorem 5.7 notes the clean 2*eps/delta form only holds
  // for eps < 1/13.
  b.max_eps_out =
      std::min(1.0, (1.0 / std::max(1e-9, shrink)) * (eps / delta));
  return b;
}

bool theorem57_success(const Instance& inst, const AlgoResult& result,
                       double eps, double delta) {
  const auto bounds = theorem57_bounds(eps, delta, inst.planted.size());
  return theorem_success(inst.graph, result.largest_cluster(),
                         bounds.min_size, bounds.max_eps_out);
}

}  // namespace nc
