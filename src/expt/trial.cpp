#include "expt/trial.hpp"

#include <algorithm>

#include "core/driver.hpp"
#include "graph/metrics.hpp"

namespace nc {

void accumulate_trial(TrialStats& stats, const Instance& inst,
                      const AlgoResult& result, bool success, bool success2) {
  ++stats.trials;
  if (success) ++stats.successes;
  if (success2) ++stats.successes2;
  stats.rounds.add(static_cast<double>(result.stats.rounds));
  stats.bits.add(static_cast<double>(result.stats.bits));
  stats.max_msg_bits.add(static_cast<double>(result.stats.max_message_bits));
  stats.local_ops.add(static_cast<double>(result.local_ops));
  RunStats& total = stats.stats_total;
  total.merge_traffic(result.stats);
  total.rounds += result.stats.rounds;
  total.crash_events += result.stats.crash_events;
  total.recover_events += result.stats.recover_events;
  total.hit_round_limit = total.hit_round_limit || result.stats.hit_round_limit;
  total.stalled = total.stalled || result.stats.stalled;
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
