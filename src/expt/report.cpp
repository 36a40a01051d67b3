#include "expt/report.hpp"

#include <sstream>

namespace nc {

std::vector<std::string> stats_headers() {
  return {"success", "95% CI",  "out_size", "density",
          "recall",  "rounds",  "max_msg_b"};
}

void append_stats_cells(std::vector<std::string>& row,
                        const TrialStats& stats) {
  const auto ci = stats.success_interval();
  std::ostringstream ci_s;
  ci_s << "[" << Table::num(ci.lo, 2) << "," << Table::num(ci.hi, 2) << "]";
  row.push_back(Table::num(stats.success_rate(), 2));
  row.push_back(ci_s.str());
  row.push_back(Table::num(stats.out_size.mean(), 1));
  row.push_back(Table::num(stats.out_density.mean(), 3));
  row.push_back(Table::num(stats.recall.mean(), 2));
  row.push_back(Table::num(stats.rounds.mean(), 0));
  row.push_back(Table::num(stats.max_msg_bits.max(), 0));
}

std::uint64_t bits_for_kinds(const RunStats& stats,
                             std::initializer_list<std::uint16_t> kinds) {
  std::uint64_t total = 0;
  for (const std::uint16_t k : kinds) {
    if (k < stats.bits_by_kind.size()) total += stats.bits_by_kind[k];
  }
  return total;
}

}  // namespace nc
