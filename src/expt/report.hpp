#pragma once

#include <initializer_list>
#include <string>

#include "expt/trial.hpp"
#include "util/table.hpp"

namespace nc {

/// Appends the standard measurement columns of a TrialStats row to a table
/// row (success rate with Wilson interval, output size/density, rounds,
/// traffic). Keeps the experiment tables every bench binary prints
/// (`bench/run_benches.sh --experiments`) consistent.
void append_stats_cells(std::vector<std::string>& row,
                        const TrialStats& stats);

/// The standard column headers matching append_stats_cells.
std::vector<std::string> stats_headers();

/// Sum of RunStats::bits_by_kind over the listed kinds (out-of-range kinds
/// contribute zero). Shared by the stage-breakdown experiments.
[[nodiscard]] std::uint64_t bits_for_kinds(
    const RunStats& stats, std::initializer_list<std::uint16_t> kinds);

}  // namespace nc
