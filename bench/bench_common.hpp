#pragma once

// Shared glue for the experiment benchmarks (E1..E12). Each bench binary is
// a google-benchmark executable whose cases run seeded trial batches, export
// the headline measurement as benchmark counters, and append one row per
// configuration to a process-global table that main() prints — the table,
// which `bench/run_benches.sh --experiments` prints for E1..E12, is the
// artifact to read against the paper's prediction.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace nc::bench {

/// Accumulates the experiment's result table across benchmark cases.
class TableSink {
 public:
  TableSink(std::string title, std::vector<std::string> headers)
      : title_(std::move(title)), table_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    table_.add_row(std::move(cells));
  }

  void print() const {
    std::cout << "\n=== " << title_ << " ===\n" << table_.str() << std::flush;
  }

 private:
  std::string title_;
  Table table_;
};

/// Runs the registered benchmarks, then prints every sink.
inline int run_main(int argc, char** argv,
                    const std::vector<const TableSink*>& sinks) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  for (const auto* sink : sinks) sink->print();
  return 0;
}

}  // namespace nc::bench
