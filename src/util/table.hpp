#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace nc {

/// Column-aligned ASCII table writer.
///
/// `nearclique sweep` prints its rows through this class (sweep_table), so
/// every experiment table `bench/run_benches.sh --experiments` prints has
/// one format. Cells are strings; numeric helpers format with fixed
/// precision.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Appends a full row. Rows shorter than the header are padded with "".
  void add_row(std::vector<std::string> cells);

  /// Formats a double with `prec` digits after the decimal point.
  static std::string num(double v, int prec = 3);

  /// Formats an integer value.
  static std::string num(std::uint64_t v);
  static std::string num(std::int64_t v);

  /// Renders the table with a separator line under the header.
  [[nodiscard]] std::string str() const;

  /// Streams the rendered table.
  friend std::ostream& operator<<(std::ostream& os, const Table& t);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace nc
