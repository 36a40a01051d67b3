#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace nc {

/// Minimal `--key=value` / `--flag` command-line parser for the `nearclique`
/// CLI, the example programs and perfbench's `nc_op`. A bare `--flag`
/// stores "1". Unknown keys are kept; callers decide which keys they read.
class Args {
 public:
  /// Parses argv; arguments not starting with "--" are ignored.
  Args(int argc, const char* const* argv);

  /// Returns the value for `key`, or `def` if absent.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def = "") const;

  /// Typed accessors with defaults. The whole value must parse: junk, a
  /// fraction for get_int, or a value out of range (non-finite for
  /// get_double) throws std::invalid_argument naming the flag.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def = false) const;

  /// True if the key was present on the command line.
  [[nodiscard]] bool has(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace nc
