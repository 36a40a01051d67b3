#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nc {

/// Minimal `--key=value` / `--flag` command-line parser for the `nearclique`
/// CLI, the example programs and perfbench's `nc_op`. A bare `--flag`
/// stores "1". Unknown keys are kept; a caller that declares its flags
/// rejects the rest with reject_unknown.
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

  /// Throws std::invalid_argument naming the first key that is not in
  /// `flags`, the `command` it was given to, and `flags` themselves. The
  /// `nearclique` commands call it, so a typo such as --thread exits with
  /// an error instead of running on the default.
  void reject_unknown(const std::string& command,
                      const std::vector<std::string>& flags) const;

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace nc
