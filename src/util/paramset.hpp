#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nc {

/// Typed parameter bag shared by the scenario and algorithm registries.
/// Numeric values are stored as doubles (every numeric parameter in this
/// codebase is a count, probability or fraction); the typed getters round or
/// threshold as appropriate. String values (file paths, objective names) are
/// kept in a separate map so numeric parsing stays exact. The fluent `with`
/// avoids narrowing pitfalls of brace initialization:
///
///   ParamSet().with("n", 200).with("path", "graph.txt")
class ParamSet {
 public:
  ParamSet() = default;

  template <typename T>
  ParamSet&& with(const std::string& key, T value) && {
    values_[key] = static_cast<double>(value);
    return std::move(*this);
  }
  template <typename T>
  ParamSet& with(const std::string& key, T value) & {
    values_[key] = static_cast<double>(value);
    return *this;
  }
  ParamSet&& with(const std::string& key, std::string value) && {
    strings_[key] = std::move(value);
    return std::move(*this);
  }
  ParamSet& with(const std::string& key, std::string value) & {
    strings_[key] = std::move(value);
    return *this;
  }
  ParamSet&& with(const std::string& key, const char* value) && {
    return std::move(*this).with(key, std::string(value));
  }
  ParamSet& with(const std::string& key, const char* value) & {
    return with(key, std::string(value));
  }

  /// True when the key is set, as either a numeric or a string value.
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key) || strings_.contains(key);
  }
  [[nodiscard]] bool has_number(const std::string& key) const {
    return values_.contains(key);
  }
  [[nodiscard]] bool has_string(const std::string& key) const {
    return strings_.contains(key);
  }

  /// Getters throw std::invalid_argument when the key is absent (or set
  /// with the other type).
  [[nodiscard]] double get_double(const std::string& key) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key) const;
  [[nodiscard]] bool get_bool(const std::string& key) const;
  [[nodiscard]] const std::string& get_string(const std::string& key) const;

  /// Convenience: the numeric value when set, `def` otherwise.
  [[nodiscard]] double get_double_or(const std::string& key, double def) const;

  /// The numeric value as an exact count. Throws std::invalid_argument
  /// naming the key when the value is NaN, negative, non-integral or above
  /// 2^53 (where doubles start skipping integers), so no out-of-range double
  /// is ever cast to an integer. get_count_or returns `def` when unset.
  [[nodiscard]] std::uint64_t get_count(const std::string& key) const;
  [[nodiscard]] std::uint64_t get_count_or(const std::string& key,
                                           std::uint64_t def) const;

  [[nodiscard]] const std::map<std::string, double>& values() const {
    return values_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& strings() const {
    return strings_;
  }

  /// Union of numeric and string keys, sorted.
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> strings_;
};

/// Merges `overrides` onto `defaults`: every override key must be declared
/// in the defaults with the same type. Throws std::invalid_argument with a
/// self-explaining message ("<context> has no parameter 'x'; parameters:
/// ...") on unknown keys or numeric/string type mismatches. `context` reads
/// like "scenario family 'theorem'" or "algorithm 'peeling'".
ParamSet merge_params(const ParamSet& defaults, const ParamSet& overrides,
                      const std::string& context);

/// Parses a "key=value,key=value" list. Values parse as numbers (or
/// true/false), except keys that `declared` (when non-null) marks as string
/// parameters, which are taken verbatim. Throws std::invalid_argument on
/// malformed input.
ParamSet parse_params_csv(const std::string& csv,
                          const ParamSet* declared = nullptr);

/// One-line " key=value key2=value2" rendering (defaults catalogues, table
/// cells). An integral number prints as an integer (n=1000000, not
/// n=1e+06), any other in the shortest form that parses back to the same
/// double (eps=0.2, p=1e-05).
std::string describe_params(const ParamSet& params);

/// "a, b, c" — shared by every registry's catalogue-listing error message.
std::string join_comma(const std::vector<std::string>& parts);

/// Strict numeric literal parse (the whole string must be consumed; also
/// accepts true/false as 1/0). Throws std::invalid_argument mentioning
/// `what`. The single implementation behind parameter and grid parsing.
double parse_number(const std::string& text, const std::string& what);

}  // namespace nc
