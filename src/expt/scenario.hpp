#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "util/paramset.hpp"

namespace nc {

/// Scenario parameters are the shared registry param bag (util/paramset.hpp),
/// so scenario and algorithm specs parse, merge and validate identically.
using ScenarioParams = ParamSet;

/// A fully specified instance request: family name, parameter overrides on
/// the family defaults, and the seed every random draw derives from. A spec
/// is value-semantics and printable, so experiment configurations can be
/// logged, compared and replayed.
struct ScenarioSpec {
  std::string family;
  ScenarioParams params;  ///< overrides; unset keys take the family defaults
  std::uint64_t seed = 1;
};

/// Registry mapping family names to instance makers. Every experiment entry
/// point (examples, the sweep runner, the CLI, tests) resolves instances
/// through this table, so adding a workload is one registration instead of
/// one more copy of generator plumbing.
///
/// Determinism contract: make() is a pure function of (family, merged
/// params, seed) — repeated calls return bit-identical instances.
class ScenarioRegistry {
 public:
  using Maker =
      std::function<Instance(const ScenarioParams&, std::uint64_t seed)>;

  /// The legal values [lo, hi] of one numeric key; hi = +infinity leaves
  /// it unbounded above. Infinite values are never legal.
  struct Range {
    std::string key;
    double lo = 0.0;
    double hi = 1.0;
  };

  struct Family {
    std::string name;
    std::string description;
    /// Declares the complete legal parameter set with its default values;
    /// a spec referencing any other key is rejected.
    ScenarioParams defaults;
    /// The keys of `defaults` with a declared range — every probability
    /// and fraction in [0, 1], radii, degrees and exponents >= 0: make()
    /// rejects a merged value outside its range, NaN and infinities
    /// included.
    std::vector<Range> ranges;
    Maker make;
  };

  /// Registers a family. Throws std::invalid_argument on duplicate names
  /// and on a range whose key `defaults` does not declare.
  void add(Family family);

  /// Looks up a family. Throws std::invalid_argument (listing the known
  /// names) when absent.
  [[nodiscard]] const Family& family(const std::string& name) const;

  /// Builds the instance for a spec: validates the family and every
  /// override key, merges overrides onto the defaults, and invokes the
  /// maker. Throws std::invalid_argument with a self-explaining message on
  /// unknown family or parameter names, and on a value outside its declared
  /// range (naming the family, the key and the range).
  [[nodiscard]] Instance make(const ScenarioSpec& spec) const;

  /// Registered family names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// The process-wide registry with every built-in family registered.
  static const ScenarioRegistry& global();

 private:
  std::map<std::string, Family> families_;
};

/// Convenience: resolve through the global registry.
Instance make_scenario(const std::string& family, const ScenarioParams& params,
                       std::uint64_t seed);

/// Parses a "key=value,key=value" parameter list (values are numbers, or
/// true/false) into a spec for `family`. Throws std::invalid_argument on
/// malformed input.
ScenarioSpec parse_scenario_spec(const std::string& family,
                                 const std::string& params_csv,
                                 std::uint64_t seed);

/// Human-readable catalogue of the registered families with their defaults
/// (what `quickstart --list` prints).
std::string describe_families(const ScenarioRegistry& registry);

}  // namespace nc
