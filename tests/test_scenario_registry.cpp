// Coverage for the ScenarioRegistry: every registered family round-trips
// (name + params + seed -> instance) deterministically, overrides are
// honored, and unknown names / parameters fail with self-explaining errors.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "expt/scenario.hpp"

namespace nc {
namespace {

/// Families backed by external files need a path parameter, so the generic
/// default-parameter loops skip them (tests/test_edge_list.cpp covers them
/// with real temp files).
bool is_file_backed(const std::string& name) {
  return name == "edge_list_file";
}

TEST(ScenarioRegistry, EveryFamilyRoundTripsDeterministically) {
  const auto& registry = ScenarioRegistry::global();
  const auto names = registry.names();
  ASSERT_GE(names.size(), 10u);
  for (const auto& name : names) {
    if (is_file_backed(name)) continue;
    const ScenarioSpec spec{name, {}, /*seed=*/5};
    const Instance a = registry.make(spec);
    const Instance b = registry.make(spec);
    EXPECT_EQ(a.graph.n(), b.graph.n()) << name;
    EXPECT_EQ(a.graph.edge_list(), b.graph.edge_list()) << name;
    EXPECT_EQ(a.planted, b.planted) << name;
    EXPECT_GT(a.graph.n(), 0u) << name;
  }
}

TEST(ScenarioRegistry, SeedChangesRandomFamilies) {
  for (const auto* name : {"erdos_renyi", "planted_near_clique", "web"}) {
    const Instance a = make_scenario(name, {}, 1);
    const Instance b = make_scenario(name, {}, 2);
    EXPECT_NE(a.graph.edge_list(), b.graph.edge_list()) << name;
  }
}

TEST(ScenarioRegistry, OverridesAreHonoredForEveryFamily) {
  // n = 150 is legal for every registered family's other defaults.
  const auto& registry = ScenarioRegistry::global();
  for (const auto& name : registry.names()) {
    if (is_file_backed(name)) continue;  // no 'n': the file sets the size
    const Instance inst =
        registry.make({name, ScenarioParams().with("n", 150), 3});
    EXPECT_EQ(inst.graph.n(), 150u) << name;
  }
}

TEST(ScenarioRegistry, UnknownFamilyFailsWithCatalogue) {
  try {
    (void)make_scenario("no_such_family", {}, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown scenario family"), std::string::npos) << msg;
    EXPECT_NE(msg.find("erdos_renyi"), std::string::npos)
        << "message should list the known families: " << msg;
  }
}

TEST(ScenarioRegistry, UnknownParameterFailsNamingTheKey) {
  try {
    (void)make_scenario("erdos_renyi",
                        ScenarioParams().with("clique_size", 10), 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("clique_size"), std::string::npos) << msg;
    EXPECT_NE(msg.find("has no parameter"), std::string::npos) << msg;
  }
}

TEST(ScenarioRegistry, MakersValidateParameterRanges) {
  // clique_size > n must be rejected, not asserted or silently clamped.
  EXPECT_THROW((void)make_scenario("planted_near_clique",
                                   ScenarioParams().with("n", 50).with(
                                       "clique_size", 80),
                                   1),
               std::invalid_argument);
  EXPECT_THROW((void)make_scenario("erdos_renyi",
                                   ScenarioParams().with("n", 0), 1),
               std::invalid_argument);
  EXPECT_THROW((void)make_scenario("planted_partition",
                                   ScenarioParams().with("k", 0), 1),
               std::invalid_argument);
  // Negative sizes must not wrap through the NodeId cast.
  EXPECT_THROW((void)make_scenario("planted_near_clique",
                                   ScenarioParams().with("clique_size", -1),
                                   1),
               std::invalid_argument);
  // delta outside [0, 1] would make the derived clique larger than n.
  EXPECT_THROW((void)make_scenario("theorem",
                                   ScenarioParams().with("delta", 1.5), 1),
               std::invalid_argument);
  EXPECT_THROW((void)make_scenario("counterexample",
                                   ScenarioParams().with("delta", -0.5), 1),
               std::invalid_argument);
}

TEST(ScenarioRegistry, ProbabilitiesOutsideTheUnitIntervalAreRejected) {
  // Every declared probability key of every family: a merged value below
  // 0, above 1 or NaN is rejected before the maker runs, naming the family
  // and the key; 0 and 1 themselves are legal.
  const auto& registry = ScenarioRegistry::global();
  std::size_t keys = 0;
  for (const auto& name : registry.names()) {
    for (const auto& key : registry.family(name).probabilities) {
      SCOPED_TRACE(name + "." + key);
      ++keys;
      for (const double bad :
           {-1.0, 1.5, 2.0, std::numeric_limits<double>::quiet_NaN()}) {
        try {
          (void)registry.make(
              {name, ScenarioParams().with("n", 100).with(key, bad), 1});
          ADD_FAILURE() << "accepted " << bad;
        } catch (const std::invalid_argument& e) {
          const std::string msg = e.what();
          EXPECT_NE(msg.find("'" + name + "'"), std::string::npos) << msg;
          EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
          EXPECT_NE(msg.find("[0, 1]"), std::string::npos) << msg;
        }
      }
      for (const double edge : {0.0, 1.0}) {
        EXPECT_NO_THROW((void)registry.make(
            {name, ScenarioParams().with("n", 100).with(key, edge), 1}))
            << edge;
      }
    }
  }
  // erdos_renyi p; planted_near_clique eps_missing, background_p, halo_p;
  // theorem background_p, halo_p; planted_partition p_in, p_out;
  // power_law_web eps_missing; sublinear_clique and blog_snapshot
  // background_p.
  EXPECT_EQ(keys, 11u);
}

TEST(ScenarioRegistry, ParseSpecRoundTrip) {
  const auto spec =
      parse_scenario_spec("erdos_renyi", "n=500,p=0.25", /*seed=*/9);
  EXPECT_EQ(spec.family, "erdos_renyi");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.params.get_int("n"), 500);
  EXPECT_DOUBLE_EQ(spec.params.get_double("p"), 0.25);
  const Instance inst = ScenarioRegistry::global().make(spec);
  EXPECT_EQ(inst.graph.n(), 500u);

  const auto flags = parse_scenario_spec("barbell", "delete_a_edges=true", 1);
  EXPECT_TRUE(flags.params.get_bool("delete_a_edges"));
}

TEST(ScenarioRegistry, ParseSpecRejectsMalformedInput) {
  EXPECT_THROW(parse_scenario_spec("erdos_renyi", "n", 1),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_spec("erdos_renyi", "=5", 1),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_spec("erdos_renyi", "p=abc", 1),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_spec("erdos_renyi", "p=0.5x", 1),
               std::invalid_argument);
}

TEST(ScenarioRegistry, DescribeFamiliesMentionsEveryName) {
  const auto text = describe_families(ScenarioRegistry::global());
  for (const auto& name : ScenarioRegistry::global().names()) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace nc
