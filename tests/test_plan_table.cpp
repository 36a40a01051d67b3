// Coverage for the runtime-plan surface: the plan table, the forward rule
// that `nearclique run` and run_sweep share, and the
// count reader that rejects out-of-range integer parameters instead of
// casting them.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "expt/scenario.hpp"
#include "runtime/faults.hpp"
#include "runtime/reliability.hpp"
#include "runtime/telemetry.hpp"

namespace nc {
namespace {

TEST(PlanTable, RegistersEachPlanOnceInFlagOrder) {
  std::vector<std::string> names;
  for (const auto& plan : runtime_plans()) names.push_back(plan.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"faults", "reliability", "telemetry"}));
  EXPECT_EQ(&runtime_plans()[1].defaults(), &reliability_param_defaults());
  try {
    validate_plan_params("byzantine", {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("faults, reliability, telemetry"),
              std::string::npos)
        << e.what();
  }
  // The network-backed protocol declares every plan's complete key set.
  const auto& dnc = AlgorithmRegistry::global().algorithm("dist_near_clique");
  for (const auto& plan : runtime_plans()) {
    for (const auto& key : plan.defaults().keys()) {
      EXPECT_TRUE(dnc.defaults.has_number(key)) << plan.name << "." << key;
    }
  }
}

TEST(PlanTable, ForwardRuleLetsExplicitValuesWin) {
  const ParamSet bag = ParamSet().with("loss", 0.05).with("delay_max", 2);
  AlgoParams params = AlgoParams().with("loss", 0.2);
  EXPECT_TRUE(forward_params("dist_near_clique", bag, params));
  EXPECT_DOUBLE_EQ(params.get_double("loss"), 0.2);
  EXPECT_EQ(params.get_int("delay_max"), 2);
}

TEST(PlanTable, ForwardRuleSkipsNonDeclaringAlgorithms) {
  const ParamSet bag = ParamSet().with("rel_mode", 1).with("tel_stride", 4);
  AlgoParams params = AlgoParams().with("eps", 0.1);
  EXPECT_FALSE(forward_params("peeling", bag, params));
  EXPECT_EQ(params.keys(), (std::vector<std::string>{"eps"}));
  EXPECT_FALSE(forward_params("no_such_algorithm", bag, params));
}

TEST(PlanTable, UnknownPlanKeyFailsWithThatPlansKeyList) {
  for (const auto& plan : runtime_plans()) {
    SCOPED_TRACE(plan.name);
    try {
      validate_plan_params(plan.name, ParamSet().with("packet_loss", 0.1));
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("packet_loss"), std::string::npos) << msg;
      for (const auto& key : plan.defaults().keys()) {
        EXPECT_NE(msg.find(key), std::string::npos) << key << ": " << msg;
      }
    }
    EXPECT_NO_THROW(validate_plan_params(plan.name, {}));
  }
  // Out-of-range values fail through the plan's own validator.
  EXPECT_THROW(validate_plan_params("faults", ParamSet().with("loss", 1.5)),
               std::invalid_argument);
}

// One regression per hostile input: each must fail with an
// std::invalid_argument naming the key and the integer range, instead of
// casting the double (undefined behaviour) and running on whatever came out.
void expect_count_rejected(const std::function<void()>& parse,
                           const std::string& key) {
  try {
    parse();
    FAIL() << "expected std::invalid_argument for '" << key << "'";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("integer"), std::string::npos) << msg;
  }
}

TEST(CountParams, HugeFaultDelayIsRejected) {
  expect_count_rejected([] { (void)parse_fault_plan("delay_max=1e30"); },
                        "delay_max");
}

TEST(CountParams, FractionalFaultDelayIsRejected) {
  expect_count_rejected(
      [] { (void)parse_fault_plan("delay_min=0.5,delay_max=0.7"); },
      "delay_min");
}

TEST(CountParams, HugeRetransmitBudgetIsRejected) {
  expect_count_rejected(
      [] { (void)parse_reliability_plan("rel_mode=1,rel_max_retx=1e300"); },
      "rel_max_retx");
}

TEST(CountParams, HugeTelemetryStrideIsRejected) {
  expect_count_rejected([] { (void)parse_telemetry_plan("tel_stride=1e30"); },
                        "tel_stride");
}

Instance tiny_instance() {
  return make_scenario("theorem", ScenarioParams().with("n", 40), 3);
}

TEST(CountParams, NegativeMaxRoundsIsRejected) {
  const Instance inst = tiny_instance();
  expect_count_rejected(
      [&] {
        (void)run_algorithm(inst.graph, "dist_near_clique",
                            AlgoParams().with("max_rounds", -1), 3);
      },
      "max_rounds");
}

TEST(CountParams, NanMaxRoundsIsRejected) {
  const Instance inst = tiny_instance();
  expect_count_rejected(
      [&] {
        (void)run_algorithm(
            inst.graph, "dist_near_clique",
            AlgoParams().with("max_rounds",
                              std::numeric_limits<double>::quiet_NaN()),
            3);
      },
      "max_rounds");
}

TEST(CountParams, ExactCountsUpTo2Pow53AreRead) {
  const ParamSet p = ParamSet()
                         .with("a", 0)
                         .with("b", 9007199254740992.0)
                         .with("c", 9007199254740994.0);
  EXPECT_EQ(p.get_count("a"), 0u);
  EXPECT_EQ(p.get_count("b"), 9007199254740992ULL);
  EXPECT_EQ(p.get_count_or("unset", 7), 7u);
  EXPECT_THROW((void)p.get_count("c"), std::invalid_argument);
  EXPECT_THROW((void)p.get_count("unset"), std::invalid_argument);
}

}  // namespace
}  // namespace nc
