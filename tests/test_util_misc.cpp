#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/cli.hpp"
#include "util/paramset.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nc {
namespace {

// --------------------------------------------------------------- Stats ----

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, MeanVarianceMatchClosedForm) {
  RunningStat s;
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  for (const double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleObservation) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(Quantile, NearestRank) {
  std::vector<double> xs{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(WilsonInterval, BracketsPointEstimate) {
  const auto iv = wilson_interval(30, 100);
  EXPECT_LT(iv.lo, 0.3);
  EXPECT_GT(iv.hi, 0.3);
  EXPECT_GE(iv.lo, 0.0);
  EXPECT_LE(iv.hi, 1.0);
}

TEST(WilsonInterval, EdgeCases) {
  const auto zero = wilson_interval(0, 50);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  const auto all = wilson_interval(50, 50);
  EXPECT_LT(all.lo, 1.0);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  const auto empty = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(empty.lo, 0.0);
  EXPECT_DOUBLE_EQ(empty.hi, 1.0);
}

TEST(WilsonInterval, ShrinksWithSamples) {
  const auto small = wilson_interval(5, 10);
  const auto large = wilson_interval(500, 1000);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

TEST(LeastSquares, RecoversSlope) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 1.0);
  }
  EXPECT_NEAR(least_squares_slope(x, y), 3.0, 1e-9);
}

TEST(LeastSquares, DegenerateInputs) {
  EXPECT_EQ(least_squares_slope({}, {}), 0.0);
  EXPECT_EQ(least_squares_slope({1.0}, {2.0}), 0.0);
  EXPECT_EQ(least_squares_slope({2.0, 2.0}, {1.0, 5.0}), 0.0);  // vertical
}

// --------------------------------------------------------------- Table ----

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| 1 |"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(static_cast<std::uint64_t>(42)), "42");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(-7)), "-7");
}

TEST(Table, StreamsViaOperator) {
  Table t({"h"});
  t.add_row({"v"});
  std::ostringstream os;
  os << t;
  EXPECT_EQ(os.str(), t.str());
}

// ----------------------------------------------------------------- CLI ----

TEST(Args, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=100", "--verbose", "positional",
                        "--eps=0.25"};
  Args args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 0.25);
  EXPECT_FALSE(args.has("positional"));
}

TEST(Args, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get("missing", "d"), "d");
  EXPECT_EQ(args.get_int("missing", -3), -3);
  EXPECT_FALSE(args.get_bool("missing"));
  EXPECT_TRUE(args.get_bool("missing", true));
}

TEST(Args, BooleanFalseSpellings) {
  const char* argv[] = {"prog", "--a=0", "--b=false", "--c=true"};
  Args args(4, argv);
  EXPECT_FALSE(args.get_bool("a"));
  EXPECT_FALSE(args.get_bool("b"));
  EXPECT_TRUE(args.get_bool("c"));
}

/// The message of the std::invalid_argument `fn` throws ("" if none).
template <typename Fn>
std::string invalid_argument_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Args, IntegersMustParseWhole) {
  const char* argv[] = {"prog",          "--seed=abc", "--trials=2x",
                        "--threads=2.9", "--big=1e99", "--empty=",
                        "--huge=99999999999999999999", "--neg=-1",
                        "--plain=42"};
  Args args(9, argv);
  for (const char* key :
       {"seed", "trials", "threads", "big", "huge", "empty"}) {
    const std::string msg =
        invalid_argument_of([&] { (void)args.get_int(key, 0); });
    EXPECT_NE(msg.find(std::string("--") + key), std::string::npos)
        << key << ": '" << msg << "'";
  }
  EXPECT_EQ(args.get_int("neg", 0), -1);
  EXPECT_EQ(args.get_int("plain", 0), 42);
}

TEST(Args, NumbersMustParseWholeAndBeFinite) {
  const char* argv[] = {"prog",        "--a=0.2x", "--b=abc",  "--c=1e999",
                        "--d=nan",     "--e=",     "--f=1e-3", "--g=-0.5"};
  Args args(8, argv);
  for (const char* key : {"a", "b", "c", "d", "e"}) {
    const std::string msg =
        invalid_argument_of([&] { (void)args.get_double(key, 0.0); });
    EXPECT_NE(msg.find(std::string("--") + key), std::string::npos)
        << key << ": '" << msg << "'";
  }
  EXPECT_DOUBLE_EQ(args.get_double("f", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(args.get_double("g", 0.0), -0.5);
}

TEST(Args, RejectUnknownNamesFlagCommandAndFlagSet) {
  const char* argv[] = {"prog", "--threads=4", "--json", "positional"};
  const Args args(4, argv);
  // Declared flags pass whether given or not; positionals are not flags.
  EXPECT_NO_THROW(args.reject_unknown("run", {"threads", "json", "seed"}));
  const std::string msg = invalid_argument_of(
      [&] { args.reject_unknown("sweep", {"json", "trials", "seed"}); });
  EXPECT_NE(msg.find("unknown flag '--threads' for 'sweep'"),
            std::string::npos)
      << msg;
  for (const char* flag : {"--json", "--trials", "--seed"}) {
    EXPECT_NE(msg.find(flag), std::string::npos) << flag << ": " << msg;
  }
  // A typo of a declared flag is unknown too; a bare flag counts.
  const char* typo_argv[] = {"prog", "--thread=4"};
  const Args typo(2, typo_argv);
  EXPECT_NE(invalid_argument_of([&] {
              typo.reject_unknown("run", {"threads"});
            }).find("'--thread'"),
            std::string::npos);
  const char* bare_argv[] = {"prog", "--verbose"};
  EXPECT_FALSE(invalid_argument_of([&] {
                 Args(2, bare_argv).reject_unknown("run", {"threads"});
               }).empty());
  // A command that declares no flags says so.
  EXPECT_NE(invalid_argument_of([&] {
              Args(2, bare_argv).reject_unknown("list-scenarios", {});
            }).find("'--verbose' for 'list-scenarios'; it takes no flags"),
            std::string::npos);
}


TEST(ParamSet, DescribeParamsPrintsCountsWholeAndFractionsExactly) {
  // Catalogues and sweep tables print params through describe_params: a
  // count reads as an integer (n=1000000, not n=1e+06), and any other
  // value in a form that parses back to the same double.
  const ParamSet params = ParamSet()
                              .with("n", 1e6)
                              .with("max_rounds", 3.2e7)
                              .with("eps", 0.2)
                              .with("p", 1e-5);
  const std::string text = describe_params(params) + " ";
  EXPECT_NE(text.find(" n=1000000 "), std::string::npos) << text;
  EXPECT_NE(text.find(" max_rounds=32000000 "), std::string::npos) << text;
  EXPECT_NE(text.find(" eps=0.2 "), std::string::npos) << text;
  EXPECT_EQ(text.find("e+"), std::string::npos) << text;
  for (const auto& [key, want] : params.values()) {
    const std::size_t at = text.find(" " + key + "=") + key.size() + 2;
    const std::string shown = text.substr(at, text.find(' ', at) - at);
    EXPECT_EQ(std::stod(shown), want) << key << "=" << shown;
  }
}

}  // namespace
}  // namespace nc
