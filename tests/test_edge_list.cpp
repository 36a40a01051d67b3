// Coverage for the edge_list_file pipeline: real graphs enter through the
// same streaming CSR build and scenario registry as the generated families,
// and malformed input fails with errors that name the file and line.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "expt/scenario.hpp"
#include "graph/edge_list.hpp"

namespace nc {
namespace {

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(EdgeList, LoadsWhitespaceSeparatedPairs) {
  const auto path = write_temp("el_plain.txt",
                               "# a comment\n"
                               "0 1\n"
                               "1 2\n"
                               "\n"
                               "% another comment\n"
                               "2 3\n"
                               "3 0\n");
  const Graph g = load_edge_list(path);
  EXPECT_EQ(g.n(), 4u);
  EXPECT_EQ(g.m(), 4u);
  std::remove(path.c_str());
}

TEST(EdgeList, AcceptsCsvTabsWeightsDuplicatesAndSelfLoops) {
  const auto path = write_temp("el_mixed.csv",
                               "// exported with weights\n"
                               "0,1,0.5\n"
                               "1;2;7\n"
                               "2\t3\t1\n"
                               "1 0 9\n"   // duplicate (reversed)
                               "2 2\n");   // self-loop
  const Graph g = load_edge_list(path);
  EXPECT_EQ(g.n(), 4u);
  EXPECT_EQ(g.m(), 3u);  // dedup + self-loop drop via GraphBuilder
  std::remove(path.c_str());
}

TEST(EdgeList, OneIndexedShiftsDown) {
  const auto path = write_temp("el_one.txt", "1 2\n2 3\n");
  const Graph g = load_edge_list(path, /*one_indexed=*/true);
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.m(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));

  const auto bad = write_temp("el_one_bad.txt", "0 1\n");
  try {
    (void)load_edge_list(bad, /*one_indexed=*/true);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("one-indexed"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(EdgeList, MalformedInputNamesFileAndLine) {
  const auto path = write_temp("el_bad.txt",
                               "0 1\n"
                               "2 x\n");
  try {
    (void)load_edge_list(path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find(":2:"), std::string::npos)
        << "message should name line 2: " << msg;
  }
  std::remove(path.c_str());
}

TEST(EdgeList, MissingSecondIdEmptyFilesAndMissingFilesFail) {
  const auto lonely = write_temp("el_lonely.txt", "4\n");
  EXPECT_THROW((void)load_edge_list(lonely), std::invalid_argument);
  std::remove(lonely.c_str());

  const auto empty = write_temp("el_empty.txt", "# nothing\n");
  try {
    (void)load_edge_list(empty);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no edges"), std::string::npos)
        << e.what();
  }
  std::remove(empty.c_str());

  EXPECT_THROW((void)load_edge_list("/no/such/file.txt"),
               std::invalid_argument);
}

TEST(EdgeList, HugeIdsAreRejected) {
  const auto path = write_temp("el_huge.txt", "0 999999999999\n");
  EXPECT_THROW((void)load_edge_list(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(EdgeList, OutOfRangeIdsNameTheIdAndTheLimit) {
  // A well-formed id above kMaxEdgeListId is not "malformed": the error
  // names it, the limit and the line. Digits past the limit are skipped,
  // so an id of any length reads back whole.
  const std::string huge = "18446744073709551616000";  // > 2^64
  const auto path =
      write_temp("el_range.txt", "0 1\n0 4000000000\n" + huge + " 2\n");
  try {
    (void)load_edge_list(path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(":2: node id 4000000000 exceeds the largest "
                       "supported id " +
                       std::to_string(kMaxEdgeListId)),
              std::string::npos)
        << msg;
  }
  const auto later = write_temp("el_range2.txt", "0 1\n" + huge + " 2\n");
  try {
    (void)load_edge_list(later);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(":2: node id " + huge + " exceeds"), std::string::npos)
        << msg;
  }
  // An id with a junk suffix is malformed, whatever its value.
  const auto edge = write_temp(
      "el_range3.txt", "0 " + std::to_string(kMaxEdgeListId) + "x\n");
  try {
    (void)load_edge_list(edge);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("expected a numeric node id"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
  std::remove(later.c_str());
  std::remove(edge.c_str());
}

TEST(EdgeListScenario, ResolvesThroughTheRegistry) {
  const auto path = write_temp("el_scenario.txt", "0 1\n1 2\n2 0\n3 4\n");
  const Instance inst = make_scenario(
      "edge_list_file", ScenarioParams().with("path", path), /*seed=*/1);
  EXPECT_EQ(inst.graph.n(), 5u);
  EXPECT_EQ(inst.graph.m(), 4u);
  EXPECT_TRUE(inst.planted.empty());

  // The same file through the CLI-style spec parser: path stays a string.
  const auto spec = parse_scenario_spec("edge_list_file",
                                        "path=" + path + ",one_indexed=false",
                                        /*seed=*/2);
  EXPECT_EQ(spec.params.get_string("path"), path);
  const Instance via_spec = ScenarioRegistry::global().make(spec);
  EXPECT_EQ(via_spec.graph.n(), inst.graph.n());
  std::remove(path.c_str());
}

TEST(EdgeListScenario, MissingPathExplainsItself) {
  try {
    (void)make_scenario("edge_list_file", {}, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("path="), std::string::npos) << msg;
  }
  // A numeric value for the declared-string 'path' is a type error.
  EXPECT_THROW((void)make_scenario("edge_list_file",
                                   ScenarioParams().with("path", 3), 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace nc
