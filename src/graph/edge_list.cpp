#include "graph/edge_list.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"

namespace nc {

namespace {

[[noreturn]] void fail_at(const std::string& path, std::size_t line,
                          const std::string& why) {
  throw std::invalid_argument("edge list " + path + ":" +
                              std::to_string(line) + ": " + why);
}

bool is_comment(const std::string& line) {
  std::size_t i = 0;
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  if (i == line.size()) return true;  // blank
  if (line[i] == '#' || line[i] == '%') return true;
  return line.compare(i, 2, "//") == 0;
}

/// Parses the next node id of `text` from `pos` on (after skipping
/// separators) into `out`. Returns false when the line is exhausted, or
/// with `error` set when the id is not a number or exceeds kMaxEdgeListId.
bool next_id(const std::string& text, std::size_t& pos, std::uint64_t& out,
             std::string& error) {
  while (pos < text.size() &&
         (std::isspace(static_cast<unsigned char>(text[pos])) ||
          text[pos] == ',' || text[pos] == ';')) {
    ++pos;
  }
  if (pos >= text.size()) return false;
  const std::size_t start = pos;
  std::uint64_t value = 0;
  bool too_big = false;
  while (pos < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[pos]))) {
    // Past the cap the digits are only skipped, so value cannot overflow.
    if (!too_big) {
      value = value * 10 + static_cast<std::uint64_t>(text[pos] - '0');
      too_big = value > kMaxEdgeListId;
    }
    ++pos;
  }
  // The id must be digits ending at a separator (so "12x" is rejected,
  // "12,34" is fine).
  const bool at_separator =
      pos == text.size() ||
      std::isspace(static_cast<unsigned char>(text[pos])) ||
      text[pos] == ',' || text[pos] == ';';
  if (pos == start || !at_separator) {
    error = "expected a numeric node id in '" + text + "'";
    return false;
  }
  if (too_big) {
    error = "node id " + text.substr(start, pos - start) +
            " exceeds the largest supported id " +
            std::to_string(kMaxEdgeListId);
    return false;
  }
  out = value;
  return true;
}

}  // namespace

Graph load_edge_list(const std::string& path, bool one_indexed) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("edge list " + path + ": cannot open file");
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::uint64_t max_id = 0;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (is_comment(line)) continue;
    std::size_t pos = 0;
    std::string error;
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!next_id(line, pos, u, error) || !next_id(line, pos, v, error)) {
      fail_at(path, lineno,
              !error.empty() ? error
                             : "expected two node ids, got '" + line + "'");
    }
    if (one_indexed) {
      if (u == 0 || v == 0) {
        fail_at(path, lineno, "node id 0 in a one-indexed edge list");
      }
      --u;
      --v;
    }
    max_id = std::max({max_id, u, v});
    edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  if (edges.empty()) {
    throw std::invalid_argument("edge list " + path + ": contains no edges");
  }
  GraphBuilder b(static_cast<NodeId>(max_id + 1));
  b.reserve(edges.size());
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return std::move(b).build();
}

}  // namespace nc
