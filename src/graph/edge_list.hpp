#pragma once

#include <string>

#include "graph/graph.hpp"

namespace nc {

/// Loads an undirected graph from a textual edge list, one edge per line.
///
/// Accepted syntax per line: two node ids separated by whitespace, commas or
/// semicolons ("0 5", "0,5", "0;5", tabs included); anything after the
/// second id (edge weights, timestamps) is ignored. Blank lines and lines
/// starting with '#', '%' or "//" are comments. With `one_indexed` the file
/// counts nodes from 1 (the SNAP/Matrix-Market convention) and ids are
/// shifted down.
///
/// The node count is max id + 1; self-loops are dropped and duplicate edges
/// are deduplicated by the counting-sort CSR build (GraphBuilder), so real
/// exports can be fed in unsanitized. Throws std::invalid_argument with the
/// offending "<path>:<line>" on malformed input, unreadable files, empty
/// files and ids above kMaxEdgeListId (an error of its own, naming the id
/// and the limit).
Graph load_edge_list(const std::string& path, bool one_indexed = false);

/// Guard against typos producing multi-gigabyte allocations: the largest
/// node id load_edge_list accepts.
inline constexpr std::uint64_t kMaxEdgeListId = 100'000'000;

}  // namespace nc
