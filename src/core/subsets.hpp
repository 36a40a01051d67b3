#pragma once

#include <cstdint>
#include <vector>

#include "util/ids.hpp"

namespace nc {

/// Subset-enumeration helpers for the exploration stage.
///
/// A component S_i with s = |S_i| members (sorted ascending) indexes its
/// non-empty subsets X by the bitmasks 1 .. 2^s - 1 over positions in the
/// sorted member list; "coordinate" j of every exploration vector refers to
/// the subset with mask j+1. The paper enumerates all subsets including the
/// empty one, but K(∅) = V cannot be counted by a convergecast over
/// Gamma(S_i) and the analysis (arXiv:0905.4147, Section 5) only needs the
/// non-empty X* = S(1) ∩ C, so ∅ is skipped.

/// Number of non-empty subsets of an s-element set: 2^s - 1.
/// Precondition: s <= 63.
[[nodiscard]] constexpr std::uint64_t subset_count(std::uint32_t s) noexcept {
  return (1ULL << s) - 1;
}

/// Position of node `v` in the sorted member list, or SIZE_MAX.
std::size_t member_position(const std::vector<NodeId>& sorted_members,
                            NodeId v);

/// Bitmask over the sorted member list marking which members are adjacent
/// to a node whose sorted neighbour list is given. Both inputs ascending.
/// Precondition: members.size() <= 63.
std::uint64_t adjacency_mask(const std::vector<NodeId>& sorted_members,
                             const std::vector<NodeId>& sorted_neighbors);

/// The members selected by subset mask `x` (bit j = sorted_members[j]).
std::vector<NodeId> subset_members(const std::vector<NodeId>& sorted_members,
                                   std::uint64_t x);

}  // namespace nc
