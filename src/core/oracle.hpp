#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "graph/graph.hpp"

namespace nc {

/// Centralized re-implementation of Algorithm DistNearClique used as a
/// differential-testing reference: it replays the exact per-node sampling
/// coins of the distributed run (same seed derivation), computes the same
/// components, K/T sets with bit-identical integer thresholds, the same
/// argmax/tie-breaking, the same voting, and must therefore produce the
/// same labels whenever the distributed execution completes without hitting
/// a version window or the decision deadline (generous budgets for the
/// Section 4.1 wrappers, arXiv:0905.4147). It is also the reference for
/// Lemma 5.3 / 5.6 measurements, since it can expose every candidate
/// T_eps(X), not just the winner.
struct OracleResult {
  std::vector<Label> labels;                ///< per node, kBottom if none
  std::vector<RootCandidate> candidates;    ///< every live component
  std::vector<std::vector<NodeId>> t_sets;  ///< T_eps(X*) per candidate
};

/// The sample S a node with the given network seed draws for version `w`
/// (replicates Network's per-node RNG derivation and the protocol's coin).
std::vector<NodeId> oracle_sample(const Graph& g, double p,
                                  std::uint64_t seed, std::uint16_t w);

/// Runs the centralized reference on `g` with the protocol parameters and
/// the network seed (versions handled exactly like the boosting wrapper).
OracleResult run_oracle(const Graph& g, const ProtocolParams& proto,
                        std::uint64_t seed);

/// Exposes T_eps(X) for an explicit sample component and subset, computed
/// with the protocol's integer thresholds (tests pin Lemma 5.3 with this).
std::vector<NodeId> oracle_t_set(const Graph& g, double eps,
                                 const std::vector<NodeId>& members,
                                 std::uint64_t x_mask);

}  // namespace nc
