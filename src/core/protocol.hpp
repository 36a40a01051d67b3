#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "runtime/network.hpp"
#include "util/bitvec.hpp"
#include "util/ids.hpp"

namespace nc {

/// Wire message kinds of Algorithm DistNearClique. Every stream key is
/// (kind, tag, version) where tag is the component root ID (or 0 where no
/// component context exists yet).
enum MsgKind : std::uint16_t {
  kSampled = 1,      ///< round-1 bit per version: "I am in S"
  kFlood = 2,        ///< election flood; tag = candidate root, payload: dist
  kFloodAck = 3,     ///< DS ack; payload: 1 bit "a smaller root is known"
  kTreeFinal = 4,    ///< root's completion flood over S-edges (EOS only)
  kParentOf = 5,     ///< to an S-neighbour: 1 bit "you are my tree parent"
  kGatherIds = 6,    ///< convergecast of member IDs (exploration Step 2 up)
  kCompList = 7,     ///< member list broadcast down the tree (Step 2 down)
  kCompAnnounce = 8, ///< member -> non-S neighbour: member list (Step 3)
  kFringeReg = 9,    ///< non-S node -> member: 1 bit "you are my parent"
  kParticipate = 10, ///< to every neighbour: roots I participate in
  kKBitvec = 11,     ///< to every neighbour: K_{2eps^2} membership bits (4b)
  kKSum = 12,        ///< convergecast of |K_{2eps^2}(X)| partial sums (4c)
  kKCount = 13,      ///< broadcast of |K_{2eps^2}(X)| down tree+fringe (4d)
  kTSum = 14,        ///< convergecast of |T_eps(X)| partial sums (decision 1)
  kReport = 15,      ///< broadcast of (X*, |T_eps(X*)|) (decision 2)
  kVote = 16,        ///< ack(1)/abort(0), aggregated up the tree (decision 3)
  kVerdict = 17,     ///< survive bit broadcast down (decision 4)
};

// Every kind must fit the wire format's 5-bit kind field; the runtime's
// per-kind tables (the arrived-kinds mask, bits_by_kind, inbox buckets) are
// sized by kMaxMsgKinds and open_stream rejects anything beyond it.
static_assert(kVerdict < kMaxMsgKinds,
              "MsgKind range exceeds the runtime's per-kind tables");

/// Encodes the output label of a surviving candidate: the paper labels a
/// near-clique by its component's root ID; the boosting wrapper extends the
/// label with the version index so two surviving versions rooted at the same
/// node cannot alias.
[[nodiscard]] constexpr Label make_label(NodeId root,
                                         std::uint16_t version) noexcept {
  return (static_cast<Label>(root) << 10) | version;
}

/// Root ID of a label produced by make_label.
[[nodiscard]] constexpr NodeId label_root(Label label) noexcept {
  return static_cast<NodeId>(label >> 10);
}

/// Version index of a label produced by make_label.
[[nodiscard]] constexpr std::uint16_t label_version(Label label) noexcept {
  return static_cast<std::uint16_t>(label & 0x3ff);
}

/// Per-candidate-root state of the Dijkstra-Scholten election (one entry per
/// flood this node adopted; floods that were not adopted are acked
/// immediately and need no state).
struct FloodState {
  std::size_t ds_parent_ni = 0;  ///< neighbour the deferred ack goes to
  std::uint32_t deficit = 0;     ///< unacked forwards
  bool flag = false;             ///< subtree saw a root smaller than this one
  bool acked = false;            ///< deferred ack already sent
};

/// Diagnostic record a component root keeps about its candidate (exposed to
/// drivers and benches; not used by the protocol itself).
struct RootCandidate {
  NodeId root = kNoNode;
  std::uint16_t version = 0;
  std::uint32_t component_size = 0;  ///< |S_i|
  std::uint64_t x_star = 0;          ///< argmax subset mask
  std::uint32_t t_size = 0;          ///< |T_eps(X*)|
  bool live = false;                 ///< enumerated (2^s-1 <= max_subsets)
  bool survived = false;             ///< won the decision stage
};

/// Participation of this node in one component (root, version): everything
/// the exploration and decision stages track per pair.
struct PairState {
  NodeId root = kNoNode;
  std::uint16_t version = 0;
  bool is_member = false;
  std::vector<NodeId> members;  ///< sorted component member list
  std::uint32_t s = 0;          ///< members.size()
  bool live = true;             ///< subset enumeration within cap

  std::size_t parent_ni = SIZE_MAX;  ///< tree parent / fringe attachment
  std::vector<std::size_t> child_nis;  ///< members: tree + fringe children

  // --- exploration ---
  bool explore_started = false;
  std::uint64_t a_mask = 0;  ///< adjacency over members
  BitVec k_bits;             ///< own K_{2eps^2} membership per subset
  OutChannel ksum_out, kcount_out, tsum_out, report_out, verdict_out;
  bool ksum_opened = false, kcount_opened = false, tsum_opened = false;
  std::size_t ksum_next = 0;    ///< next coordinate to emit upward
  std::size_t tsum_next = 0;
  std::vector<std::uint32_t> counts;  ///< |K(X)| from the root (4d)
  std::size_t counts_filled = 0;
  std::vector<std::uint32_t> nbr_k_accum;  ///< 4f: sum of neighbour K bits
  std::vector<std::size_t> pn_consumed;    ///< per participant-neighbour
  std::vector<std::size_t> participant_nbrs;  ///< neighbour indices
  std::optional<std::vector<std::size_t>> sampled_4f;  ///< 5.3 estimate mode
  bool participant_nbrs_known = false;
  bool t_done = false;
  BitVec t_bits;

  // --- root-side decision ---
  std::vector<std::uint32_t> tcounts;  ///< root: |T(X)| per subset

  // --- decision ---
  bool report_done = false;
  std::size_t report_relay_next = 0;
  std::uint64_t x_star = 0;
  std::uint32_t t_size = 0;
  bool vote_sent = false;
  bool my_ack = false;
  std::size_t votes_in = 0;   ///< children votes received (members)
  bool all_children_ack = true;
  bool resolved = false;
  bool survived = false;
};

/// Per-version state of a node in S or adjacent to S: the election, tree,
/// gather, fringe, participation and pair state of Section 4's exploration
/// and decision stages. Any other node takes part in none of them — it
/// outputs bottom for the version once it has read its neighbours'
/// sampling bits — so it never allocates one (VersionState::ex).
struct Exploration {
  // --- election (S-members only) ---
  NodeId best_root = kNoNode;
  std::size_t best_parent_ni = SIZE_MAX;
  std::map<NodeId, FloodState> floods;  // nclint:allow(ordered-map) per-node election state, keyed by the few candidate roots a node sees
  std::uint32_t own_deficit = 0;  ///< as flood source
  bool own_flag = false;
  bool flood_sent = false;
  bool election_done = false;  ///< own flood's DS computation terminated
  bool i_am_root = false;

  // --- tree finalization ---
  bool tree_final_seen = false;
  bool parentof_sent_ = false;
  std::size_t parentof_in = 0;  ///< kParentOf bits received
  std::vector<std::size_t> tree_children;
  bool children_known = false;
  std::vector<std::size_t> fringe_children;

  // --- gather / component list (members) ---
  bool gather_opened = false;
  OutChannel gather_out;
  std::vector<NodeId> gathered;  ///< root: collected IDs
  bool complist_opened = false;
  OutChannel complist_out;
  std::vector<NodeId> comp;
  bool comp_known = false;

  // --- fringe registration (non-members) ---
  bool registered = false;

  // --- fringe children collection (members) ---
  std::size_t fringe_in = 0;  ///< kFringeReg bits received
  bool fringe_known = false;

  // --- participation exchange ---
  /// Roots each neighbour participates in, by neighbour index; sized to the
  /// degree when the first listed root arrives (most lists are empty).
  std::vector<std::vector<NodeId>> nbr_participation;
  bool participation_known = false;

  bool announce_opened = false;  ///< Step 3 announce sent, own pair made

  std::map<NodeId, PairState> pairs;  ///< by root  // nclint:allow(ordered-map) per-node pair state, bounded by participating roots
};

/// Per-version protocol state (Section 4.1 runs `versions` of these in
/// consecutive round windows). Every node keeps this core; the exploration
/// block is allocated only where Section 4 has work for it.
struct VersionState {
  std::uint16_t w = 1;  ///< 1-based version index
  bool started = false;
  bool frozen = false;   ///< window expired; no new exploration progress
  bool finalized = false;  ///< this node's candidate set for w is final
  bool in_s = false;     ///< this node's sampling coin
  bool s_known = false;  ///< every neighbour's sampling bit is read
  bool participate_sent = false;

  /// Kinds delivered since this version's handlers last checked for them:
  /// on_round ORs NodeApi::arrived_kinds() in before any handler runs, and
  /// fresh() tests and clears one kind's bit.
  std::uint32_t unseen = 0;

  std::vector<std::size_t> s_nbr;  ///< sampled neighbour indices

  /// Non-null iff s_known and the node is in S or has a sampled neighbour.
  std::unique_ptr<Exploration> ex;
};
static_assert(sizeof(VersionState) <= 48,
              "VersionState is the per-version core every node keeps; "
              "exploration state belongs in Exploration");

/// One processor running Algorithm DistNearClique (Section 4) under the
/// Section 4.1 wrappers (arXiv:0905.4147). The stages follow the paper's
/// steps, and each handler file opens with the steps it implements:
/// protocol_election.cpp, protocol_gather.cpp, protocol_explore.cpp and
/// protocol_decide.cpp.
class DistNearCliqueNode : public INode {
 public:
  /// Keeps pointers to `params` and `schedule`: they are one per run, not
  /// one per node. Both are owned by the caller and, like
  /// TelemetryPlan::sink, must outlive the Network that owns the node.
  explicit DistNearCliqueNode(const ProtocolParams& params,
                              const Schedule& schedule);

  void on_start(NodeApi& api) override;
  void on_round(NodeApi& api) override;

  /// Output register: the near-clique label, or kBottom.
  [[nodiscard]] Label label() const noexcept { return label_; }

  /// Root-side diagnostics for every component this node rooted.
  [[nodiscard]] const std::vector<RootCandidate>& root_candidates()
      const noexcept {
    return root_candidates_;
  }

  /// Local computation counter (membership tests + additions performed by
  /// the exploration stage); reported by experiment E12.
  [[nodiscard]] std::uint64_t local_ops() const noexcept { return local_ops_; }

  /// True once the output register is final.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// The sampling coin this node would flip for version `w` — exposed so
  /// the centralized oracle replays the identical randomness.
  static bool sampling_coin(const Rng& node_rng, std::uint16_t w, double p);

 private:
  friend struct ProtocolTestPeek;

  // stage handlers --------------------------------------------------------
  void start_version(NodeApi& api, VersionState& vs);
  void read_sampled_bits(NodeApi& api, VersionState& vs);
  void run_election(NodeApi& api, VersionState& vs);
  void handle_flood(NodeApi& api, VersionState& vs, std::size_t ni,
                    NodeId cand, std::uint32_t dist);
  void send_ack(NodeApi& api, VersionState& vs, std::size_t ni, NodeId cand,
                bool flag);
  void become_root(NodeApi& api, VersionState& vs);
  void run_tree_final(NodeApi& api, VersionState& vs);
  void run_gather(NodeApi& api, VersionState& vs);
  void run_fringe(NodeApi& api, VersionState& vs);
  void run_participation(NodeApi& api, VersionState& vs);
  void maybe_init_pair(NodeApi& api, VersionState& vs, PairState& ps);
  void run_explore(NodeApi& api, VersionState& vs, PairState& ps);
  void run_decision(NodeApi& api);
  void maybe_vote(NodeApi& api);
  void run_votes_and_verdicts(NodeApi& api);
  void freeze_version(NodeApi& api, VersionState& vs);
  void force_resolve(NodeApi& api);
  void maybe_finish(NodeApi& api);

  // helpers ----------------------------------------------------------------
  [[nodiscard]] StreamKey key(std::uint16_t kind, NodeId tag,
                              std::uint16_t w) const noexcept {
    return StreamKey{kind, tag, w};
  }
  [[nodiscard]] unsigned idw() const noexcept { return idw_; }
  [[nodiscard]] bool version_finalized_for_vote(const VersionState& vs) const;

  /// True iff messages of `kind` arrived since this version last asked;
  /// clears the kind's bit in vs.unseen. Handlers call it to skip inbox
  /// scans on quiet rounds, and a handler whose guard blocks it does not
  /// call it, so its scan re-fires once unblocked. The mask is per version
  /// so one version's scan never starves another's.
  static bool fresh(VersionState& vs, std::uint16_t kind);

  // telemetry probes (src/runtime/telemetry.hpp) ---------------------------
  // Every stream open goes through one of these wrappers, so the
  // dnc.stream_opens counter is exact. probe_add() returns immediately on
  // kNoProbe (telemetry off), so the wrappers cost one predictable branch.
  OutChannel open_counted(NodeApi& api, const StreamKey& k,
                          std::span<const std::size_t> nis) {
    api.probe_add(probe_opens_, 1);
    return api.open_stream(k, nis);
  }
  OutChannel open_counted_all(NodeApi& api, const StreamKey& k) {
    api.probe_add(probe_opens_, 1);
    return api.open_stream_all(k);
  }
  OutChannel open_counted_one(NodeApi& api, const StreamKey& k,
                              std::size_t ni) {
    api.probe_add(probe_opens_, 1);
    return api.open_stream_one(k, ni);
  }

  const ProtocolParams* params_;
  const Schedule* schedule_;
  std::vector<VersionState> versions_;
  std::vector<RootCandidate> root_candidates_;
  std::uint64_t local_ops_ = 0;
  Label label_ = kBottom;
  unsigned idw_ = 0;

  // Probe handles, registered in on_start (kNoProbe when telemetry is off).
  std::uint32_t probe_opens_ = NodeApi::kNoProbe;      ///< streams opened
  std::uint32_t probe_candidates_ = NodeApi::kNoProbe; ///< |S_i| per candidate
  std::uint32_t probe_pairs_ = NodeApi::kNoProbe;      ///< pairs initialized

  bool finished_ = false;
  bool voted_global_ = false;
};
static_assert(sizeof(DistNearCliqueNode) <= 112,
              "every node keeps one DistNearCliqueNode; per-run parameters "
              "belong to the caller, per-version state in VersionState");

}  // namespace nc
