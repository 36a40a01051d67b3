#include <cassert>
#include <tuple>

#include "core/protocol.hpp"

// Decision stage, Steps 3-4: once every version's candidate set is final,
// each participant acknowledges exactly the candidate reporting the largest
// |T_eps(X(S_i))| (ties: largest root ID, then largest version) and aborts
// all others. Votes are AND-aggregated up each component's tree (members
// wait for all tree and fringe children); the root declares the verdict and
// broadcasts it down; nodes in T_eps(X(S_i)) of a surviving candidate output
// its label, everyone else outputs bottom.
//
// Liveness note: a candidate is reported only if its whole exploration
// completed, which implies every participant has complete structures and
// will eventually vote; unreported pairs can therefore only stall and are
// force-resolved at the decision deadline (the deterministic time bound of
// Section 4.1, arXiv:0905.4147).

namespace nc {

void DistNearCliqueNode::run_decision(NodeApi& api) {
  maybe_vote(api);
  run_votes_and_verdicts(api);
}

void DistNearCliqueNode::maybe_vote(NodeApi& api) {
  (void)api;
  if (voted_global_) return;
  for (auto& vs : versions_) {
    if (!vs.started) return;  // a future version window has not opened yet
    if (!version_finalized_for_vote(vs)) return;
    vs.finalized = true;
  }
  // Candidate set is final across all versions; pick the winner.
  bool have_winner = false;
  std::tuple<std::uint32_t, NodeId, std::uint16_t> best{0, 0, 0};
  for (const auto& vs : versions_) {
    if (!vs.ex) continue;
    for (const auto& [root, ps] : vs.ex->pairs) {
      if (!ps.live || !ps.report_done) continue;
      if (ps.t_size < params_->min_report_size) continue;
      const std::tuple<std::uint32_t, NodeId, std::uint16_t> cand{
          ps.t_size, root, vs.w};
      if (!have_winner || cand > best) {
        best = cand;
        have_winner = true;
      }
    }
  }
  for (auto& vs : versions_) {
    if (!vs.ex) continue;
    for (auto& [root, ps] : vs.ex->pairs) {
      ps.my_ack = have_winner && ps.live && ps.report_done &&
                  root == std::get<1>(best) && vs.w == std::get<2>(best);
    }
  }
  voted_global_ = true;
}

void DistNearCliqueNode::run_votes_and_verdicts(NodeApi& api) {
  for (auto& vs : versions_) {
    if (!vs.ex) continue;
    Exploration& ex = *vs.ex;
    for (auto& [root, ps] : ex.pairs) {
      (void)root;
      if (ps.resolved) continue;
      const bool is_root = ps.is_member && ps.parent_ni == SIZE_MAX;

      // Collect children votes (members only; fringe have no children).
      if (ps.is_member) {
        for (const std::size_t ni : ps.child_nis) {
          InStream* in = api.find_in(ni, key(kVote, ps.root, ps.version));
          if (in == nullptr) continue;
          while (in->available() > 0) {
            ++ps.votes_in;
            if (in->pop() == 0) ps.all_children_ack = false;
          }
        }
      }

      // Emit our (aggregated) vote / the verdict.
      if (voted_global_ && !ps.vote_sent) {
        if (!ps.is_member) {
          ps.vote_sent = true;
          auto ch = open_counted_one(api, key(kVote, ps.root, ps.version),
                                        ps.parent_ni);
          ch.put_bit(ps.my_ack);
          ch.close();
        } else if (ex.children_known && ex.fringe_known &&
                   ps.votes_in == ps.child_nis.size()) {
          ps.vote_sent = true;
          const bool agg = ps.my_ack && ps.all_children_ack;
          if (is_root) {
            ps.survived = agg;
            ps.resolved = true;
            for (auto& rc : root_candidates_) {
              if (rc.root == ps.root && rc.version == ps.version) {
                rc.survived = agg;
              }
            }
            if (!ps.child_nis.empty()) {
              ps.verdict_out = open_counted(api, 
                  key(kVerdict, ps.root, ps.version), ps.child_nis);
              ps.verdict_out.put_bit(agg);
              ps.verdict_out.close();
            }
            if (agg && ps.t_done && ps.t_bits.test(ps.x_star - 1)) {
              label_ = make_label(ps.root, ps.version);
            }
          } else {
            auto ch = open_counted_one(api, key(kVote, ps.root, ps.version),
                                          ps.parent_ni);
            ch.put_bit(agg);
            ch.close();
          }
        }
      }

      // Receive + relay the verdict.
      if (!is_root && !ps.resolved) {
        InStream* in =
            api.find_in(ps.parent_ni, key(kVerdict, ps.root, ps.version));
        if (in != nullptr && in->available() > 0) {
          const bool survive = in->pop() != 0;
          ps.survived = survive;
          ps.resolved = true;
          if (ps.is_member && !ps.child_nis.empty()) {
            ps.verdict_out = open_counted(api, key(kVerdict, ps.root, ps.version),
                                             ps.child_nis);
            ps.verdict_out.put_bit(survive);
            ps.verdict_out.close();
          }
          if (survive && ps.t_done && ps.x_star >= 1 &&
              ps.t_bits.test(ps.x_star - 1)) {
            label_ = make_label(ps.root, ps.version);
          }
        }
      }
    }
  }
}

}  // namespace nc
