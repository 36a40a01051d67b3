#include <cassert>

#include "core/protocol.hpp"

// Exploration stage, Step 1: build a rooted spanning tree for each connected
// component of G[S], rooted at the minimum-ID member.
//
// Implementation: every S-member starts a flood carrying (candidate root,
// distance). A node adopts a flood only if its root is strictly smaller
// than every root the node already holds (its own ID included), forwards
// it, and takes the neighbour of the first such offer it processes as its
// tree parent; a later offer of the same root is acknowledged and dropped,
// even at a smaller distance. A node's final parent therefore adopted the
// minimum-ID root before the node did, so the parent pointers form a
// spanning tree of each G[S_i] rooted at its minimum-ID member — the
// rooted tree the gather, K-sum, T-sum and vote convergecasts rely on.
// It is a BFS tree only when every link delivers in one round: then the
// minimum-ID root's flood advances one hop per round and first reaches
// each node along a shortest path; under link delay a longer path may
// arrive first. Termination is detected per candidate with
// Dijkstra-Scholten deficit counting: every flood message is acknowledged,
// acks carry a flag "somewhere in your flood's range a smaller root is
// known", and deferred acks release only when a node's own forwards are
// all acknowledged. A candidate whose deficit reaches zero with no flag
// raised is the unique minimum-ID root of its component and locally knows
// its tree is complete: any other candidate's flood stays inside its
// component, so it reaches the minimum-ID member or a node that adopted a
// smaller root, and that node's ack raises the flag; no ack to the
// minimum-ID root ever does.

namespace nc {

void DistNearCliqueNode::run_election(NodeApi& api, VersionState& vs) {
  if (!vs.in_s) return;
  Exploration& ex = *vs.ex;

  // Kick off our own candidacy.
  if (!ex.flood_sent) {
    ex.flood_sent = true;
    for (const std::size_t ni : vs.s_nbr) {
      auto ch = open_counted_one(api, key(kFlood, api.id(), vs.w), ni);
      ch.put(0, idw());  // our distance from ourselves
      ch.close();
    }
    ex.own_deficit = static_cast<std::uint32_t>(vs.s_nbr.size());
    if (ex.own_deficit == 0 && !ex.election_done) {
      ex.election_done = true;
      become_root(api, vs);  // singleton component
    }
  }

  // Incoming floods.
  if (fresh(vs, kFlood))
  api.for_each_in(kFlood, [&](std::size_t ni, const StreamKey& k,
                              InStream& in) {
    if (k.version != vs.w) return;
    while (in.available() > 0) {
      const auto dist = static_cast<std::uint32_t>(in.pop());
      handle_flood(api, vs, ni, k.tag, dist);
    }
  });

  // Incoming acks.
  if (fresh(vs, kFloodAck))
  api.for_each_in(kFloodAck, [&](std::size_t ni, const StreamKey& k,
                                 InStream& in) {
    (void)ni;
    if (k.version != vs.w) return;
    while (in.available() > 0) {
      const bool flag = in.pop() != 0;
      const NodeId cand = k.tag;
      if (cand == api.id()) {
        assert(ex.own_deficit > 0);
        --ex.own_deficit;
        ex.own_flag = ex.own_flag || flag;
        if (ex.own_deficit == 0 && !ex.election_done) {
          ex.election_done = true;
          if (!ex.own_flag) become_root(api, vs);
          // Otherwise we lost; we continue as an ordinary member.
        }
      } else {
        auto it = ex.floods.find(cand);
        assert(it != ex.floods.end());
        FloodState& fs = it->second;
        assert(fs.deficit > 0);
        --fs.deficit;
        fs.flag = fs.flag || flag;
        if (fs.deficit == 0 && !fs.acked) {
          fs.acked = true;
          send_ack(api, vs, fs.ds_parent_ni, cand,
                   fs.flag || ex.best_root < cand);
        }
      }
    }
  });
}

void DistNearCliqueNode::handle_flood(NodeApi& api, VersionState& vs,
                                      std::size_t ni, NodeId cand,
                                      std::uint32_t dist) {
  Exploration& ex = *vs.ex;
  if (cand == api.id()) {
    // Our own flood looped back through a cycle.
    send_ack(api, vs, ni, cand, ex.best_root < cand);
    return;
  }
  if (cand < ex.best_root) {
    // Adopt and forward: this engages us in cand's diffusing computation.
    ex.best_root = cand;
    ex.best_parent_ni = ni;
    FloodState fs;
    fs.ds_parent_ni = ni;
    fs.deficit = 0;
    for (const std::size_t other : vs.s_nbr) {
      if (other == ni) continue;
      auto ch = open_counted_one(api, key(kFlood, cand, vs.w), other);
      ch.put(dist + 1, idw());
      ch.close();
      ++fs.deficit;
    }
    if (fs.deficit == 0) {
      fs.acked = true;
      ex.floods.emplace(cand, fs);
      send_ack(api, vs, ni, cand, ex.best_root < cand);
    } else {
      ex.floods.emplace(cand, fs);
    }
  } else {
    // Not adopted (or a duplicate of an already-adopted flood): acknowledge
    // immediately, reporting whether we know a smaller root.
    send_ack(api, vs, ni, cand, ex.best_root < cand);
  }
}

void DistNearCliqueNode::send_ack(NodeApi& api, VersionState& vs,
                                  std::size_t ni, NodeId cand, bool flag) {
  auto ch = open_counted_one(api, key(kFloodAck, cand, vs.w), ni);
  ch.put_bit(flag);
  ch.close();
}

void DistNearCliqueNode::become_root(NodeApi& api, VersionState& vs) {
  Exploration& ex = *vs.ex;
  ex.i_am_root = true;
  ex.best_root = api.id();
  ex.best_parent_ni = SIZE_MAX;
  ex.tree_final_seen = true;
  // Announce tree completion over the S-edges; members forward the wave.
  for (const std::size_t ni : vs.s_nbr) {
    auto ch = open_counted_one(api, key(kTreeFinal, api.id(), vs.w), ni);
    ch.close();
  }
  // The root participates in the ParentOf exchange like everyone else
  // (its own bits are all zero).
  for (const std::size_t ni : vs.s_nbr) {
    auto ch = open_counted_one(api, key(kParentOf, api.id(), vs.w), ni);
    ch.put_bit(false);
    ch.close();
  }
  ex.parentof_sent_ = true;
  if (vs.s_nbr.empty()) {
    ex.children_known = true;
    ex.comp = {api.id()};
    ex.comp_known = true;
  }
}

}  // namespace nc
