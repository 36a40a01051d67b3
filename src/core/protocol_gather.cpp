#include <algorithm>
#include <cassert>

#include "core/protocol.hpp"
#include "core/subsets.hpp"

// Exploration stage, Steps 2-3: the root gathers all member IDs over the
// tree and broadcasts the component list back down (Step 2); members then
// announce the list to their non-sampled neighbours, which pick one parent
// per adjacent component and register (Step 3). Every node also announces
// which components it participates in, so Step 4f consumers know exactly
// which neighbours will send K-membership vectors.

namespace nc {

namespace {
/// Creates this node's PairState for component `root` (called once the
/// member list is final). `cap` is ProtocolParams::max_subsets.
PairState make_pair(NodeId root, std::uint16_t w, bool is_member,
                    std::vector<NodeId> members, std::size_t parent_ni,
                    std::uint32_t cap) {
  PairState ps;
  ps.root = root;
  ps.version = w;
  ps.is_member = is_member;
  ps.members = std::move(members);
  ps.s = static_cast<std::uint32_t>(ps.members.size());
  ps.live = ps.s <= 63 && subset_count(ps.s) <= cap;
  ps.parent_ni = parent_ni;
  if (!ps.live) {
    // Abstaining component: no exploration, no candidate, nothing to vote
    // about. Everyone adjacent to it knows |S_i| and reaches the same
    // conclusion, so the pair resolves immediately and consistently.
    ps.resolved = true;
  }
  return ps;
}
}  // namespace

void DistNearCliqueNode::run_tree_final(NodeApi& api, VersionState& vs) {
  if (!vs.in_s) return;
  Exploration& ex = *vs.ex;
  // Detect the root's completion wave. Note this may arrive while our own
  // (losing) candidacy's diffusing computation is still draining — the wave
  // only certifies that the minimum root's flood has quiesced, which fixes
  // everyone's best_root/parent.
  if (!ex.i_am_root && !ex.tree_final_seen && fresh(vs, kTreeFinal)) {
    api.for_each_in(kTreeFinal, [&](std::size_t ni, const StreamKey& k,
                                    InStream& in) {
      if (k.version != vs.w || !in.closed() || ex.tree_final_seen) return;
      ex.tree_final_seen = true;
      assert(k.tag == ex.best_root);
      // Forward the wave over the remaining S-edges.
      for (const std::size_t other : vs.s_nbr) {
        if (other == ni) continue;
        auto ch = open_counted_one(api, key(kTreeFinal, k.tag, vs.w), other);
        ch.close();
      }
    });
  }
  if (ex.tree_final_seen && !ex.parentof_sent_) {
    ex.parentof_sent_ = true;
    for (const std::size_t ni : vs.s_nbr) {
      auto ch = open_counted_one(api, key(kParentOf, ex.best_root, vs.w), ni);
      ch.put_bit(ni == ex.best_parent_ni);
      ch.close();
    }
  }
  if (!ex.parentof_sent_ || ex.children_known) return;

  // Collect ParentOf bits from every S-neighbour.
  if (fresh(vs, kParentOf))
  api.for_each_in(kParentOf, [&](std::size_t ni, const StreamKey& k,
                                 InStream& in) {
    if (k.version != vs.w) return;
    while (in.available() > 0) {
      ++ex.parentof_in;
      if (in.pop() != 0) ex.tree_children.push_back(ni);
    }
  });
  if (ex.parentof_in == vs.s_nbr.size()) {
    std::sort(ex.tree_children.begin(), ex.tree_children.end());
    ex.children_known = true;
  }
}

void DistNearCliqueNode::run_gather(NodeApi& api, VersionState& vs) {
  if (!vs.in_s) return;
  Exploration& ex = *vs.ex;
  if (!ex.children_known) return;
  const NodeId root = ex.best_root;

  // --- Step 2 up: member IDs to the root (pipelined relay). ---
  if (!ex.i_am_root) {
    if (!ex.gather_opened) {
      ex.gather_opened = true;
      ex.gather_out = open_counted_one(api, key(kGatherIds, root, vs.w),
                                          ex.best_parent_ni);
      ex.gather_out.put(api.id(), idw());
    }
    if (!ex.gather_out.closed()) {
      bool all_finished = true;
      for (const std::size_t ni : ex.tree_children) {
        InStream* in = api.find_in(ni, key(kGatherIds, root, vs.w));
        if (in == nullptr) {
          all_finished = false;
          continue;
        }
        while (in->available() > 0) ex.gather_out.put(in->pop(), idw());
        if (!in->finished()) all_finished = false;
      }
      if (all_finished) ex.gather_out.close();
    }
  } else if (!ex.comp_known) {
    bool all_finished = true;
    for (const std::size_t ni : ex.tree_children) {
      InStream* in = api.find_in(ni, key(kGatherIds, root, vs.w));
      if (in == nullptr) {
        all_finished = false;
        continue;
      }
      while (in->available() > 0) {
        ex.gathered.push_back(static_cast<NodeId>(in->pop()));
      }
      if (!in->finished()) all_finished = false;
    }
    if (all_finished) {
      ex.comp = ex.gathered;
      ex.comp.push_back(api.id());
      std::sort(ex.comp.begin(), ex.comp.end());
      ex.comp_known = true;
      // --- Step 2 down: broadcast the sorted list over the tree. ---
      if (!ex.tree_children.empty()) {
        ex.complist_opened = true;
        ex.complist_out =
            open_counted(api, key(kCompList, root, vs.w), ex.tree_children);
        for (const NodeId v : ex.comp) ex.complist_out.put(v, idw());
        ex.complist_out.close();
      }
    }
  }

  // --- Step 2 down, member side: receive + relay the component list. ---
  if (!ex.i_am_root && !ex.comp_known && ex.gather_opened) {
    InStream* in = api.find_in(ex.best_parent_ni, key(kCompList, root, vs.w));
    if (in != nullptr) {
      if (!ex.complist_opened && !ex.tree_children.empty()) {
        ex.complist_opened = true;
        ex.complist_out =
            open_counted(api, key(kCompList, root, vs.w), ex.tree_children);
      }
      while (in->available() > 0) {
        const auto id = static_cast<NodeId>(in->pop());
        ex.comp.push_back(id);
        if (ex.complist_opened) ex.complist_out.put(id, idw());
      }
      if (in->finished()) {
        if (ex.complist_opened) ex.complist_out.close();
        ex.comp_known = true;
      }
    }
  }

  // --- Step 3: announce the component to non-sampled neighbours and create
  // our own PairState. ---
  if (ex.comp_known && !ex.announce_opened) {
    ex.announce_opened = true;
    std::vector<std::size_t> fringe_nbrs;
    for (std::size_t ni = 0; ni < api.degree(); ++ni) {
      if (!std::binary_search(vs.s_nbr.begin(), vs.s_nbr.end(), ni)) {
        fringe_nbrs.push_back(ni);
      }
    }
    if (!fringe_nbrs.empty()) {
      auto ch = open_counted(api, key(kCompAnnounce, root, vs.w), fringe_nbrs);
      for (const NodeId v : ex.comp) ch.put(v, idw());
      ch.close();
    }
    ex.pairs.emplace(root,
                     make_pair(root, vs.w, /*is_member=*/true, ex.comp,
                               ex.i_am_root ? SIZE_MAX : ex.best_parent_ni,
                               params_->max_subsets));
    if (ex.i_am_root) {
      RootCandidate rc;
      rc.root = root;
      rc.version = vs.w;
      rc.component_size = static_cast<std::uint32_t>(ex.comp.size());
      rc.live = ex.pairs.at(root).live;
      root_candidates_.push_back(rc);
      api.probe_add(probe_candidates_, rc.component_size);
    }
  }

  // --- Fringe registration bits from non-sampled neighbours. ---
  if (ex.comp_known && !ex.fringe_known) {
    if (fresh(vs, kFringeReg)) {
      api.for_each_in(kFringeReg, [&](std::size_t ni, const StreamKey& k,
                                      InStream& in) {
        if (k.version != vs.w || k.tag != root) return;
        while (in.available() > 0) {
          ++ex.fringe_in;
          if (in.pop() != 0) ex.fringe_children.push_back(ni);
        }
      });
    }
    const std::size_t fringe_count = api.degree() - vs.s_nbr.size();
    if (ex.fringe_in == fringe_count) {
      ex.fringe_known = true;
      auto& ps = ex.pairs.at(root);
      ps.child_nis = ex.tree_children;
      ps.child_nis.insert(ps.child_nis.end(), ex.fringe_children.begin(),
                          ex.fringe_children.end());
      std::sort(ps.child_nis.begin(), ps.child_nis.end());
    }
  }
}

void DistNearCliqueNode::run_fringe(NodeApi& api, VersionState& vs) {
  if (vs.in_s || vs.s_nbr.empty()) return;
  Exploration& ex = *vs.ex;
  if (ex.registered) return;
  if (!fresh(vs, kCompAnnounce)) return;

  // Wait for a finished kCompAnnounce stream from every sampled neighbour.
  std::size_t finished = 0;
  for (const std::size_t ni : vs.s_nbr) {
    bool found = false;
    api.for_each_in(kCompAnnounce, [&](std::size_t from, const StreamKey& k,
                                       InStream& in) {
      if (k.version == vs.w && from == ni && in.closed()) found = true;
    });
    if (found) ++finished;
  }
  if (finished < vs.s_nbr.size()) return;

  // Group sampled neighbours by component root and read the member lists.
  struct Adjacent {
    std::vector<NodeId> members;
    std::vector<std::size_t> member_nbrs;
  };
  std::map<NodeId, Adjacent> comps;  // nclint:allow(ordered-map) per-callback scratch over the handful of announced components
  api.for_each_in(kCompAnnounce, [&](std::size_t from, const StreamKey& k,
                                     InStream& in) {
    if (k.version != vs.w) return;
    auto& adj = comps[k.tag];
    adj.member_nbrs.push_back(from);
    if (adj.members.empty()) {
      while (in.available() > 0) {
        adj.members.push_back(static_cast<NodeId>(in.pop()));
      }
    } else {
      while (in.available() > 0) in.pop();  // duplicate copy; discard
    }
  });

  for (auto& [root, adj] : comps) {
    std::sort(adj.member_nbrs.begin(), adj.member_nbrs.end());
    const std::size_t parent_ni = adj.member_nbrs.front();
    for (const std::size_t ni : adj.member_nbrs) {
      auto ch = open_counted_one(api, key(kFringeReg, root, vs.w), ni);
      ch.put_bit(ni == parent_ni);
      ch.close();
    }
    ex.pairs.emplace(root, make_pair(root, vs.w, /*is_member=*/false,
                                     std::move(adj.members), parent_ni,
                                     params_->max_subsets));
  }
  ex.registered = true;
}

void DistNearCliqueNode::run_participation(NodeApi& api, VersionState& vs) {
  // Send our participation list exactly once, as soon as it is final.
  if (!vs.participate_sent) {
    bool ready = false;
    std::vector<NodeId> roots;
    if (vs.in_s) {
      if (vs.ex->tree_final_seen) {
        roots.push_back(vs.ex->best_root);
        ready = true;
      }
    } else if (vs.s_nbr.empty()) {
      ready = vs.s_known;
    } else if (vs.ex->registered) {
      for (const auto& [root, ps] : vs.ex->pairs) {
        (void)ps;
        roots.push_back(root);
      }
      ready = true;
    }
    if (ready && api.degree() > 0) {
      auto ch = open_counted_all(api, key(kParticipate, 0, vs.w));
      for (const NodeId r : roots) ch.put(r, idw());
      ch.close();
      vs.participate_sent = true;
    } else if (ready) {
      vs.participate_sent = true;
    }
  }

  // Collect neighbours' participation lists, which only pairs read. A node
  // with no exploration block is in no pair, so it drops them as they
  // arrive (a later version keeps it running). Rescanning is pointless on
  // rounds where no kParticipate traffic arrived: nothing new is available
  // and closures are deliveries too, so the outcome cannot change (the
  // degree-0 case must still run once — its empty scan is what flips
  // participation_known).
  if (!vs.ex) {
    if (fresh(vs, kParticipate)) api.retire_in(key(kParticipate, 0, vs.w));
    return;
  }
  Exploration& ex = *vs.ex;
  if (!ex.participation_known &&
      (api.degree() == 0 || fresh(vs, kParticipate))) {
    std::size_t closed = 0;
    for (std::size_t ni = 0; ni < api.degree(); ++ni) {
      InStream* in = api.find_in(ni, key(kParticipate, 0, vs.w));
      if (in == nullptr) continue;
      while (in->available() > 0) {
        if (ex.nbr_participation.empty()) {
          ex.nbr_participation.resize(api.degree());
        }
        ex.nbr_participation[ni].push_back(static_cast<NodeId>(in->pop()));
      }
      if (in->closed()) ++closed;
    }
    if (closed == api.degree()) {
      ex.participation_known = true;
      // Every list is closed and copied into nbr_participation.
      api.retire_in(key(kParticipate, 0, vs.w));
    }
  }
}

}  // namespace nc
