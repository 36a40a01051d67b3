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
  // Detect the root's completion wave. Note this may arrive while our own
  // (losing) candidacy's diffusing computation is still draining — the wave
  // only certifies that the minimum root's flood has quiesced, which fixes
  // everyone's best_root/parent.
  if (!vs.i_am_root && !vs.tree_final_seen && fresh(api, vs, kTreeFinal)) {
    api.for_each_in(kTreeFinal, [&](std::size_t ni, const StreamKey& k,
                                    InStream& in) {
      if (k.version != vs.w || !in.closed() || vs.tree_final_seen) return;
      vs.tree_final_seen = true;
      assert(k.tag == vs.best_root);
      // Forward the wave over the remaining S-edges.
      for (const std::size_t other : vs.s_nbr) {
        if (other == ni) continue;
        auto ch = open_counted_one(api, key(kTreeFinal, k.tag, vs.w), other);
        ch.close();
      }
      vs.tree_final_forwarded = true;
    });
  }
  if (vs.tree_final_seen && !vs.parentof_sent_) {
    vs.parentof_sent_ = true;
    for (const std::size_t ni : vs.s_nbr) {
      auto ch = open_counted_one(api, key(kParentOf, vs.best_root, vs.w), ni);
      ch.put_bit(ni == vs.best_parent_ni);
      ch.close();
    }
  }
  if (!vs.parentof_sent_ || vs.children_known) return;

  // Collect ParentOf bits from every S-neighbour.
  if (fresh(api, vs, kParentOf))
  api.for_each_in(kParentOf, [&](std::size_t ni, const StreamKey& k,
                                 InStream& in) {
    if (k.version != vs.w) return;
    while (in.available() > 0) {
      ++vs.parentof_in;
      if (in.pop() != 0) vs.tree_children.push_back(ni);
    }
  });
  if (vs.parentof_in == vs.s_nbr.size()) {
    std::sort(vs.tree_children.begin(), vs.tree_children.end());
    vs.children_known = true;
  }
}

void DistNearCliqueNode::run_gather(NodeApi& api, VersionState& vs) {
  if (!vs.in_s || !vs.children_known) return;
  const NodeId root = vs.best_root;

  // --- Step 2 up: member IDs to the root (pipelined relay). ---
  if (!vs.i_am_root) {
    if (!vs.gather_opened) {
      vs.gather_opened = true;
      vs.gather_out = open_counted_one(api, key(kGatherIds, root, vs.w),
                                          vs.best_parent_ni);
      vs.gather_out.put(api.id(), idw());
    }
    if (!vs.gather_out.closed()) {
      bool all_finished = true;
      for (const std::size_t ni : vs.tree_children) {
        InStream* in = api.find_in(ni, key(kGatherIds, root, vs.w));
        if (in == nullptr) {
          all_finished = false;
          continue;
        }
        while (in->available() > 0) vs.gather_out.put(in->pop(), idw());
        if (!in->finished()) all_finished = false;
      }
      if (all_finished) vs.gather_out.close();
    }
  } else if (!vs.comp_known) {
    bool all_finished = true;
    for (const std::size_t ni : vs.tree_children) {
      InStream* in = api.find_in(ni, key(kGatherIds, root, vs.w));
      if (in == nullptr) {
        all_finished = false;
        continue;
      }
      while (in->available() > 0) {
        vs.gathered.push_back(static_cast<NodeId>(in->pop()));
      }
      if (!in->finished()) all_finished = false;
    }
    if (all_finished) {
      vs.comp = vs.gathered;
      vs.comp.push_back(api.id());
      std::sort(vs.comp.begin(), vs.comp.end());
      vs.comp_known = true;
      // --- Step 2 down: broadcast the sorted list over the tree. ---
      if (!vs.tree_children.empty()) {
        vs.complist_opened = true;
        vs.complist_out =
            open_counted(api, key(kCompList, root, vs.w), vs.tree_children);
        for (const NodeId v : vs.comp) vs.complist_out.put(v, idw());
        vs.complist_out.close();
      }
    }
  }

  // --- Step 2 down, member side: receive + relay the component list. ---
  if (!vs.i_am_root && !vs.comp_known && vs.gather_opened) {
    InStream* in = api.find_in(vs.best_parent_ni, key(kCompList, root, vs.w));
    if (in != nullptr) {
      if (!vs.complist_opened && !vs.tree_children.empty()) {
        vs.complist_opened = true;
        vs.complist_out =
            open_counted(api, key(kCompList, root, vs.w), vs.tree_children);
      }
      while (in->available() > 0) {
        const auto id = static_cast<NodeId>(in->pop());
        vs.comp.push_back(id);
        if (vs.complist_opened) vs.complist_out.put(id, idw());
      }
      if (in->finished()) {
        if (vs.complist_opened) vs.complist_out.close();
        vs.comp_known = true;
      }
    }
  }

  // --- Step 3: announce the component to non-sampled neighbours and create
  // our own PairState. ---
  if (vs.comp_known && !vs.announce_opened) {
    vs.announce_opened = true;
    std::vector<std::size_t> fringe_nbrs;
    for (std::size_t ni = 0; ni < api.degree(); ++ni) {
      if (!std::binary_search(vs.s_nbr.begin(), vs.s_nbr.end(), ni)) {
        fringe_nbrs.push_back(ni);
      }
    }
    if (!fringe_nbrs.empty()) {
      vs.announce_out =
          open_counted(api, key(kCompAnnounce, root, vs.w), fringe_nbrs);
      for (const NodeId v : vs.comp) vs.announce_out.put(v, idw());
      vs.announce_out.close();
    }
    vs.pairs.emplace(root,
                     make_pair(root, vs.w, /*is_member=*/true, vs.comp,
                               vs.i_am_root ? SIZE_MAX : vs.best_parent_ni,
                               params_.max_subsets));
    if (vs.i_am_root) {
      RootCandidate rc;
      rc.root = root;
      rc.version = vs.w;
      rc.component_size = static_cast<std::uint32_t>(vs.comp.size());
      rc.live = vs.pairs.at(root).live;
      root_candidates_.push_back(rc);
      api.probe_add(probe_candidates_, rc.component_size);
    }
  }

  // --- Fringe registration bits from non-sampled neighbours. ---
  if (vs.comp_known && !vs.fringe_known) {
    if (fresh(api, vs, kFringeReg)) {
      api.for_each_in(kFringeReg, [&](std::size_t ni, const StreamKey& k,
                                      InStream& in) {
        if (k.version != vs.w || k.tag != root) return;
        while (in.available() > 0) {
          ++vs.fringe_in;
          if (in.pop() != 0) vs.fringe_children.push_back(ni);
        }
      });
    }
    const std::size_t fringe_count = api.degree() - vs.s_nbr.size();
    if (vs.fringe_in == fringe_count) {
      vs.fringe_known = true;
      auto& ps = vs.pairs.at(root);
      ps.child_nis = vs.tree_children;
      ps.child_nis.insert(ps.child_nis.end(), vs.fringe_children.begin(),
                          vs.fringe_children.end());
      std::sort(ps.child_nis.begin(), ps.child_nis.end());
    }
  }
}

void DistNearCliqueNode::run_fringe(NodeApi& api, VersionState& vs) {
  if (vs.in_s || vs.registered || vs.s_nbr.empty()) return;
  if (!fresh(api, vs, kCompAnnounce)) return;

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
    vs.pairs.emplace(root, make_pair(root, vs.w, /*is_member=*/false,
                                     std::move(adj.members), parent_ni,
                                     params_.max_subsets));
  }
  vs.registered = true;
}

void DistNearCliqueNode::run_participation(NodeApi& api, VersionState& vs) {
  // Send our participation list exactly once, as soon as it is final.
  if (!vs.participate_sent) {
    bool ready = false;
    std::vector<NodeId> roots;
    if (vs.in_s) {
      if (vs.tree_final_seen) {
        roots.push_back(vs.best_root);
        ready = true;
      }
    } else if (vs.s_nbr.empty()) {
      ready = vs.s_known;
    } else if (vs.registered) {
      for (const auto& [root, ps] : vs.pairs) {
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

  // Collect neighbours' participation lists. Rescanning is pointless on
  // rounds where no kParticipate traffic arrived: nothing new is available
  // and closures are deliveries too, so the outcome cannot change (the
  // degree-0 case must still run once — its empty scan is what flips
  // participation_known).
  if (!vs.participation_known &&
      (api.degree() == 0 || fresh(api, vs, kParticipate))) {
    std::size_t closed = 0;
    for (std::size_t ni = 0; ni < api.degree(); ++ni) {
      InStream* in = api.find_in(ni, key(kParticipate, 0, vs.w));
      if (in == nullptr) continue;
      while (in->available() > 0) {
        vs.nbr_participation[ni].push_back(static_cast<NodeId>(in->pop()));
      }
      if (in->closed()) ++closed;
    }
    if (closed == api.degree()) {
      vs.participation_in = closed;
      vs.participation_known = true;
      // Every list is closed and copied into nbr_participation.
      api.retire_in(key(kParticipate, 0, vs.w));
    }
  }
}

}  // namespace nc
