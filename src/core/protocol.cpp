#include "core/protocol.hpp"

#include <algorithm>
#include <cassert>

#include "util/bitio.hpp"

namespace nc {

DistNearCliqueNode::DistNearCliqueNode(const ProtocolParams& params,
                                       const Schedule& schedule)
    : params_(&params), schedule_(&schedule) {
  versions_.resize(schedule_->versions);
  for (std::uint16_t i = 0; i < schedule_->versions; ++i) {
    versions_[i].w = static_cast<std::uint16_t>(i + 1);
  }
}

bool DistNearCliqueNode::fresh(VersionState& vs, std::uint16_t kind) {
  const std::uint32_t bit = std::uint32_t{1} << kind;
  if ((vs.unseen & bit) == 0) return false;
  vs.unseen &= ~bit;
  return true;
}

bool DistNearCliqueNode::sampling_coin(const Rng& node_rng, std::uint16_t w,
                                       double p) {
  Rng coin_rng = node_rng.derive(w);
  return coin_rng.next_bernoulli(p);
}

void DistNearCliqueNode::on_start(NodeApi& api) {
  idw_ = id_width(api.n());
  // Telemetry probes: all return kNoProbe (and every probe_add becomes a
  // single early-return branch) unless the run has probes enabled.
  probe_opens_ = api.probe_counter("dnc.stream_opens");
  probe_candidates_ = api.probe_gauge("dnc.candidate_nodes");
  probe_pairs_ = api.probe_counter("dnc.pairs_initialized");
  api.set_alarm(schedule_->version_start(1));
}

void DistNearCliqueNode::on_round(NodeApi& api) {
  if (finished_) return;
  const std::uint64_t r = api.round();
  const std::uint32_t arrived = api.arrived_kinds();
  for (auto& vs : versions_) vs.unseen |= arrived;

  for (auto& vs : versions_) {
    if (!vs.started && r >= schedule_->version_start(vs.w)) {
      start_version(api, vs);
    }
    if (!vs.started) continue;
    if (!vs.s_known) read_sampled_bits(api, vs);
    if (vs.s_known) {
      if (vs.in_s) {
        run_election(api, vs);
        run_tree_final(api, vs);
        run_gather(api, vs);
      } else {
        run_fringe(api, vs);
      }
      run_participation(api, vs);
      if (vs.ex && !vs.frozen) {
        for (auto& [root, ps] : vs.ex->pairs) {
          (void)root;
          run_explore(api, vs, ps);
        }
      }
    }
    if (!vs.frozen && r >= schedule_->version_end(vs.w)) {
      freeze_version(api, vs);
    }
  }

  run_decision(api);
  if (r >= schedule_->decision_deadline()) force_resolve(api);
  maybe_finish(api);

  if (!finished_) {
    // Re-arm the next deadline so the simulator can fast-forward idle waits
    // and the liveness guard never fires spuriously.
    std::uint64_t next = schedule_->decision_deadline();
    for (const auto& vs : versions_) {
      if (!vs.started) {
        next = std::min(next, schedule_->version_start(vs.w));
      } else if (!vs.frozen) {
        next = std::min(next, schedule_->version_end(vs.w));
      }
    }
    if (next <= r) next = r + 1;  // deadline round itself: resolve next round
    api.set_alarm(next);
  }
}

void DistNearCliqueNode::start_version(NodeApi& api, VersionState& vs) {
  vs.started = true;
  vs.in_s = sampling_coin(api.rng(), vs.w, params_->p);
  // Announce the sampling coin to every neighbour (1 bit).
  auto ch = open_counted_all(api, key(kSampled, 0, vs.w));
  ch.put_bit(vs.in_s);
  ch.close();
  if (api.degree() == 0) {
    // Isolated node: it is its own singleton component if sampled; either
    // way there is nothing to discover or relay.
    vs.s_known = true;
    if (vs.in_s) {
      vs.ex = std::make_unique<Exploration>();
      Exploration& ex = *vs.ex;
      ex.best_root = api.id();
      ex.i_am_root = true;
      ex.election_done = true;
      ex.tree_final_seen = true;
      ex.children_known = true;
      ex.comp = {api.id()};
      ex.comp_known = true;
    }
  }
}

void DistNearCliqueNode::read_sampled_bits(NodeApi& api, VersionState& vs) {
  std::size_t have = 0;
  for (std::size_t ni = 0; ni < api.degree(); ++ni) {
    InStream* in = api.find_in(ni, key(kSampled, 0, vs.w));
    if (in != nullptr && (in->available() > 0 || in->closed())) ++have;
  }
  if (have < api.degree()) return;
  vs.s_nbr.clear();
  for (std::size_t ni = 0; ni < api.degree(); ++ni) {
    InStream* in = api.find_in(ni, key(kSampled, 0, vs.w));
    // Each neighbour sends exactly one bit; consume it once.
    if (in->available() > 0 && in->pop() != 0) vs.s_nbr.push_back(ni);
  }
  // Every neighbour's one-message stream (bit + EOS) is read: drop them.
  api.retire_in(key(kSampled, 0, vs.w));
  vs.s_known = true;
  // Only S and its neighbours explore (Section 4); everyone else is done
  // with the version once it has sent its (empty) participation list.
  if (vs.in_s || !vs.s_nbr.empty()) vs.ex = std::make_unique<Exploration>();
  if (vs.in_s) vs.ex->best_root = api.id();
}

void DistNearCliqueNode::freeze_version(NodeApi& api, VersionState& vs) {
  (void)api;
  vs.frozen = true;
  vs.finalized = true;
  // Pairs without complete reports contribute no candidates; my_ack is
  // already false for them. Exploration stops (run_explore is gated on
  // !frozen); vote/verdict machinery keeps running for pairs that completed,
  // and everything else resolves at the decision deadline.
}

bool DistNearCliqueNode::version_finalized_for_vote(
    const VersionState& vs) const {
  if (vs.frozen) return true;
  if (!vs.started || !vs.s_known) return false;
  if (!vs.ex) return true;  // no S-node in reach: nothing to wait for
  const bool set_final = vs.in_s ? vs.ex->comp_known : vs.ex->registered;
  if (!set_final) return false;
  for (const auto& [root, ps] : vs.ex->pairs) {
    (void)root;
    if (ps.live && !ps.report_done) return false;
  }
  return true;
}

void DistNearCliqueNode::force_resolve(NodeApi& api) {
  (void)api;
  for (auto& vs : versions_) {
    vs.finalized = true;
    if (!vs.ex) continue;
    for (auto& [root, ps] : vs.ex->pairs) {
      (void)root;
      if (!ps.resolved) {
        ps.resolved = true;
        ps.survived = false;
      }
    }
  }
  voted_global_ = true;
}

void DistNearCliqueNode::maybe_finish(NodeApi& api) {
  if (finished_) return;
  for (const auto& vs : versions_) {
    if (!vs.started || !vs.finalized) return;
    if (vs.in_s && !vs.frozen && !vs.ex) return;  // coins not all read yet
    if (!vs.ex) continue;
    const Exploration& ex = *vs.ex;
    for (const auto& [root, ps] : ex.pairs) {
      (void)root;
      if (!ps.resolved) return;
    }
    if (vs.in_s && !vs.frozen) {
      // Members must also finish their relay duties so children do not hang
      // waiting for component lists that would never arrive.
      if (!ex.comp_known) return;
      if (!ex.i_am_root && ex.gather_opened && !ex.gather_out.closed()) return;
      if (ex.complist_opened && !ex.complist_out.closed()) return;
    }
  }
  if (!voted_global_) return;
  finished_ = true;
  api.set_done();
}

}  // namespace nc
