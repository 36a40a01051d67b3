#include <algorithm>
#include <bit>
#include <cassert>

#include "core/protocol.hpp"
#include "core/subsets.hpp"
#include "graph/metrics.hpp"

// Exploration stage, Step 4: every participant of a component S_i (member or
// fringe) enumerates all non-empty subsets X of S_i, decides membership in
// K_{2eps^2}(X) locally (4a), ships its membership bit-vector to every
// neighbour (4b), contributes to a coordinate-pipelined sum-convergecast so
// the root learns |K_{2eps^2}(X)| for every X (4c), receives the counts back
// (4d), accumulates neighbours' bit-vectors (4e) and finally decides
// membership in T_eps(X) (4f). The decision-stage T-count convergecast and
// the (X*, |T|) report reuse the same machinery.

namespace nc {

void DistNearCliqueNode::maybe_init_pair(NodeApi& api, VersionState& vs,
                                         PairState& ps) {
  if (ps.explore_started || !ps.live) return;
  const Exploration& ex = *vs.ex;
  if (ps.is_member && !(ex.comp_known && ex.children_known && ex.fringe_known))
    return;
  ps.explore_started = true;
  api.probe_add(probe_pairs_, 1);

  const auto total = subset_count(ps.s);
  // 4a: adjacency mask and K_{2eps^2} membership for every subset.
  std::vector<NodeId> my_nbrs(api.neighbors().begin(), api.neighbors().end());
  ps.a_mask = adjacency_mask(ps.members, my_nbrs);
  ps.k_bits.assign_zero(total);
  const double inner = params_->inner_eps();
  // Cache thresholds by |X| (s+1 values) to keep 4a at one popcount + one
  // compare per subset.
  std::vector<std::size_t> need(ps.s + 1);
  for (std::uint32_t c = 0; c <= ps.s; ++c) need[c] = k_threshold(c, inner);
  for (std::uint64_t x = 1; x <= total; ++x) {
    const auto inter =
        static_cast<std::size_t>(std::popcount(x & ps.a_mask));
    const auto size_x = static_cast<std::uint32_t>(std::popcount(x));
    if (inter >= need[size_x]) ps.k_bits.set(x - 1);
    ++local_ops_;
  }

  // 4b: membership bit-vector to every neighbour (shared payload).
  OutChannel kbitvec_out =
      open_counted_all(api, key(kKBitvec, ps.root, ps.version));
  for (std::uint64_t x = 1; x <= total; ++x) {
    kbitvec_out.put_bit(ps.k_bits.test(x - 1));
  }
  kbitvec_out.close();

  ps.counts.assign(total, 0);
  ps.nbr_k_accum.assign(total, 0);
  if (!ps.is_member || ps.parent_ni != SIZE_MAX) {
    ps.ksum_opened = true;
    ps.ksum_out =
        open_counted_one(api, key(kKSum, ps.root, ps.version), ps.parent_ni);
  }
}

void DistNearCliqueNode::run_explore(NodeApi& api, VersionState& vs,
                                     PairState& ps) {
  if (!ps.live) return;
  maybe_init_pair(api, vs, ps);
  if (!ps.explore_started) return;

  const auto total = subset_count(ps.s);
  const bool is_root = ps.is_member && ps.parent_ni == SIZE_MAX;

  // --- 4c: coordinate-pipelined sum-convergecast of K counts. ---
  // Children are child_nis (tree + fringe children of members; none for
  // fringe participants). A coordinate moves up as soon as every child has
  // delivered it.
  {
    auto child_in = [&](std::size_t ni) {
      return api.find_in(ni, key(kKSum, ps.root, ps.version));
    };
    bool progressed = true;
    while (progressed && ps.ksum_next < total) {
      progressed = false;
      std::uint64_t sum = ps.k_bits.test(ps.ksum_next) ? 1 : 0;
      bool all_have = true;
      for (const std::size_t ni : ps.child_nis) {
        InStream* in = child_in(ni);
        if (in == nullptr || in->available() == 0) {
          all_have = false;
          break;
        }
      }
      if (all_have) {
        for (const std::size_t ni : ps.child_nis) {
          sum += child_in(ni)->pop();
          ++local_ops_;
        }
        if (is_root) {
          ps.counts[ps.ksum_next] = static_cast<std::uint32_t>(sum);
          ++ps.counts_filled;
        } else {
          ps.ksum_out.put(sum, idw());
        }
        ++ps.ksum_next;
        progressed = true;
      }
    }
    if (ps.ksum_next == total && ps.ksum_opened && !ps.ksum_out.closed()) {
      ps.ksum_out.close();
    }
  }

  // --- 4d: root broadcasts counts; members relay down; all store them. ---
  if (is_root) {
    if (ps.counts_filled == total && !ps.kcount_opened) {
      ps.kcount_opened = true;
      if (!ps.child_nis.empty()) {
        ps.kcount_out =
            open_counted(api, key(kKCount, ps.root, ps.version), ps.child_nis);
        for (const auto c : ps.counts) ps.kcount_out.put(c, idw());
        ps.kcount_out.close();
      }
    }
  } else if (ps.counts_filled < total) {
    InStream* in = api.find_in(ps.parent_ni, key(kKCount, ps.root, ps.version));
    if (in != nullptr) {
      if (!ps.kcount_opened && ps.is_member && !ps.child_nis.empty()) {
        ps.kcount_opened = true;
        ps.kcount_out =
            open_counted(api, key(kKCount, ps.root, ps.version), ps.child_nis);
      }
      while (in->available() > 0 && ps.counts_filled < total) {
        const auto c = static_cast<std::uint32_t>(in->pop());
        ps.counts[ps.counts_filled++] = c;
        if (ps.kcount_opened) ps.kcount_out.put(c, idw());
      }
      if (ps.counts_filled == total && ps.kcount_opened &&
          !ps.kcount_out.closed()) {
        ps.kcount_out.close();
      }
    }
  }

  // --- 4e/4f: accumulate neighbours' K bit-vectors. ---
  if (!ps.participant_nbrs_known && vs.ex->participation_known) {
    ps.participant_nbrs_known = true;
    // Empty when every neighbour's list was empty.
    const auto& lists = vs.ex->nbr_participation;
    for (std::size_t ni = 0; ni < lists.size(); ++ni) {
      const auto& roots = lists[ni];
      if (std::find(roots.begin(), roots.end(), ps.root) != roots.end()) {
        ps.participant_nbrs.push_back(ni);
      }
    }
    ps.pn_consumed.assign(ps.participant_nbrs.size(), 0);
    if (params_->sample_4f > 0 &&
        ps.participant_nbrs.size() > params_->sample_4f) {
      // Section 5.3 estimate mode: inspect only a random sample of the
      // participating neighbours and scale the counts.
      Rng pick = api.rng().derive(0x4f00u + ps.version).derive(ps.root);
      auto idx = pick.sample_without_replacement(
          static_cast<std::uint32_t>(ps.participant_nbrs.size()),
          params_->sample_4f);
      std::vector<std::size_t> chosen;
      chosen.reserve(idx.size());
      for (const auto i : idx) chosen.push_back(ps.participant_nbrs[i]);
      ps.sampled_4f = std::move(chosen);
    }
  }
  if (ps.participant_nbrs_known && !ps.t_done) {
    const std::vector<std::size_t>& consumers =
        ps.sampled_4f ? *ps.sampled_4f : ps.participant_nbrs;
    bool all_finished = true;
    for (std::size_t i = 0; i < ps.participant_nbrs.size(); ++i) {
      const std::size_t ni = ps.participant_nbrs[i];
      const bool counted =
          !ps.sampled_4f || std::find(consumers.begin(), consumers.end(),
                                      ni) != consumers.end();
      InStream* in = api.find_in(ni, key(kKBitvec, ps.root, ps.version));
      if (in == nullptr) {
        all_finished = false;
        continue;
      }
      while (in->available() > 0 && ps.pn_consumed[i] < total) {
        const auto bit = in->pop();
        if (counted) {
          // Only neighbours we actually inspect count as local computation
          // (Section 5.3's estimate mode saves exactly this inspection).
          if (bit != 0) ++ps.nbr_k_accum[ps.pn_consumed[i]];
          ++local_ops_;
        }
        ++ps.pn_consumed[i];
      }
      if (ps.pn_consumed[i] < total) all_finished = false;
    }
    // --- 4f: decide T membership once counts and accumulators are exact. ---
    if (all_finished && ps.counts_filled == total) {
      ps.t_bits.assign_zero(total);
      const double scale =
          ps.sampled_4f && !consumers.empty()
              ? static_cast<double>(ps.participant_nbrs.size()) /
                    static_cast<double>(consumers.size())
              : 1.0;
      for (std::uint64_t x = 1; x <= total; ++x) {
        if (!ps.k_bits.test(x - 1)) continue;
        const auto have = static_cast<std::size_t>(
            static_cast<double>(ps.nbr_k_accum[x - 1]) * scale + 0.5);
        if (have >= k_threshold(ps.counts[x - 1], params_->eps)) {
          ps.t_bits.set(x - 1);
        }
        ++local_ops_;
      }
      ps.t_done = true;
      // Every participant neighbour's bit-vector is consumed to the end.
      api.retire_in(key(kKBitvec, ps.root, ps.version));
      if (!ps.is_member || ps.parent_ni != SIZE_MAX) {
        ps.tsum_opened = true;
        ps.tsum_out =
            open_counted_one(api, key(kTSum, ps.root, ps.version), ps.parent_ni);
      } else {
        ps.tcounts.assign(total, 0);
      }
    }
  }

  // --- Decision Step 1: T-count convergecast (same pipelining as 4c). ---
  if (ps.t_done && !ps.report_done) {
    auto child_in = [&](std::size_t ni) {
      return api.find_in(ni, key(kTSum, ps.root, ps.version));
    };
    bool progressed = true;
    while (progressed && ps.tsum_next < total) {
      progressed = false;
      std::uint64_t sum = ps.t_bits.test(ps.tsum_next) ? 1 : 0;
      bool all_have = true;
      for (const std::size_t ni : ps.child_nis) {
        InStream* in = child_in(ni);
        if (in == nullptr || in->available() == 0) {
          all_have = false;
          break;
        }
      }
      if (all_have) {
        for (const std::size_t ni : ps.child_nis) sum += child_in(ni)->pop();
        if (is_root) {
          ps.tcounts[ps.tsum_next] = static_cast<std::uint32_t>(sum);
        } else {
          ps.tsum_out.put(sum, idw());
        }
        ++ps.tsum_next;
        progressed = true;
      }
    }
    if (ps.tsum_next == total) {
      if (ps.tsum_opened && !ps.tsum_out.closed()) ps.tsum_out.close();
      if (is_root) {
        // Decision Step 1 conclusion: X(S_i) maximizes |T_eps(X)|; ties go
        // to the smallest subset index (deterministic).
        std::uint64_t best_x = 1;
        std::uint32_t best_t = ps.tcounts[0];
        for (std::uint64_t x = 2; x <= total; ++x) {
          if (ps.tcounts[x - 1] > best_t) {
            best_t = ps.tcounts[x - 1];
            best_x = x;
          }
        }
        ps.x_star = best_x;
        ps.t_size = best_t;
        ps.report_done = true;
        for (auto& rc : root_candidates_) {
          if (rc.root == ps.root && rc.version == ps.version) {
            rc.x_star = best_x;
            rc.t_size = best_t;
          }
        }
        // Decision Step 2: broadcast (X*, |T|) to the whole component and
        // its fringe.
        if (!ps.child_nis.empty()) {
          ps.report_out =
              open_counted(api, key(kReport, ps.root, ps.version), ps.child_nis);
          for (std::uint32_t b = 0; b < ps.s; ++b) {
            ps.report_out.put_bit((ps.x_star >> b) & 1ULL);
          }
          ps.report_out.put(ps.t_size, idw());
          ps.report_out.close();
        }
      }
    }
  }

  // --- Decision Step 2, non-root side: receive and relay the report. ---
  if (!is_root && ps.t_done && !ps.report_done) {
    InStream* in = api.find_in(ps.parent_ni, key(kReport, ps.root, ps.version));
    if (in != nullptr) {
      const bool need_relay = ps.is_member && !ps.child_nis.empty();
      if (need_relay && ps.report_relay_next == 0 && in->available() > 0 &&
          !ps.report_out.closed()) {
        ps.report_out =
            open_counted(api, key(kReport, ps.root, ps.version), ps.child_nis);
      }
      while (in->available() > 0 && ps.report_relay_next < ps.s + 1u) {
        const auto v = in->pop();
        if (ps.report_relay_next < ps.s) {
          if (v != 0) ps.x_star |= 1ULL << ps.report_relay_next;
          if (need_relay) ps.report_out.put_bit(v != 0);
        } else {
          ps.t_size = static_cast<std::uint32_t>(v);
          if (need_relay) ps.report_out.put(v, idw());
        }
        ++ps.report_relay_next;
      }
      if (ps.report_relay_next == ps.s + 1u) {
        if (need_relay) ps.report_out.close();
        ps.report_done = true;
      }
    }
  }
}

}  // namespace nc
