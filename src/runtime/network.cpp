#include "runtime/network.hpp"

// nclint:allow-file(wall-clock): opt-in profile/telemetry timers (NetConfig::profile, NetConfig::telemetry) — steady_clock reads only feed NetProfile seconds and trace span timestamps, never a simulation decision.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "util/bitio.hpp"
#include "util/check.hpp"

namespace nc {

// ---------------------------------------------------------------------------
// NodeApi
// ---------------------------------------------------------------------------

NodeId NodeApi::n() const noexcept { return net_->n_; }

std::uint64_t NodeApi::round() const noexcept { return net_->round_; }

std::span<const NodeId> NodeApi::neighbors() const {
  return net_->graph_->neighbors(id_);
}

std::size_t NodeApi::neighbor_index(NodeId v) const {
  const auto nb = neighbors();
  const auto it = std::lower_bound(nb.begin(), nb.end(), v);
  if (it == nb.end() || *it != v) return std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(it - nb.begin());
}

Rng& NodeApi::rng() { return net_->states_[id_].rng; }

OutChannel NodeApi::open_stream(const StreamKey& key,
                                std::span<const std::size_t> neighbor_indices) {
  if (key.kind >= kMaxMsgKinds) {
    throw std::invalid_argument(
        "open_stream: message kind does not fit the 5-bit header field");
  }
  if (key.version >= kMaxStreamVersions) {
    throw std::invalid_argument(
        "open_stream: stream version does not fit the 4-bit header field");
  }
  // 64-bit compare: id_bits is 32 when n needs every NodeId bit.
  if ((std::uint64_t{key.tag} >> net_->id_bits_) != 0) {
    throw std::invalid_argument(
        "open_stream: stream tag does not fit the id_width(n)-bit header "
        "field");
  }
  const std::size_t base = net_->edge_base_[id_];
  const std::size_t degree = net_->edge_base_[id_ + 1] - base;
  for (const std::size_t ni : neighbor_indices) {
    if (ni >= degree) {
      throw std::out_of_range(
          "open_stream: neighbour index is not below the node's degree");
    }
  }
  OutChannel ch;
  if (neighbor_indices.empty()) return ch;
  // The owner's links draw their stream lists from its shard's pool.
  LinkPool& pool = net_->shards_[net_->plan_.node_shard[id_]].link_pool;
  const StreamRef state = ch.share(key);
  Link* links = net_->links_.data() + base;
  for (const std::size_t ni : neighbor_indices) {
    links[ni].add_stream(pool, state);
  }
  return ch;
}

OutChannel NodeApi::open_stream_all(const StreamKey& key) {
  // The shared iota table covers [0, max_degree): a full-fanout open is
  // allocation-free.
  return open_stream(
      key, std::span<const std::size_t>(net_->iota_.data(), degree()));
}

OutChannel NodeApi::open_stream_one(const StreamKey& key,
                                    std::size_t neighbor_index) {
  const std::size_t idx[1] = {neighbor_index};
  return open_stream(key, idx);
}

InStream* NodeApi::find_in(std::size_t ni, const StreamKey& key) {
  return net_->states_[id_].inbox.find(ni, key);
}

void NodeApi::retire_in(const StreamKey& key) {
  net_->states_[id_].inbox.retire(key);
}

std::uint32_t NodeApi::arrived_kinds() const noexcept {
  return net_->states_[id_].arrived_kinds;
}

void NodeApi::set_alarm(std::uint64_t round) {
  auto& st = net_->states_[id_];
  if (net_->done_[id_] != 0 || st.alarm == round) return;
  st.alarm = round;  // latest call wins; stale bucket entries are skipped
  if (round != Network::kNoAlarm) {
    // The owning shard's buckets: a node only ever arms itself, so the
    // write stays inside the shard running this callback. Synchronous
    // protocols overwhelmingly arm for the same round their neighbours
    // just armed for, so the shard memoizes the last bucket and the common
    // case skips the map walk entirely.
    auto& sh = net_->shards_[net_->plan_.node_shard[id_]];
    if (sh.alarm_memo_round != round) {
      sh.alarm_memo_bucket = &sh.alarm_buckets[round];
      sh.alarm_memo_round = round;
    }
    sh.alarm_memo_bucket->push_back(id_);
  }
}

void NodeApi::set_done() {
  std::uint8_t& done = net_->done_[id_];
  if (done == 0) {
    done = 1;
    net_->states_[id_].alarm = Network::kNoAlarm;
    ++net_->shards_[net_->plan_.node_shard[id_]].done_count;
  }
}

std::uint32_t NodeApi::probe_counter(const char* name) {
  if (!net_->telem_) return kNoProbe;
  return net_->telem_->register_probe(name, /*counter=*/true);
}

std::uint32_t NodeApi::probe_gauge(const char* name) {
  if (!net_->telem_) return kNoProbe;
  return net_->telem_->register_probe(name, /*counter=*/false);
}

void NodeApi::probe_add(std::uint32_t probe, std::uint64_t delta) {
  // kNoProbe short-circuits before the engine is touched, so instrumented
  // protocol code costs one compare per call when probes are off.
  if (probe == NodeApi::kNoProbe) return;
  net_->telem_->probe_add(net_->plan_.node_shard[id_], probe, delta);
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

namespace {

// Trace-span clock arithmetic (tracing only; the telemetry engine itself
// never reads a clock — it is handed these offsets).
double span_ts_us(std::uint64_t epoch_ns,
                  std::chrono::steady_clock::time_point tp) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      tp.time_since_epoch())
                      .count();
  return (static_cast<double>(ns) - static_cast<double>(epoch_ns)) / 1000.0;
}

double span_dur_us(std::chrono::steady_clock::time_point a,
                   std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

Network::Network(const Graph& g, const NetConfig& config,
                 const std::function<std::unique_ptr<INode>(NodeId)>& factory)
    : graph_(&g),
      config_(config),
      n_(g.n()),
      id_bits_(id_width(g.n())),
      header_bits_(stream_header_bits(id_bits_)) {
  bandwidth_bits_ = config.mode == NetConfig::Mode::kLocal
                        ? std::numeric_limits<std::size_t>::max()
                        : static_cast<std::size_t>(config.bandwidth_factor) *
                              id_bits_;

  // CSR mirror: offsets, owners and the reverse-edge index table. Iterating
  // sources in ascending ID order means, for a fixed target u, sources
  // arrive in ascending order too — so a per-node cursor yields the position
  // of the source in u's sorted adjacency list in O(m) total, and deliveries
  // never binary-search again.
  edge_base_.resize(static_cast<std::size_t>(n_) + 1, 0);
  std::size_t max_degree = 0;
  for (NodeId v = 0; v < n_; ++v) {
    edge_base_[v + 1] = edge_base_[v] + g.degree(v);
    max_degree = std::max(max_degree, g.degree(v));
  }
  if (max_degree >= InboxKey::kNiLimit) {
    throw std::invalid_argument(
        "Network: a node of degree >= 2^28 does not fit the inbox key's "
        "neighbour-index field");
  }
  const std::size_t directed_edges = edge_base_[n_];
  if (directed_edges >= (std::size_t{1} << 32)) {
    throw std::invalid_argument(
        "Network: a graph of >= 2^32 directed edges does not fit the 32-bit "
        "active-link index");
  }
  edge_owner_.resize(directed_edges);
  reverse_index_.resize(directed_edges);
  {
    // Degrees are below 2^28 (checked above), so every index fits 32 bits.
    std::vector<std::uint32_t> cursor(n_, 0);
    for (NodeId v = 0; v < n_; ++v) {
      const auto nb = g.neighbors(v);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        const std::size_t e = edge_base_[v] + i;
        edge_owner_[e] = v;
        reverse_index_[e] = cursor[nb[i]]++;
      }
    }
  }
  iota_.resize(max_degree);
  for (std::size_t i = 0; i < max_degree; ++i) iota_[i] = i;
  link_active_.assign(directed_edges, 0);

  // Shard partition + pool. The partition is contiguous and balanced by
  // degree; every per-round structure below is shard-owned.
  plan_ = plan_shards(g, std::max(1u, config.threads));
  const unsigned k = plan_.shards();
  shards_.resize(k);
  for (unsigned s = 0; s < k; ++s) {
    shards_[s].begin = plan_.begin(s);
    shards_[s].end = plan_.end(s);
    shards_[s].woken.assign(shards_[s].end - shards_[s].begin, 0);
    shards_[s].lanes.resize(k);
    // Lanes carve from the owning shard's per-round arena; the cross-round
    // in-flight buckets and FEC hold stay heap-backed (default bind).
    for (auto& lane : shards_[s].lanes) lane.bind(&shards_[s].arena);
  }
  // The whole determinism story rests on this: shards are contiguous ID
  // ranges covering [0, n), so merging lanes in ascending source-shard
  // order reproduces the global ascending-edge delivery order of a single
  // shard bit for bit.
  for (unsigned s = 0; s < k; ++s) {
    nc_invariant(shards_[s].begin == (s == 0 ? 0 : shards_[s - 1].end) &&
                     shards_[s].begin <= shards_[s].end,
                 "shard partition must be contiguous — the lane merge order "
                 "equals the serial delivery order only then");
  }
  nc_invariant(shards_[k - 1].end == n_,
               "shard partition must cover every node");
  if (k > 1) pool_ = std::make_unique<ShardPool>(k);

  // Fault engine + per-shard churn schedule (only for active plans; the
  // fault-free path carries no engine and no buckets).
  if (config.faults.any()) {
    faults_ = std::make_unique<FaultEngine>(config.faults, n_, directed_edges,
                                            config.seed);
    for (NodeId v = 0; v < n_; ++v) {
      Shard& sh = shards_[plan_.node_shard[v]];
      const std::uint64_t cr = faults_->crash_round(v);
      if (cr != FaultEngine::kNever) sh.fault_events[cr].push_back(v);
      const std::uint64_t rr = faults_->recover_round(v);
      if (rr != FaultEngine::kNever) sh.fault_events[rr].push_back(v);
    }
  }

  // Reliability service (only for active plans).
  if (config.reliability.any()) {
    if (config.mode == NetConfig::Mode::kLocal) {
      throw std::invalid_argument(
          "NetConfig::reliability requires CONGEST mode — the service's "
          "control traffic (ACK/repair slots) is accounted against the "
          "CONGEST bandwidth budget, which LOCAL mode does not define");
    }
    rel_ = std::make_unique<ReliabilityEngine>(
        config.reliability, config.faults, faults_.get(), directed_edges,
        header_bits_, bandwidth_bits_, config.seed);
  }

  // Telemetry engine (opt-in). Built before on_start so nodes can register
  // probes there. Recording only *reads* engine state the round loop
  // maintains anyway.
  if (config.telemetry.any()) {
    telem_ = std::make_unique<TelemetryEngine>(config.telemetry, k);
    if (config.telemetry.trace) {
      telem_epoch_ns_ = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
      telem_->set_epoch_ns(telem_epoch_ns_);
    }
  }

  // The flat link table: shards are contiguous ID ranges, so each shard's
  // links are one contiguous run of it, all drawing on that shard's pool.
  links_.resize(directed_edges);

  const Rng master(config.seed);
  nodes_.reserve(n_);
  states_.reserve(n_);
  done_.assign(n_, 0);
  for (NodeId v = 0; v < n_; ++v) {
    states_.push_back(NodeState{master.derive(v),
                                Inbox(shards_[plan_.node_shard[v]].inbox_pool)});
    nodes_.push_back(factory(v));
  }
  // Factories run serially (user code frequently captures shared state for
  // construction), but on_start runs shard-parallel: each callback touches
  // only its own node's state plus shard-owned structures (active links,
  // alarm buckets, done counts), and no messages are exchanged before round
  // 1, so parallel initialization is unobservable — fixed-seed executions
  // stay bit-identical at every thread count. Within a shard the calls
  // keep ascending ID order.
  for_each_shard([this](unsigned s) {
    for (NodeId v = shards_[s].begin; v < shards_[s].end; ++v) {
      NodeApi api(*this, v);
      nodes_[v]->on_start(api);
      refresh_outgoing(v);
      drop_inbox_if_done(v);
    }
  });
}

void Network::wake(Shard& sh, NodeId v) {
  std::uint8_t& queued = sh.woken[v - sh.begin];
  if (!queued && done_[v] == 0) {
    queued = 1;
    sh.wake_list.push_back(v);
  }
}

void Network::drop_inbox_if_done(NodeId v) {
  if (done_[v] != 0) states_[v].inbox.clear();
}

void Network::refresh_outgoing(NodeId v) {
  Shard& sh = shards_[plan_.node_shard[v]];
  for (std::size_t e = edge_base_[v]; e < edge_base_[v + 1]; ++e) {
    if (!link_active_[e] && links_[e].has_pending(sh.link_pool)) {
      link_active_[e] = 1;
      sh.active_links.push_back(static_cast<std::uint32_t>(e));
    }
  }
}

std::uint64_t Network::next_alarm_round() {
  std::uint64_t best = kNoAlarm;
  for (auto& sh : shards_) {
    while (!sh.alarm_buckets.empty()) {
      const auto it = sh.alarm_buckets.begin();
      const std::uint64_t round = it->first;
      auto& entries = it->second;
      std::erase_if(entries, [&](NodeId v) {
        return done_[v] != 0 || states_[v].alarm != round;
      });
      if (!entries.empty()) {
        best = std::min(best, round);
        break;
      }
      if (sh.alarm_memo_round == round) {
        sh.alarm_memo_round = kNoAlarm;
        sh.alarm_memo_bucket = nullptr;
      }
      sh.alarm_buckets.erase(it);
    }
  }
  return best;
}

void Network::collect_due_alarms(Shard& sh) {
  while (!sh.alarm_buckets.empty() &&
         sh.alarm_buckets.begin()->first <= round_) {
    const auto it = sh.alarm_buckets.begin();
    const std::uint64_t round = it->first;
    for (const NodeId v : it->second) {
      auto& st = states_[v];
      if (done_[v] == 0 && st.alarm == round) {
        // One-shot: clear before the callback so a set_alarm inside it
        // re-arms for a future round.
        st.alarm = kNoAlarm;
        wake(sh, v);
      }
    }
    if (sh.alarm_memo_round == round) {
      sh.alarm_memo_round = kNoAlarm;
      sh.alarm_memo_bucket = nullptr;
    }
    sh.alarm_buckets.erase(it);
  }
}

void Network::apply_fault_events() {
  for (auto& sh : shards_) {
    while (!sh.fault_events.empty() &&
           sh.fault_events.begin()->first <= round_) {
      // A popped bucket holds crash and/or recovery events for this round;
      // which one a node fires is determined by its precomputed schedule.
      for (const NodeId v : sh.fault_events.begin()->second) {
        auto& st = states_[v];
        std::uint8_t& done = done_[v];
        NodeApi api(*this, v);
        if (faults_->crash_round(v) == round_) {
          stats_.crash_events += 1;  // nclint:allow(stats-batch) serial round loop, one event per churn entry
          if (done == 0) nodes_[v]->on_crash(api);
          st.alarm = kNoAlarm;  // one-shot alarms are lost in the crash
          if (faults_->recover_round(v) == FaultEngine::kNever && done == 0) {
            // Permanent: done-equivalent, so the execution can terminate
            // without it. The node's output registers keep whatever state
            // the crash froze.
            done = 1;
            ++sh.done_count;
          }
        } else {
          stats_.recover_events += 1;  // nclint:allow(stats-batch) serial round loop, one event per churn entry
          if (done == 0) {
            nodes_[v]->on_recover(api);
            wake(sh, v);  // guarantee an on_round to re-arm alarms
          }
        }
        refresh_outgoing(v);
        drop_inbox_if_done(v);
      }
      sh.fault_events.erase(sh.fault_events.begin());
    }
  }
}

void Network::apply_copies(Shard& dst, TrafficBatch& batch, NodeId to,
                           const MsgBlock::Copy* const* run,
                           std::size_t count) {
  auto& st = states_[to];
  if (count > 1) {
    // A dense round's whole run: a bucket that does not exist yet is
    // created once, sized for its kind's copies, instead of doubling up.
    std::array<std::uint32_t, kMaxMsgKinds> per_kind{};
    std::uint32_t kinds = 0;
    for (std::size_t i = 0; i < count; ++i) {
      ++per_kind[run[i]->kind()];
      kinds |= std::uint32_t{1} << run[i]->kind();
    }
    for (; kinds != 0; kinds &= kinds - 1) {
      const auto kind = static_cast<std::uint16_t>(std::countr_zero(kinds));
      st.inbox.reserve(kind, per_kind[kind]);
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    const MsgBlock::Copy& c = *run[i];
    batch.charge(c.kind(), c.wire_bits(header_bits_));
    st.arrived_kinds |= std::uint32_t{1} << c.kind();
    c.deliver_to(st.inbox.open(c.back_index, c.key()));
  }
  wake(dst, to);
}

void Network::charge_done_copy(Shard& sh, TrafficBatch& batch, NodeId to,
                               std::uint64_t due, std::uint16_t kind,
                               std::uint64_t wire_bits) {
  ++sh.done_copies;
  if (due <= round_) {
    batch.charge(kind, wire_bits);
    return;
  }
  // The due round's settle would silence the copy if the node is crashed
  // then, and charge it otherwise; the crash schedule is fixed, so the
  // verdict is known now.
  InFlight& later = sh.in_flight[due];
  if (faults_ && faults_->crashed_at(to, due)) {
    later.done_dropped_crash += 1;
  } else {
    later.done_charged.charge(kind, wire_bits);
  }
}

void Network::stage_copy(Shard& sh, TrafficBatch& done_batch, const MsgView& v,
                         NodeId to, std::uint32_t back_index,
                         std::uint64_t due) {
  if (done_[to] != 0) {
    charge_done_copy(sh, done_batch, to, due, v.key.kind, v.wire_bits);
  } else if (due <= round_) {
    sh.lanes[plan_.node_shard[to]].push(v, to, back_index);
  } else {
    held_block(sh, due, to).push(v, to, back_index);
  }
}

MsgBlock& Network::held_block(Shard& sh, std::uint64_t due, NodeId to) {
  InFlight& later = sh.in_flight[due];
  if (later.to.empty()) later.to.resize(shards_.size());
  ++sh.held_copies;
  return later.to[plan_.node_shard[to]];
}

std::uint64_t Network::link_verdict(Shard& sh, std::size_t e, NodeId from,
                                    NodeId to, std::uint64_t count,
                                    const MsgView* view,
                                    std::uint32_t back_index) {
  if (faults_ &&
      (faults_->crashed_at(from, round_) || faults_->crashed_at(to, round_))) {
    // Crash silencing is beneath the reliability service: a crashed
    // endpoint neither retransmits nor collects repair chunks.
    sh.traffic.messages_dropped_crash += count;  // nclint:allow(stats-batch) one charge per link verdict, batched over a LOCAL drain's messages
    return kNoArrival;
  }
  const bool lost = faults_ != nullptr && faults_->lose(e, from, to, round_);
  bool first_park = false;
  if (rel_ && rel_->fec() &&
      rel_->fec_on_message(e, from, to, round_, lost, sh.traffic,
                           &first_park)) {
    // The edge has (or this loss opens) an unresolved window: park the
    // message — stream order is only decidable at the window close. The
    // copy's own loss verdict rides along for the resolution. So past this
    // point a lost message is never FEC traffic.
    if (telem_) sh.telem_fec_parks += 1;
    sh.rel_parked.push(*view, to, back_index);
    sh.rel_parked_edge.push_back(e);
    sh.rel_parked_lost.push_back(lost ? 1 : 0);
    if (first_park) sh.rel_pending_edges.push_back(e);
    return kNoArrival;
  }
  std::uint64_t due = round_;
  if (lost) {
    // ARQ resolves the whole exchange in closed form now: the recovery
    // round, if any, is computable at stage time, so the recovered message
    // simply waits for it like a delayed one.
    const std::uint64_t rec =
        rel_ ? rel_->arq_recover(e, from, to, round_, view->key.kind,
                                 view->wire_bits, sh.traffic)
             : ReliabilityEngine::kNever;
    if (rec == ReliabilityEngine::kNever) {
      sh.traffic.messages_lost += count;  // nclint:allow(stats-batch) one charge per link verdict, batched over a LOCAL drain's messages
      return kNoArrival;
    }
    // Recovered copies take the attempt schedule, not the jitter model
    // (the attempt slots dominate); the fault watermark still floors them
    // so they never overtake an earlier jittered delivery.
    due = std::max(rec, faults_->arrival_floor(e));
  } else {
    if (rel_ && rel_->arq()) {
      rel_->arq_account_delivered(e, from, to, round_, view->key.kind,
                                  view->wire_bits, sh.traffic);
    }
    const std::uint64_t delay =
        faults_ ? faults_->delay_of(e, from, to, round_) : 0;
    if (delay > 0) {
      due = round_ + delay;
      sh.traffic.messages_delayed += count;  // nclint:allow(stats-batch) one charge per link verdict
    }
  }
  if (rel_) {
    // The release floor keeps the stream FIFO across FEC window releases
    // and ARQ recoveries: a message staged later may never undercut it.
    due = std::max(due, rel_->floor_of(e));
    rel_->raise_floor(e, due);
  }
  return due;
}

void Network::resolve_fec_windows(Shard& sh, TrafficBatch& done_batch) {
  // Split the pending edges into due (window closed before this round) and
  // still-open. Resolution order is ascending edge for cleanliness, but the
  // draws are keyed on (window, edge, chunk), so order cannot matter.
  std::vector<std::size_t> due;
  std::size_t kept_pending = 0;
  for (const std::size_t e : sh.rel_pending_edges) {
    if (rel_->fec_due(e, round_)) {
      due.push_back(e);
    } else {
      sh.rel_pending_edges[kept_pending++] = e;
    }
  }
  if (due.empty()) return;
  sh.rel_pending_edges.resize(kept_pending);
  std::sort(due.begin(), due.end());
  const auto due_index = [&](std::size_t e) -> std::size_t {
    const auto it = std::lower_bound(due.begin(), due.end(), e);
    if (it == due.end() || *it != e) {
      return std::numeric_limits<std::size_t>::max();
    }
    return static_cast<std::size_t>(it - due.begin());
  };
  // Pass 1: per-due-edge loss counts from the parked copies.
  std::vector<std::uint64_t> losses(due.size(), 0);
  for (std::size_t i = 0; i < sh.rel_parked_edge.size(); ++i) {
    if (sh.rel_parked_lost[i] != 0) {
      const std::size_t j = due_index(sh.rel_parked_edge[i]);
      if (j != std::numeric_limits<std::size_t>::max()) losses[j] += 1;
    }
  }
  // Pass 2: resolve each due window — repair survivals, recovery verdict,
  // release round (floored against both FIFO watermarks) — and raise the
  // edge's floor so post-release traffic stays behind the released stream.
  std::vector<std::uint8_t> recovered(due.size(), 0);
  std::vector<std::uint64_t> release(due.size(), 0);
  for (std::size_t j = 0; j < due.size(); ++j) {
    const std::size_t e = due[j];
    const NodeId from = edge_owner_[e];
    const NodeId to = graph_->neighbors(from)[e - edge_base_[from]];
    recovered[j] =
        rel_->fec_resolve(e, from, to, losses[j], sh.traffic) ? 1 : 0;
    std::uint64_t rr = std::max(round_, rel_->floor_of(e));
    if (faults_) rr = std::max(rr, faults_->arrival_floor(e));
    release[j] = rr;
    rel_->raise_floor(e, rr);
  }
  // Pass 3: walk the parked copies in park (= stream) order. Copies of due
  // edges are released into the in-flight bucket of the edge's release
  // round — this round's too — or dropped for good if they were lost and
  // the window did not recover, while copies of still-blocked edges are
  // compacted into a rebuilt hold. The link walk has not run yet, so a
  // released copy sits ahead of the round's fresh traffic on its stream. A
  // copy released for this round whose destination is crashed now is
  // silenced here, and one for a done destination is accounted for like
  // any staged copy, so every released copy is counted as staged exactly
  // when it would have been delivered.
  MsgBlock keep;
  std::vector<std::size_t> keep_edge;
  std::vector<std::uint8_t> keep_lost;
  for (std::size_t i = 0; i < sh.rel_parked.size(); ++i) {
    const MsgBlock::Copy& c = sh.rel_parked[i];
    const std::size_t e = sh.rel_parked_edge[i];
    const std::size_t j = due_index(e);
    if (j == std::numeric_limits<std::size_t>::max()) {
      keep.append(c);
      keep_edge.push_back(e);
      keep_lost.push_back(sh.rel_parked_lost[i]);
      continue;
    }
    if (sh.rel_parked_lost[i] != 0 && recovered[j] == 0) {
      sh.traffic.messages_lost += 1;  // nclint:allow(stats-batch) FEC resolution is a cold once-per-window path
      continue;
    }
    if (release[j] <= round_ && faults_ && faults_->crashed_at(c.to, round_)) {
      sh.traffic.messages_dropped_crash += 1;  // nclint:allow(stats-batch) FEC resolution is a cold once-per-window path
      continue;
    }
    if (done_[c.to] != 0) {
      charge_done_copy(sh, done_batch, c.to, release[j], c.kind(),
                       c.wire_bits(header_bits_));
      continue;
    }
    held_block(sh, release[j], c.to).append(c);
  }
  sh.rel_parked = std::move(keep);
  sh.rel_parked_edge = std::move(keep_edge);
  sh.rel_parked_lost = std::move(keep_lost);
}

void Network::size_lanes(Shard& sh) {
  const unsigned k = static_cast<unsigned>(shards_.size());
  std::size_t* want = sh.arena.allocate_array<std::size_t>(k);
  std::fill_n(want, k, std::size_t{0});
  const bool local = config_.mode == NetConfig::Mode::kLocal;
  for (const std::uint32_t e : sh.active_links) {
    const NodeId from = edge_owner_[e];
    const NodeId to = graph_->neighbors(from)[e - edge_base_[from]];
    if (done_[to] != 0) continue;
    want[plan_.node_shard[to]] +=
        local ? links_[e].pending_stream_count(sh.link_pool) : 1;
  }
  for (unsigned d = 0; d < k; ++d) sh.lanes[d].start_round(want[d]);
}

void Network::settle_due(Shard& sh, TrafficBatch& done_batch) {
  if (sh.in_flight.empty()) return;
  nc_invariant(sh.in_flight.begin()->first >= round_,
               "an in-flight bucket outlived its due round");
  if (sh.in_flight.begin()->first != round_) return;
  InFlight& now = sh.in_flight.begin()->second;
  now.done_charged.flush_into(sh.traffic);
  std::uint64_t silenced = now.done_dropped_crash;
  // A copy waits with the verdicts of its stage round; what happened to
  // its destination since is decided here, as its arrival would: a crashed
  // host silences it, and a done one is charged but stores nothing.
  for (MsgBlock& block : now.to) {
    block.retain([&](const MsgBlock::Copy& c) {
      if (faults_ && faults_->crashed_at(c.to, round_)) {
        ++silenced;
        return false;
      }
      if (done_[c.to] != 0) {
        done_batch.charge(c.kind(), c.wire_bits(header_bits_));
        return false;
      }
      return true;
    });
  }
  sh.traffic.messages_dropped_crash += silenced;  // nclint:allow(stats-batch) once per settled bucket
}

void Network::stage_shard(unsigned s) {
  Shard& sh = shards_[s];
  using clock = std::chrono::steady_clock;
  const bool trace_shard = telem_ && telem_->trace_on() && shards_.size() > 1;
  clock::time_point tt0;
  if (trace_shard) tt0 = clock::now();
  // O(1) rewind of the whole previous round's transient storage, then size
  // every lane for this round before anything is staged into it.
  sh.arena.reset();
  size_lanes(sh);
  // Charges of copies to done destinations that arrive now
  // (charge_done_copy, settle_due), flushed into the traffic partial at the
  // end of the phase.
  TrafficBatch done_batch;
  const std::uint64_t done_before = sh.done_copies;
  const std::uint64_t held_before = sh.held_copies;
  // FEC window resolution first: released copies join the in-flight
  // buckets ahead of this round's fresh traffic (they are stream-earlier by
  // construction), and a blocked edge is unblocked before any new message
  // on it could be staged into a later window. Then the bucket due now is
  // settled, before anything else can join it.
  if (rel_ && rel_->fec() && !sh.rel_pending_edges.empty()) {
    resolve_fec_windows(sh, done_batch);
  }
  settle_due(sh, done_batch);
  // Ascending (owner, neighbour-index) order within the shard; shards are
  // contiguous ID ranges, so concatenating the shards' sorted sets in shard
  // order reproduces the historical global-scan delivery order exactly —
  // the invariant the determinism guarantee rests on. Steady-state rounds
  // keep the previous round's already-sorted prefix, so check first.
  if (!std::is_sorted(sh.active_links.begin(), sh.active_links.end())) {
    std::sort(sh.active_links.begin(), sh.active_links.end());
  }
  std::size_t kept = 0;
  // CONGEST view reuse: active links are walked in ascending (owner,
  // neighbour-index) order, so the sibling links of one open_stream_all are
  // consecutive. A link of the same owner whose next message is
  // byte-identical to the previous link's view (Link::schedule_matches)
  // takes that view without re-running the packing loop. Every copy still
  // gets its own per-edge verdict and its own record; stage_copy sends it
  // to its lane, to an in-flight bucket, or, when its destination is
  // already done, to charge_done_copy.
  MsgView view;
  NodeId view_from = 0;
  bool view_live = false;
  const bool adversity = faults_ != nullptr || rel_ != nullptr;
  for (const std::uint32_t e : sh.active_links) {
    const NodeId from = edge_owner_[e];
    const std::size_t ni = e - edge_base_[from];
    Link& link = links_[e];
    const NodeId to = graph_->neighbors(from)[ni];
    const std::uint32_t back = reverse_index_[e];
    if (config_.mode == NetConfig::Mode::kLocal) {
      // One channel decision covers the whole drained batch; the count is
      // known up front (one message per pending stream). A dropped batch
      // still advances the streams — the traffic was sent, then lost.
      // Reliability is CONGEST-only (rel_ is null here by construction),
      // so the verdict is the fault decision.
      const std::size_t count = link.pending_stream_count(sh.link_pool);
      const std::uint64_t due =
          faults_ && count > 0
              ? link_verdict(sh, e, from, to, count, nullptr, back)
              : round_;
      const std::size_t produced =
          link.drain_views(sh.link_pool, header_bits_, [&](const MsgView& v) {
            if (due != kNoArrival) stage_copy(sh, done_batch, v, to, back, due);
          });
      if (produced > 0) link.release_idle(sh.link_pool);
    } else {
      if (!(view_live && from == view_from &&
            link.schedule_matches(sh.link_pool, view))) {
        view_live = link.schedule_view(sh.link_pool, bandwidth_bits_,
                                       header_bits_, view);
        view_from = from;
      }
      if (view_live) {
        const std::uint64_t due =
            adversity ? link_verdict(sh, e, from, to, 1, &view, back) : round_;
        if (due != kNoArrival) stage_copy(sh, done_batch, view, to, back, due);
        link.release_idle(sh.link_pool);
      }
    }
    if (link.has_pending(sh.link_pool)) {
      sh.active_links[kept++] = e;
    } else {
      link_active_[e] = 0;
    }
  }
  sh.active_links.resize(kept);
  if (done_batch.messages > 0) done_batch.flush_into(sh.traffic);
  // Observer epilogue: the round's staged copies — its lanes plus the
  // copies it put into in-flight buckets (released FEC copies included) —
  // feed the profile's lane peak; with the copies accounted for at stage
  // time added, they feed the metrics' per-shard load-balance columns; the
  // copies waiting in the buckets feed the profile's delayed peak; the
  // span feeds the trace.
  const bool profiling = config_.profile != nullptr;
  const bool metrics = telem_ && telem_->metrics_on();
  if (profiling || metrics) {
    std::uint64_t staged = sh.held_copies - held_before;
    for (const auto& lane : sh.lanes) staged += lane.size();
    sh.staged_peak = std::max(sh.staged_peak, staged);
    if (metrics) sh.telem_staged += staged + (sh.done_copies - done_before);
  }
  if (profiling) {
    std::uint64_t waiting = 0;
    for (const auto& [due, later] : sh.in_flight) {
      for (const MsgBlock& block : later.to) waiting += block.size();
    }
    sh.delayed_peak = std::max(sh.delayed_peak, waiting);
  }
  if (trace_shard) {
    const auto tt1 = clock::now();
    sh.telem_spans.push_back(Telemetry::Span{
        "stage", s + 1, round_, span_ts_us(telem_epoch_ns_, tt0),
        span_dur_us(tt0, tt1)});
  }
}

template <typename Fn>
void Network::for_each_arrival(unsigned d, Fn&& fn) const {
  // Per source shard, in ascending order: the copies that waited for this
  // round, in the order they were held (by stage round, then staging order
  // — a thread-count-invariant sequence), then this round's lane. A stream
  // has one source, so its held copies, stream-earlier by construction,
  // arrive ahead of its on-time ones. Touching the source shard's bucket
  // and lane from shard d is safe: in the deliver phase they are only read
  // (the pool barrier separates them from the stage phase's writes).
  const auto walk = [&](const MsgBlock& block) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      const MsgBlock::Copy& c = block[i];
      nc_invariant(plan_.node_shard[c.to] == d,
                   "staged copy routed to a shard that does not own its "
                   "destination node");
      nc_invariant(done_[c.to] == 0 &&
                       !(faults_ && faults_->crashed_at(c.to, round_)),
                   "arriving copy addressed to a done or crashed node — the "
                   "stage phase accounts for those itself");
      fn(c);
    }
  };
  for (const Shard& src : shards_) {
    if (const MsgBlock* held = held_due(src, d)) walk(*held);
    walk(src.lanes[d]);
  }
}

const MsgBlock* Network::held_due(const Shard& src, unsigned d) const {
  const auto now = src.in_flight.find(round_);
  if (now == src.in_flight.end() || now->second.to.empty()) return nullptr;
  return &now->second.to[d];
}

void Network::deliver_shard(unsigned d) {
  Shard& dst = shards_[d];
  using clock = std::chrono::steady_clock;
  const bool trace_shard = telem_ && telem_->trace_on() && shards_.size() > 1;
  clock::time_point tt0;
  if (trace_shard) tt0 = clock::now();
  std::size_t copies = 0;
  for (const Shard& src : shards_) {
    const MsgBlock* held = held_due(src, d);
    copies += src.lanes[d].size() + (held != nullptr ? held->size() : 0);
  }
  TrafficBatch batch;
  const std::size_t span = static_cast<std::size_t>(dst.end - dst.begin);
  // A round with at least span/8 copies (the wake phase's rule) is sorted
  // by destination — a counting sort: count each node's copies, scatter
  // references to the copies into a per-round log in walk order (stable,
  // so each node's run keeps the canonical order), then apply node by node
  // in ascending ID order. A node's inbox bucket, key and stream
  // slots are then fetched once per round instead of once per copy. Both
  // arrays live in this shard's arena until its next stage phase; the
  // copies themselves stay where they were staged — the lanes and the
  // source shards' in-flight buckets, which live at least as long. A
  // sparser round is applied in walk order, so it costs O(copies), not
  // O(span) — and so is a round whose walk already keeps every node's
  // copies together (a ring's one copy per node), where the log would only
  // add a pass.
  std::uint32_t* next = nullptr;
  if (copies * 8 >= span) {
    nc_invariant(copies < (std::size_t{1} << 32),
                 "a round's copies to one shard must fit a 32-bit offset");
    next = dst.arena.allocate_array<std::uint32_t>(span + 1);
    std::fill_n(next, span + 1, 0u);
    bool grouped = true;
    NodeId last = kNoNode;
    for_each_arrival(d, [&](const MsgBlock::Copy& c) {
      std::uint32_t& count = next[c.to - dst.begin + 1];
      grouped = grouped && (count == 0 || c.to == last);
      ++count;
      last = c.to;
    });
    if (grouped) next = nullptr;
  }
  if (next == nullptr) {
    for_each_arrival(d, [&](const MsgBlock::Copy& c) {
      const MsgBlock::Copy* one = &c;
      apply_copies(dst, batch, c.to, &one, 1);
    });
  } else {
    for (std::size_t v = 1; v <= span; ++v) next[v] += next[v - 1];
    const MsgBlock::Copy** log =
        dst.arena.allocate_array<const MsgBlock::Copy*>(next[span]);
    for_each_arrival(d, [&](const MsgBlock::Copy& c) {
      log[next[c.to - dst.begin]++] = &c;
    });
    // next[v] is now the end of node v's run, and so the start of v + 1's.
    std::uint32_t lo = 0;
    for (std::size_t v = 0; v < span; ++v) {
      if (next[v] > lo) {
        apply_copies(dst, batch, dst.begin + static_cast<NodeId>(v), log + lo,
                     next[v] - lo);
      }
      lo = next[v];
    }
  }
  batch.flush_into(dst.traffic);
  if (trace_shard) {
    const auto tt1 = clock::now();
    dst.telem_spans.push_back(Telemetry::Span{
        "deliver", d + 1, round_, span_ts_us(telem_epoch_ns_, tt0),
        span_dur_us(tt0, tt1)});
  }
}

void Network::wake_shard(unsigned s) {
  Shard& sh = shards_[s];
  using clock = std::chrono::steady_clock;
  const bool trace_shard = telem_ && telem_->trace_on() && shards_.size() > 1;
  clock::time_point tt0;
  if (trace_shard) tt0 = clock::now();
  collect_due_alarms(sh);
  if (trace_shard) {
    const auto tt1 = clock::now();
    sh.telem_spans.push_back(Telemetry::Span{
        "alarm", s + 1, round_, span_ts_us(telem_epoch_ns_, tt0),
        span_dur_us(tt0, tt1)});
  }
  const std::size_t span = static_cast<std::size_t>(sh.end - sh.begin);
  if (sh.wake_list.size() * 8 >= span) {
    // Dense round (most protocol rounds wake most nodes): rebuild the ID
    // order with one linear scan of the contiguous woken bitmap instead of
    // sorting the arrival-order list — O(span) sequential bytes beats
    // O(w log w) random-order comparisons well before w reaches span/8.
    sh.wake_list.clear();
    for (std::size_t i = 0; i < span; ++i) {
      if (sh.woken[i]) sh.wake_list.push_back(sh.begin + static_cast<NodeId>(i));
    }
  } else if (!std::is_sorted(sh.wake_list.begin(), sh.wake_list.end())) {
    std::sort(sh.wake_list.begin(), sh.wake_list.end());
  }
  // Both rebuild paths above must yield the same thing: the woken nodes in
  // ascending ID order. Protocol callbacks observe this order directly.
  nc_invariant(std::is_sorted(sh.wake_list.begin(), sh.wake_list.end()),
               "wake phase must run nodes in ascending ID order");
  if (telem_) sh.telem_wakeups += sh.wake_list.size();
  for (const NodeId v : sh.wake_list) {
    sh.woken[v - sh.begin] = 0;
    if (done_[v] != 0) continue;
    NodeApi api(*this, v);
    nodes_[v]->on_round(api);
    states_[v].arrived_kinds = 0;
    refresh_outgoing(v);
    drop_inbox_if_done(v);
  }
  sh.wake_list.clear();
  if (trace_shard) {
    const auto tt1 = clock::now();
    sh.telem_spans.push_back(Telemetry::Span{
        "wake", s + 1, round_, span_ts_us(telem_epoch_ns_, tt0),
        span_dur_us(tt0, tt1)});
  }
}

bool Network::step(bool allow_fast_forward) {
  if (all_done()) return false;
  if (!any_active_links()) {
    // The next thing that can happen: an armed alarm, an in-flight delayed
    // message falling due, or a scheduled churn event. Alarms are one-shot
    // (an alarm at or before the current round already had its wake-up) and
    // the other two sources are strictly future by construction, so an idle
    // network with nothing ahead is stuck.
    std::uint64_t next = std::min(next_alarm_round(), next_delayed_round());
    next = std::min(next, next_fault_event_round());
    next = std::min(next, next_reliability_round());
    if (next == kNoAlarm || next <= round_) {
      stats_.stalled = true;
      stats_.rounds = round_;
      return false;
    }
    if (allow_fast_forward && next > round_ + 1) {
      round_ = next - 1;  // skipped rounds are idle but still counted
    }
  }
  if (round_ >= config_.max_rounds) {
    stats_.hit_round_limit = true;
    stats_.rounds = round_;
    return false;
  }
  ++round_;
  // Churn events fire at the top of their round, before any traffic of the
  // round is staged: a node crashing in round r already silences round r.
  if (faults_) apply_fault_events();
  // Stage, deliver, wake — each phase parallel over shards (inline with one
  // shard) with a barrier in between: stage writes source-shard state and
  // the lanes, deliver reads the lanes and writes destination-shard state.
  // The fault and reliability decision points live in these phases, so they
  // exist exactly once at every shard count.
  using clock = std::chrono::steady_clock;
  const bool prof = config_.profile != nullptr;
  const bool tr = telem_ && telem_->trace_on();
  if (telem_) telem_->begin_round(round_);
  clock::time_point t0;
  if (prof || tr) t0 = clock::now();
  // Books the wall-clock since t0 to one phase — the profile's seconds and
  // the trace's serial track — and restarts the clock. Clock reads exist
  // only on these opt-in paths.
  const auto book = [&](const char* phase, double NetProfile::*seconds) {
    if (!prof && !tr) return;
    const auto t1 = clock::now();
    if (prof) prof_.*seconds += std::chrono::duration<double>(t1 - t0).count();
    if (tr) {
      telem_->add_span(phase, 0, round_, span_ts_us(telem_epoch_ns_, t0),
                       span_dur_us(t0, t1));
    }
    t0 = t1;
  };
  for_each_shard([this](unsigned s) { stage_shard(s); });
  book("stage", &NetProfile::stage_seconds);
  for_each_shard([this](unsigned s) { deliver_shard(s); });
  book("deliver", &NetProfile::deliver_seconds);
  // Serial reduction in shard order: exact (integer sums/maxes), so stats_
  // is bit-identical to serial accumulation at every shard count. Every
  // deliver phase is past, so the in-flight buckets due now are done with.
  for (auto& sh : shards_) {
    sh.in_flight.erase(round_);
    stats_.merge_traffic(sh.traffic);
    sh.traffic = RunStats{};
  }
  // Stall-diagnostics breadcrumb: remember the last round that delivered
  // anything (two integer ops per round — kept unconditional).
  if (stats_.messages != last_delivery_messages_) {
    last_delivery_messages_ = stats_.messages;
    last_delivery_round_ = round_;
  }
  for_each_shard([this](unsigned s) { wake_shard(s); });
  book("wake", &NetProfile::wake_seconds);
  if (telem_) round_telemetry(tr ? span_ts_us(telem_epoch_ns_, t0) : -1.0);
  stats_.rounds = round_;
  return !all_done();
}

void Network::round_telemetry(double ts_us) {
  // Serial end-of-round drain, ascending shard order (the same discipline
  // as the stats reduction above; telemetry sums are u64, so the order is
  // a determinism convention rather than a correctness requirement).
  for (unsigned s = 0; s < shards_.size(); ++s) {
    Shard& sh = shards_[s];
    telem_->note_shard_round(s, sh.telem_wakeups, sh.telem_staged,
                             sh.telem_fec_parks);
    sh.telem_wakeups = 0;
    sh.telem_staged = 0;
    sh.telem_fec_parks = 0;
    for (const auto& sp : sh.telem_spans) {
      telem_->add_span(sp.name, sp.tid, sp.round, sp.ts_us, sp.dur_us);
    }
    sh.telem_spans.clear();
  }
  telem_->end_round(round_, active_link_count(), stats_, ts_us);
}

StallReport Network::stall_report() const {
  StallReport r;
  r.stalled = stats_.stalled;
  r.hit_round_limit = stats_.hit_round_limit;
  r.rounds = stats_.rounds;
  r.last_delivery_round = last_delivery_round_;
  r.nodes_total = n_;
  for (NodeId v = 0; v < n_; ++v) {
    const auto& st = states_[v];
    if (done_[v] != 0) ++r.nodes_done;
    if (st.alarm != kNoAlarm) {
      ++r.armed_alarms;
      r.next_alarm_round = std::min(r.next_alarm_round, st.alarm);
    }
    if (faults_ && faults_->crashed_at(v, round_)) ++r.nodes_crashed;
  }
  for (const auto& sh : shards_) {
    for (const auto& [due, later] : sh.in_flight) {
      r.delayed_in_flight +=
          later.done_charged.messages + later.done_dropped_crash;
      for (const MsgBlock& b : later.to) r.delayed_in_flight += b.size();
      r.next_delayed_round = std::min(r.next_delayed_round, due);
    }
    r.fec_parked += sh.rel_parked.size();
    r.fec_pending_edges += sh.rel_pending_edges.size();
    r.active_links += sh.active_links.size();
  }
  return r;
}

void Network::flush_profile() {
  if (config_.profile == nullptr) return;
  prof_.arena_bytes_total = 0;
  prof_.arena_bytes_peak_shard = 0;
  prof_.lane_msgs_peak = 0;
  prof_.delayed_msgs_peak = 0;
  prof_.done_copies = 0;
  prof_.inbox_bytes_carved = 0;
  prof_.inbox_bytes_live = 0;
  prof_.link_bytes_carved = 0;
  prof_.link_bytes_live = 0;
  for (const auto& sh : shards_) {
    const auto hw = static_cast<std::uint64_t>(sh.arena.high_water_bytes());
    prof_.arena_bytes_total += hw;
    prof_.arena_bytes_peak_shard = std::max(prof_.arena_bytes_peak_shard, hw);
    prof_.lane_msgs_peak = std::max(prof_.lane_msgs_peak, sh.staged_peak);
    prof_.delayed_msgs_peak = std::max(prof_.delayed_msgs_peak, sh.delayed_peak);
    prof_.done_copies += sh.done_copies;
    prof_.inbox_bytes_carved += sh.inbox_pool.carved_bytes();
    prof_.inbox_bytes_live += sh.inbox_pool.live_bytes();
    prof_.link_bytes_carved += sh.link_pool.carved_bytes();
    prof_.link_bytes_live += sh.link_pool.live_bytes();
  }
  // Cumulative over the network's lifetime: repeated run_rounds() calls
  // overwrite the destination with ever-growing totals.
  *config_.profile = prof_;
}

void Network::flush_telemetry() {
  if (!telem_) return;
  telem_->flush(stats_, n_, shards_.size(), config_.seed);
}

RunStats Network::run() {
  while (step(/*allow_fast_forward=*/true)) {
  }
  flush_profile();
  flush_telemetry();
  return stats_;
}

bool Network::run_rounds(std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    if (!step(/*allow_fast_forward=*/false)) break;
  }
  flush_profile();
  flush_telemetry();
  return all_done();
}

}  // namespace nc
