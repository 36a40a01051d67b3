#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/accounting.hpp"
#include "runtime/faults.hpp"
#include "runtime/inbox.hpp"
#include "runtime/link.hpp"
#include "runtime/msgblock.hpp"
#include "runtime/reliability.hpp"
#include "runtime/shard.hpp"
#include "runtime/stream.hpp"
#include "runtime/telemetry.hpp"
#include "util/arena.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace nc {

class Network;
class NodeApi;

/// A processor in the synchronous message-passing model of Section 2.
///
/// `on_start` runs once before round 1 (local initialization; any messages
/// enqueued are delivered in round 1). `on_round` runs in every executed
/// round in which the node is *woken*: a delivery arrived for it in that
/// round, or an alarm it set (NodeApi::set_alarm) fired. Quiet rounds cost a
/// node nothing — the simulator is event-driven — so a node that wants to be
/// polled on a specific round must arm an alarm for it. A node signals
/// completion via NodeApi::set_done(); until then `on_round` keeps being
/// invoked on wake-ups. A done node is never woken again: its inbox is
/// dropped, and deliveries to it are charged to RunStats and discarded.
class INode {
 public:
  virtual ~INode() = default;
  virtual void on_start(NodeApi& api) = 0;
  virtual void on_round(NodeApi& api) = 0;

  /// Churn hooks (NetConfig::faults; see src/runtime/faults.hpp). The
  /// runtime fires on_crash at the start of the node's crash round —
  /// before any delivery of that round — and on_recover at the start of
  /// its recovery round, after which the node is woken normally. While
  /// crashed the node is never woken, its alarms are cancelled (one-shot,
  /// so they are simply lost), and every message *scheduled* on its links
  /// during the window — in either direction — is silently dropped; a
  /// message addressed to it that falls due mid-window is dropped on
  /// arrival. One asymmetry, deliberately the physical semantics: a
  /// delayed message already in flight when its *sender* crashes is still
  /// delivered — it left the node before the crash. Local state survives
  /// the window; a protocol that wants crash-restart semantics resets
  /// itself in on_recover. Defaults are no-ops so existing nodes are
  /// unaffected.
  virtual void on_crash(NodeApi& api) { (void)api; }
  virtual void on_recover(NodeApi& api) { (void)api; }
};

/// Execution model: CONGEST (B = bandwidth_factor * ceil(log2(n+1)) bits per
/// edge per direction per round) or LOCAL (unbounded messages, one per edge
/// per round) as defined in [20].
struct NetConfig {
  enum class Mode { kCongest, kLocal };
  Mode mode = Mode::kCongest;
  unsigned bandwidth_factor = 8;
  std::uint64_t max_rounds = 1'000'000;
  std::uint64_t seed = 1;

  /// Delivery/wake parallelism: the nodes are partitioned into this many
  /// CSR-contiguous shards, each owning its active links, alarm buckets and
  /// wake list, and the per-round phases run on a fixed pool of this many
  /// threads. Fixed-seed executions are bit-identical at every value (the
  /// deliver phase merges staged messages in shard order, which equals the
  /// one-shard delivery order); 0 and 1 both mean one shard, run inline
  /// without a pool. Clamped to [1, kMaxShards].
  unsigned threads = 1;

  /// Injected adversity: message loss, link delay and node churn
  /// (src/runtime/faults.hpp). The default plan is fault-free and costs
  /// the hot path nothing. Fault decisions are keyed hashes of
  /// (fault seed, round, src, dst), so a fixed-seed faulty run is
  /// bit-identical at every thread count too.
  FaultPlan faults;

  /// Link-reliability service compensating the fault plan's loss
  /// (src/runtime/reliability.hpp): per-stream ACK + retransmission, or
  /// erasure coding over stream windows. CONGEST only (the control-plane
  /// accounting is defined against the CONGEST slot budget; the Network
  /// constructor throws for LOCAL mode). Off by default and free when off.
  /// Reliability decisions are keyed hashes like fault decisions, so
  /// fixed-seed reliable runs stay bit-identical at every thread count.
  ReliabilityPlan reliability;

  /// Opt-in engine profiling: when non-null, the network accumulates
  /// per-phase wall-clock and arena/lane peaks here over its lifetime
  /// (flushed at the end of run()/run_rounds()). Null — the default —
  /// keeps the hot path free of clock reads and peak bookkeeping.
  NetProfile* profile = nullptr;

  /// Opt-in observability (src/runtime/telemetry.hpp): per-round metric
  /// rows, phase trace spans and the protocol probe API, recorded into
  /// TelemetryPlan::sink. The default plan keeps the engine pointer null,
  /// so every telemetry hook in the hot path is one branch; recording never
  /// feeds back into a simulation decision, so fixed-seed runs are
  /// bit-identical with telemetry on or off at every thread count (locked
  /// by tests/test_telemetry.cpp).
  TelemetryPlan telemetry;
};

/// The per-node view of the runtime: identity, topology (restricted to the
/// node's own neighbourhood, as the model requires), randomness, stream I/O
/// and the done flag. Handed to INode callbacks; never retained. Only the
/// Network constructs one, so everything it reads (find_in,
/// arrived_kinds) is read from inside a callback of its own node.
class NodeApi {
 public:
  /// This node's ID (unique, O(log n) bits).
  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Number of nodes in the network (known to all nodes, per Section 2).
  [[nodiscard]] NodeId n() const noexcept;

  /// Current round (0 during on_start).
  [[nodiscard]] std::uint64_t round() const noexcept;

  /// Sorted IDs of this node's neighbours.
  [[nodiscard]] std::span<const NodeId> neighbors() const;

  /// Degree.
  [[nodiscard]] std::size_t degree() const { return neighbors().size(); }

  /// Index of neighbour `v` in neighbors(), or SIZE_MAX if not adjacent.
  [[nodiscard]] std::size_t neighbor_index(NodeId v) const;

  /// This node's private random stream (derived from the network seed).
  [[nodiscard]] Rng& rng();

  /// Opens an outgoing stream to the given neighbour indices. The returned
  /// channel may be appended to across rounds; close() ends it. The payload
  /// buffer is shared across all listed links (broadcasts store data once).
  /// Throws std::invalid_argument if key.kind is outside [0, kMaxMsgKinds),
  /// key.version outside [0, kMaxStreamVersions) or key.tag outside
  /// [0, 2^id_width(n)) — the wire format's 5-bit kind, 4-bit version and
  /// id_width(n)-bit tag fields cannot carry them, the per-kind counters
  /// would silently alias and the header charge would fall short — and
  /// std::out_of_range if any index is not below degree(). Every check runs
  /// before any link is touched, so a throwing call attaches nothing.
  OutChannel open_stream(const StreamKey& key,
                         std::span<const std::size_t> neighbor_indices);

  /// Opens an outgoing stream to every neighbour.
  OutChannel open_stream_all(const StreamKey& key);

  /// Opens an outgoing stream to a single neighbour.
  OutChannel open_stream_one(const StreamKey& key, std::size_t neighbor_index);

  /// Incoming stream from neighbour index `ni` with the given key, or
  /// nullptr if nothing with that key has arrived yet (or since it was
  /// retired). The pointer is valid only for the duration of the current
  /// callback: the inbox stores streams in contiguous per-kind buckets, so
  /// the arrival of a new stream may relocate existing ones. Re-fetch each
  /// round instead of caching. A retire_in of the same kind invalidates it
  /// at once; set_done does not — the inbox is dropped only after the
  /// callback returns.
  [[nodiscard]] InStream* find_in(std::size_t ni, const StreamKey& key);

  /// Invokes `fn(ni, key, stream)` for every incoming stream of `kind`, in
  /// ascending (ni, key) order. `fn` is any callable — the visitor is a
  /// template, so the hot path pays no std::function indirection. The
  /// stream references share find_in's lifetime rule: valid only within
  /// the current callback, and until a retire_in of the same kind — which
  /// `fn` itself must therefore not call.
  template <typename Fn>
  void for_each_in(std::uint16_t kind, Fn&& fn);

  /// Drops every neighbour's incoming stream under `key` and frees its
  /// inbox storage. Call it once the stage reading `key` has consumed all
  /// of those streams: afterwards find_in returns nullptr for the key, and
  /// a later delivery under it opens a fresh, empty stream. Invalidates
  /// every find_in pointer and for_each_in reference of key.kind; must not
  /// be called from inside a for_each_in visitor of that kind.
  void retire_in(const StreamKey& key);

  /// The kinds delivered to this node since its previous callback: bit k
  /// is set iff a message of kind k arrived (the deliver phase sets it),
  /// and the mask is cleared once on_round returns. Protocol code uses it
  /// to skip inbox scans on rounds where nothing of a kind arrived. It is
  /// 0 in on_start, the churn hooks and an alarm-only wake; a done or
  /// crashed node receives nothing, so no copy to one sets a bit.
  [[nodiscard]] std::uint32_t arrived_kinds() const noexcept;

  /// Registers (or looks up) a named telemetry probe of counter kind
  /// (sampled as its cumulative total). Returns kNoProbe — and probe_add
  /// becomes a no-op — when probes are off (NetConfig::telemetry), so
  /// instrumented protocols run unchanged without telemetry. Probe traffic
  /// is charged no wire bits and never perturbs RunStats. Typically called
  /// once from on_start; names are shared network-wide (every node adding
  /// to "proto.x" feeds one series).
  [[nodiscard]] std::uint32_t probe_counter(const char* name);

  /// Same as probe_counter but gauge kind: sampled as the sum of the
  /// probe_add deltas within each sampling window.
  [[nodiscard]] std::uint32_t probe_gauge(const char* name);

  /// Charges `delta` to a probe from this node (no-op on kNoProbe). Safe
  /// from any INode callback; per-shard accumulators keep it wait-free.
  void probe_add(std::uint32_t probe, std::uint64_t delta);

  /// Sentinel handle returned when probes are off.
  static constexpr std::uint32_t kNoProbe = TelemetryEngine::kNoProbe;

  /// Requests a wake-up: the node is idle until the given (absolute) round.
  /// This is how protocol code waits on the synchronous round counter (the
  /// only global signal in the model — Section 4.1's deterministic time
  /// bounds are defined in terms of it). The simulator may fast-forward
  /// through rounds where no node has traffic and all waiters' alarms are in
  /// the future; skipped rounds still count toward round complexity.
  void set_alarm(std::uint64_t round);

  /// Marks this node finished. A done node is never woken again, so once
  /// the current callback returns the runtime drops its whole inbox (every
  /// find_in pointer and for_each_in reference dies with it). Later
  /// deliveries to it are charged to RunStats, but neither stored nor
  /// marked in arrived_kinds; a copy staged for it from the next round on never
  /// leaves its sender's shard (Network::charge_done_copy). Within the
  /// callback the inbox stays readable.
  void set_done();

 private:
  friend class Network;
  NodeApi(Network& net, NodeId id) : net_(&net), id_(id) {}

  Network* net_;
  NodeId id_;
};

/// Synchronous network simulator, event-driven and shard-parallel.
///
/// Executes rounds: (1) every directed edge with pending traffic delivers at
/// most one message of at most B bits (CONGEST) or drains completely
/// (LOCAL); (2) every node woken in this round — by a delivery or by its
/// alarm — runs on_round, in ID order. Idle links and sleeping nodes cost
/// nothing: the simulator tracks an active set of links with pending traffic
/// and a bucketed alarm queue, so per-round work is proportional to actual
/// traffic, not to n + m, and fast-forwarding over an idle stretch is O(1).
///
/// The nodes are partitioned into NetConfig::threads = k CSR-contiguous
/// shards and every round runs one deterministic pipeline: a *stage* phase
/// where each source shard schedules its active links into per-(src-shard
/// → dst-shard) lanes, a *deliver* phase where each destination shard
/// merges its incoming lanes in ascending source-shard order and applies
/// them to its nodes' inboxes, then a *wake* phase that runs each shard's
/// woken nodes in ID order. With k > 1 every phase runs on a fixed thread
/// pool; with k = 1 it runs inline, through the same lanes. Because shards
/// are contiguous ID ranges, the merge order equals the global
/// ascending-edge delivery order at every k, so fixed-seed executions are
/// bit-identical at every thread count (locked by
/// tests/test_determinism.cpp).
///
/// With NetConfig::faults or NetConfig::reliability active the stage phase
/// additionally decides every scheduled message's fate — crash silencing,
/// loss, FEC parking, ARQ recovery, delay — and a copy due in a later round
/// waits at its sending shard, in an in-flight bucket for that round, which
/// the deliver phase of the due round reads ahead of that shard's lanes, so
/// every stream stays FIFO. Fault decisions are keyed hashes of (fault
/// seed, round, src, dst), never draws tied to iteration order, so faulty
/// fixed-seed executions remain bit-identical at every thread count. Node
/// churn fires the INode::on_crash / on_recover hooks at the boundary
/// rounds; a permanently crashed node counts as done so the execution can
/// still terminate.
///
/// Execution stops when every node is done, when max_rounds is hit (sets
/// RunStats::hit_round_limit — the deterministic time-bound wrapper of
/// Section 4.1), or when no traffic is pending (including in-flight delayed
/// messages), no alarm is set and no churn event is scheduled in the future
/// (sets RunStats::stalled; a liveness guard that protocol bugs and
/// fault-injection tests exercise).
class Network {
 public:
  /// Builds a network over communication graph `g`. `factory(v)` constructs
  /// the protocol instance for node v. Throws std::invalid_argument if a
  /// node has degree >= 2^28, the most a packed inbox key can index.
  Network(const Graph& g, const NetConfig& config,
          const std::function<std::unique_ptr<INode>(NodeId)>& factory);

  /// Runs to completion and returns traffic statistics.
  RunStats run();

  /// Runs at most `rounds` additional rounds without fast-forwarding (for
  /// step-by-step tests and the Section 6 indistinguishability experiment).
  /// Returns true if the network finished within them.
  bool run_rounds(std::uint64_t rounds);

  /// Statistics so far.
  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }

  /// Access to a protocol node (post-run inspection by drivers and tests).
  [[nodiscard]] INode& node(NodeId v) { return *nodes_[v]; }

  /// The communication graph.
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// Bandwidth per edge per direction per round, in bits (SIZE_MAX in LOCAL
  /// mode).
  [[nodiscard]] std::size_t bandwidth_bits() const noexcept {
    return bandwidth_bits_;
  }

  /// True when every node has set_done().
  [[nodiscard]] bool all_done() const noexcept {
    NodeId done = 0;
    for (const auto& sh : shards_) done += sh.done_count;
    return done == n_;
  }

  /// Links with pending traffic right now (introspection for tests/benches).
  [[nodiscard]] std::size_t active_link_count() const noexcept {
    std::size_t total = 0;
    for (const auto& sh : shards_) total += sh.active_links.size();
    return total;
  }

  /// Number of shards (== resolved thread count).
  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  /// Post-mortem of the termination guards: where progress last happened
  /// and what was still pending (armed alarms, in-flight delayed traffic,
  /// FEC horizons). Available with telemetry off — it reads state the
  /// engine keeps anyway — and cheap (one scan of nodes and shards), so
  /// drivers call it after any aborted run.
  [[nodiscard]] StallReport stall_report() const;

 private:
  friend class NodeApi;
  friend struct NetworkTestPeek;  ///< tests read NodeState between rounds

  // A node's outgoing links are not here: they sit in links_, indexed by
  // directed edge, so a NodeState holds no heap block of its own beyond
  // the inbox's bucket headers.
  struct NodeState {
    Rng rng;
    Inbox inbox;
    std::uint64_t alarm = kNoAlarm;
    std::uint32_t arrived_kinds = 0;  ///< NodeApi::arrived_kinds
    // The done flag lives in the dense done_ array and the "queued in this
    // round's wake list" flag in the owning shard's `woken` bitmap, not
    // here: the stage and wake phases read them for many nodes, and
    // NodeState is far too big to stride for one byte.
  };
  static_assert(kMaxMsgKinds <= 32, "arrived_kinds holds one bit per kind");
  static_assert(sizeof(NodeState) <= 112,
                "NodeState is built for every node; per-kind state belongs "
                "in the arrived_kinds mask");
  static constexpr std::uint64_t kNoAlarm = ~0ULL;

  /// What one shard holds for one due round (Shard::in_flight): the copies,
  /// by destination shard, and what its copies to already-done nodes will
  /// charge then — the arrivals' traffic, and the copies silenced because
  /// the destination is crashed at that round.
  struct InFlight {
    std::vector<MsgBlock> to;  ///< heap-backed; empty or one per shard
    TrafficBatch done_charged;
    std::uint64_t done_dropped_crash = 0;
  };

  /// Everything one shard owns. During the parallel phases a shard's data
  /// is touched only by the worker running that shard (lanes are written by
  /// the source shard in the stage phase and read by the destination shard
  /// in the deliver phase — the pool barrier between phases separates the
  /// two), so no per-shard locking exists anywhere.
  struct Shard {
    NodeId begin = 0;  ///< first owned node
    NodeId end = 0;    ///< one past the last owned node

    /// Directed edges owned by this shard's nodes with pending traffic.
    std::vector<std::size_t> active_links;

    /// round -> armed owned nodes; entries lazily invalidated on re-arm.
    std::map<std::uint64_t, std::vector<NodeId>> alarm_buckets;  // nclint:allow(ordered-map) sparse round buckets; common case is the memo, map walk is rare

    /// Bucket memo for set_alarm: protocols overwhelmingly re-arm for the
    /// same round their neighbours do, so the common case skips the map
    /// walk. Map values are node-stable, so the pointer survives unrelated
    /// inserts/erases; the erasing paths (collect_due_alarms,
    /// next_alarm_round) clear the memo when they pop its bucket.
    std::uint64_t alarm_memo_round = ~0ULL;
    std::vector<NodeId>* alarm_memo_bucket = nullptr;

    /// Owned nodes to run this round.
    std::vector<NodeId> wake_list;

    /// Per-owned-node "queued in wake_list" flags (index: id - begin). A
    /// contiguous bitmap so dense rounds can rebuild the wake order with a
    /// linear scan instead of sorting (see wake_shard).
    std::vector<std::uint8_t> woken;

    /// Owned nodes that called set_done().
    NodeId done_count = 0;

    /// Cross-round storage of this shard's nodes: the stream lists of their
    /// outgoing links (written by their callbacks, read by this shard's
    /// stage phase) and the bucket columns of their inboxes (written by
    /// this shard's deliver phase, read by their callbacks). The inboxes
    /// point into these and the links_ table holds slot handles of the link
    /// pool, so shards_ is sized once, at construction, and never moves.
    LinkPool link_pool;
    InboxPool inbox_pool;

    /// Per-round transient storage: the lanes' copy records and spilled
    /// payloads, and the deliver phase's per-node counts and sort
    /// references, all carve from this bump arena, which the stage phase
    /// rewinds in O(1) at the top of each round (src/util/arena.hpp).
    Arena arena;

    /// This round's on-time copies, by destination shard: one 24-byte
    /// record per copy (src/runtime/msgblock.hpp), arena-backed and sized
    /// once per round by size_lanes.
    std::vector<MsgBlock> lanes;

    /// Per-round traffic partials, reduced into stats_ after the deliver
    /// phase (in shard order; integer sums/maxes make the reduction exact).
    RunStats traffic;

    /// Copies this shard sent that arrive in a later round (fault delay,
    /// ARQ recovery, FEC release), by due round; only an active fault or
    /// reliability plan fills it. Each bucket is appended to in stage
    /// order, settled at the top of its due round's stage phase (settle_due)
    /// and read in place by the destination shards' deliver phases, ahead
    /// of this shard's lanes; the round's serial reduction drops it. Until
    /// then its copies count as in flight (next_delayed_round,
    /// stall_report). Heap-backed: buckets outlive the per-round arena.
    std::map<std::uint64_t, InFlight> in_flight;  // nclint:allow(ordered-map) cross-round buckets exist only under an active fault or reliability plan, a handful of due rounds at a time

    /// Copies this shard put into in_flight (cumulative; the stage phase's
    /// observer counts take the round's share).
    std::uint64_t held_copies = 0;

    /// Copies this shard charged or tallied at stage time because their
    /// destination was done (cumulative; NetProfile::done_copies).
    std::uint64_t done_copies = 0;

    /// Profiling partials (NetConfig::profile only; zero cost otherwise):
    /// peak messages staged by this shard in one round, and peak copies
    /// waiting in its in_flight buckets.
    std::uint64_t staged_peak = 0;
    std::uint64_t delayed_peak = 0;

    /// Telemetry partials (NetConfig::telemetry only; zero cost otherwise):
    /// per-round on_round invocations, messages staged (copies to done
    /// nodes included) and FEC parks, plus this shard's phase spans of the
    /// round. All shard-thread-owned; drained serially (in shard order) at
    /// the end of each round.
    std::uint64_t telem_wakeups = 0;
    std::uint64_t telem_staged = 0;
    std::uint64_t telem_fec_parks = 0;
    std::vector<Telemetry::Span> telem_spans;

    /// Churn schedule for this shard's nodes: round -> nodes whose crash or
    /// recovery fires then. Precomputed at construction; never stale.
    std::map<std::uint64_t, std::vector<NodeId>> fault_events;  // nclint:allow(ordered-map) churn events are rare and drained between rounds

    /// Reliability service, FEC mode: messages of this shard's edges parked
    /// behind an in-window loss (head-of-line blocking preserves stream
    /// order while the window's recovery is undecided). Heap-backed like
    /// the in-flight buckets — parked copies cross rounds. The parallel
    /// vectors carry each copy's owning directed edge and its own loss
    /// verdict; rel_pending_edges lists the blocked edges awaiting
    /// resolution (appended on first park, drained by resolve_fec_windows).
    MsgBlock rel_parked;
    std::vector<std::size_t> rel_parked_edge;
    std::vector<std::uint8_t> rel_parked_lost;
    std::vector<std::size_t> rel_pending_edges;
  };

  /// Executes one round; returns false when execution must stop.
  bool step(bool allow_fast_forward);

  /// Stage phase: resolves shard s's due FEC windows, settles its in-flight
  /// bucket due now, then schedules its active links, deciding each copy's
  /// fate once (link_verdict, stage_copy), and compacts the active set.
  /// Writes only shard-s-owned state; reads done_ of every node.
  void stage_shard(unsigned s);

  /// Sizes each of shard sh's lanes, once per round and before anything is
  /// staged, for at most the copies the round can put there: one per
  /// active link to a live node in CONGEST (one per pending stream in
  /// LOCAL). Exact in a clean CONGEST round; a lost, parked, held or
  /// silenced copy leaves its record unused.
  void size_lanes(Shard& sh);

  /// Settles shard sh's in-flight bucket due this round, in place: a copy
  /// whose destination is crashed now is silenced, one whose destination
  /// finished while it rode is charged into `done_batch`, and the bucket's
  /// done-node tallies are charged. What is left is read by the deliver
  /// phase as it stands.
  void settle_due(Shard& sh, TrafficBatch& done_batch);

  /// Deliver phase of destination shard d: walks the round's copies in
  /// canonical order (for_each_arrival) and applies them to d's nodes
  /// (inboxes, rx counters, wake list, traffic partials). A round with at
  /// least span/8 copies (span = d's node count) is counting-sorted by
  /// destination through a per-round log in d's arena and applied node by
  /// node in ascending ID order; the scatter into the log is stable, so
  /// each node's run keeps walk order. A sparser round is applied in walk
  /// order, so its cost stays O(copies), and so is a round whose walk
  /// already keeps each node's copies together. Either way each node
  /// receives its copies in canonical order, and nothing observable
  /// depends on which way was taken.
  void deliver_shard(unsigned d);

  /// Wake phase: collects shard s's due alarms, then runs its woken nodes'
  /// on_round in ascending ID order and re-scans their outgoing links.
  void wake_shard(unsigned s);

  /// Runs fn(s) for every shard — on the pool when one exists, inline
  /// otherwise (threads = 1 never pays for synchronization).
  template <typename Fn>
  void for_each_shard(Fn&& fn) {
    if (pool_) {
      pool_->run(static_cast<unsigned>(shards_.size()),
                 std::function<void(unsigned)>(std::forward<Fn>(fn)));
    } else {
      for (unsigned s = 0; s < shards_.size(); ++s) fn(s);
    }
  }

  /// Walks the copies arriving at shard d this round, in canonical order:
  /// for every source shard in ascending order, its in-flight copies due
  /// now (held_due, in hold order), then its lane d (in staging order).
  /// Calls fn(copy) for each and writes nothing, so a counting pass may
  /// walk it too. Every copy is due now and addresses a live, uncrashed
  /// node of d (an nc_invariant): the stage phase accounted for the rest.
  template <typename Fn>
  void for_each_arrival(unsigned d, Fn&& fn) const;
  [[nodiscard]] const MsgBlock* held_due(const Shard& src, unsigned d) const;

  /// Applies `count` copies to node `to` in the given order: each is
  /// charged to `batch` (flushed into the shard's traffic partial once per
  /// phase), sets its kind's bit in arrived_kinds and reaches the inbox,
  /// and the node wakes.
  void apply_copies(Shard& dst, TrafficBatch& batch, NodeId to,
                    const MsgBlock::Copy* const* run, std::size_t count);

  /// One copy, due at `due` (at most the current round = on time), whose
  /// destination `to` is already done, accounted for at stage time by its
  /// source shard instead of being staged: an on-time copy is charged to
  /// `batch` now; a later one is tallied in the shard's in-flight bucket of
  /// its due round, as crash-silenced if `to` is crashed then. Done is
  /// monotone and no callback runs between stage and deliver, so RunStats
  /// and every per-round total come out as if the copy had been delivered.
  void charge_done_copy(Shard& sh, TrafficBatch& batch, NodeId to,
                        std::uint64_t due, std::uint16_t kind,
                        std::uint64_t wire_bits);

  /// Where a copy that survived its channel goes: charged if `to` is done
  /// (charge_done_copy), else into its lane when due now, else into the
  /// in-flight bucket of its due round.
  void stage_copy(Shard& sh, TrafficBatch& done_batch, const MsgView& v,
                  NodeId to, std::uint32_t back_index, std::uint64_t due);

  /// Shard sh's in-flight block for `to`'s shard due at `due` (this round
  /// for an FEC release, else later), counting the copy about to join it.
  MsgBlock& held_block(Shard& sh, std::uint64_t due, NodeId to);

  /// link_verdict's answer for traffic that does not arrive: dropped, or
  /// parked behind an unresolved FEC window.
  static constexpr std::uint64_t kNoArrival = ~0ULL;

  /// Channel verdict for the traffic scheduled on edge e this round
  /// (`count` physical messages: 1 in CONGEST, the drained batch in LOCAL —
  /// one channel decision covers the round): the round it arrives in, or
  /// kNoArrival. One path for every plan: crash silencing, loss, then FEC
  /// parking (`view` joins the shard's hold), ARQ recovery or delay, and
  /// the reliability release floor, charging the source shard's fault and
  /// reliability counters. `view` is null in LOCAL mode, where reliability
  /// cannot be active. Only called when faults_ or rel_ is active.
  std::uint64_t link_verdict(Shard& sh, std::size_t e, NodeId from, NodeId to,
                             std::uint64_t count, const MsgView* view,
                             std::uint32_t back_index);

  /// Resolves every pending FEC window of shard `sh` whose close round has
  /// passed: draws the repair survivals, releases the parked copies (in
  /// park = stream order) into the shard's in-flight bucket of the computed
  /// release round — this round's included — or drops the unrecovered
  /// losses. A copy released for this round to a crashed destination is
  /// silenced, and one to a done destination goes through charge_done_copy
  /// (on-time charges into `done_batch`). Runs at the top of the stage
  /// phase, before any new traffic of the round is staged.
  void resolve_fec_windows(Shard& sh, TrafficBatch& done_batch);

  /// Queues `v` on its owning shard's wake list (no-op if done or queued).
  void wake(Shard& sh, NodeId v);

  /// Re-scans v's outgoing links after one of its callbacks ran, adding any
  /// that now carry traffic to its shard's active set. All stream writes
  /// happen inside the owning node's callbacks, so this is the only place a
  /// link can turn pending.
  void refresh_outgoing(NodeId v);

  /// Called after each of v's callbacks returns: if v is now done, returns
  /// its inbox storage to its shard's pool. Nothing can read it any more —
  /// a done node is never woken — and apply_copies stores nothing for it.
  void drop_inbox_if_done(NodeId v);

  /// True when any shard has a pending link.
  [[nodiscard]] bool any_active_links() const noexcept {
    for (const auto& sh : shards_) {
      if (!sh.active_links.empty()) return true;
    }
    return false;
  }

  /// Smallest future round holding an in-flight bucket, or kNoAlarm — a
  /// copy to a done node tallied for its due round counts. The bucket due
  /// in a round is dropped by that round, so every key is strictly future.
  [[nodiscard]] std::uint64_t next_delayed_round() const noexcept {
    std::uint64_t best = kNoAlarm;
    for (const auto& sh : shards_) {
      if (!sh.in_flight.empty()) {
        best = std::min(best, sh.in_flight.begin()->first);
      }
    }
    return best;
  }

  /// Smallest future round at which a pending FEC window resolves, or
  /// kNoAlarm. Keeps the round loop alive (and fast-forwarding landing on
  /// the resolution round) while parked messages wait on a window close
  /// with no other traffic or alarm pending.
  [[nodiscard]] std::uint64_t next_reliability_round() const noexcept {
    std::uint64_t best = kNoAlarm;
    if (rel_ && rel_->fec()) {
      for (const auto& sh : shards_) {
        for (const std::size_t e : sh.rel_pending_edges) {
          best = std::min(best, rel_->fec_close_round(e));
        }
      }
    }
    return best;
  }

  /// Smallest unprocessed churn-event round, or kNoAlarm. Keeps the round
  /// loop alive (and fast-forwarding correctly) up to crashes/recoveries
  /// even when no traffic or alarm is pending.
  [[nodiscard]] std::uint64_t next_fault_event_round() const noexcept {
    std::uint64_t best = kNoAlarm;
    for (const auto& sh : shards_) {
      if (!sh.fault_events.empty()) {
        best = std::min(best, sh.fault_events.begin()->first);
      }
    }
    return best;
  }

  /// Fires the churn events due this round, in ascending shard (hence
  /// node-ID) order: on_crash / on_recover hooks, alarm cancellation, wake
  /// on recovery, done-accounting for permanent crashes. Serial — churn
  /// events are rare and hook order should be deterministic and documented.
  void apply_fault_events();

  /// Smallest round with a validly armed alarm of a live node, or kNoAlarm.
  /// Lazily discards stale bucket entries (alarms that were overwritten or
  /// whose node finished). O(1) amortized; serial (runs between rounds).
  [[nodiscard]] std::uint64_t next_alarm_round();

  /// Pops shard s's alarm buckets due at or before the current round,
  /// waking the nodes whose alarms are validly armed (one-shot: clears
  /// them).
  void collect_due_alarms(Shard& sh);

  const Graph* graph_;
  NetConfig config_;
  NodeId n_;
  unsigned id_bits_;
  unsigned header_bits_;
  std::size_t bandwidth_bits_;
  std::uint64_t round_ = 0;
  std::vector<std::unique_ptr<INode>> nodes_;
  std::vector<NodeState> states_;

  // Per-node done flags (n bytes), the only record of set_done and of a
  // permanent crash. Written by the node's own callbacks (on_start and the
  // wake phase, on the owning shard's thread) and the serial churn events;
  // read by every shard's stage phase, after the pool barrier, to keep
  // copies to done nodes out of the lanes.
  std::vector<std::uint8_t> done_;

  // One Link per directed edge, indexed like the CSR mirror below (e =
  // edge_base_[v] + ni): v's links are contiguous and each draws its stream
  // lists from the pool of v's shard, which every caller passes in.
  std::vector<Link> links_;

  // CSR mirror of the communication graph's directed edges. Edge
  // e = edge_base_[v] + ni is v's ni-th outgoing link; reverse_index_[e] is
  // the index of v in the *target's* adjacency list, precomputed so a
  // delivery does no binary search; edge_owner_[e] recovers v from e.
  std::vector<std::size_t> edge_base_;     // n+1 offsets
  std::vector<NodeId> edge_owner_;         // 2m
  std::vector<std::uint32_t> reverse_index_;  // 2m; degree < 2^28

  // Shared iota [0, max_degree) so open_stream_all needs no allocation.
  std::vector<std::size_t> iota_;

  // Membership flags for the per-shard active sets (2m; an edge is only
  // ever touched by its owner's shard).
  std::vector<std::uint8_t> link_active_;

  // The shard partition (contiguous node ranges balanced by degree), the
  // shards themselves, and the fixed pool (absent when threads = 1).
  ShardPlan plan_;
  std::vector<Shard> shards_;
  std::unique_ptr<ShardPool> pool_;

  // Fault engine (null for the default fault-free plan). Its loss/delay/
  // churn decision points sit in the stage and deliver phases.
  std::unique_ptr<FaultEngine> faults_;

  // Reliability engine (null when NetConfig::reliability is off); decides
  // per message in the stage phase, like the fault engine.
  std::unique_ptr<ReliabilityEngine> rel_;

  // Engine profile partials, accumulated only when config_.profile is set
  // and flushed into *config_.profile at the end of run()/run_rounds().
  NetProfile prof_;

  /// Publishes prof_ (plus the arenas' current high-water marks and the
  /// shards' peak counters) into *config_.profile. No-op when unprofiled.
  void flush_profile();

  // Telemetry engine (null unless NetConfig::telemetry requests a facet
  // and attaches a sink — the zero-cost-when-off contract is this null
  // check).
  std::unique_ptr<TelemetryEngine> telem_;

  // Wall-clock offset helper state for trace spans: nanoseconds-since-
  // epoch captured at construction (only when tracing; the engine itself
  // never reads a clock).
  std::uint64_t telem_epoch_ns_ = 0;

  /// Serial end-of-round telemetry drain: folds the shards' per-round
  /// partials and spans into the engine (ascending shard order) and closes
  /// the round's sampling window. Called only when telem_ is non-null.
  void round_telemetry(double ts_us);

  /// Copies the run echo and probe series into the telemetry sink. No-op
  /// when telemetry is off.
  void flush_telemetry();

  // Stall-diagnostics breadcrumb, maintained unconditionally (two integer
  // ops per round): the last round whose deliver phase handed a message to
  // a node, and the messages total it was detected at.
  std::uint64_t last_delivery_round_ = 0;
  std::uint64_t last_delivery_messages_ = 0;

  RunStats stats_;
};

template <typename Fn>
void NodeApi::for_each_in(std::uint16_t kind, Fn&& fn) {
  net_->states_[id_].inbox.for_each(kind, std::forward<Fn>(fn));
}

}  // namespace nc
