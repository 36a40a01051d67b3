#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "runtime/message.hpp"

namespace nc {

class JsonWriter;

/// Traffic and progress measurements for one simulated execution.
///
/// These are the quantities the paper's complexity statements bound:
/// `rounds` for Lemma 5.1 / Theorem 5.7, `max_message_bits` for the CONGEST
/// O(log n) message-size guarantee, and the per-kind bit breakdown for the
/// stage analysis in the appendix proof of Lemma 5.1.
struct RunStats {
  std::uint64_t rounds = 0;            ///< rounds actually executed
  std::uint64_t messages = 0;          ///< physical messages delivered
  std::uint64_t bits = 0;              ///< total wire bits (headers included)
  std::uint64_t max_message_bits = 0;  ///< largest single message
  bool hit_round_limit = false;        ///< aborted by the time-bound wrapper
  bool stalled = false;                ///< protocol deadlock (bug guard)

  // Fault-engine accounting (src/runtime/faults.hpp; all zero in clean
  // runs). Lost and crash-silenced messages are counted here and *not* in
  // messages/bits — those track what was actually delivered. A deferral
  // is charged to messages_delayed when the message is scheduled; it then
  // normally also lands in messages on arrival, unless the receiver
  // crashes while it rides, in which case the arrival is charged to
  // messages_dropped_crash instead (the counters are per-pipeline-point
  // event counts, not a partition of scheduled traffic).
  std::uint64_t messages_lost = 0;          ///< dropped by the loss models
  std::uint64_t messages_delayed = 0;       ///< deferred by link delay
  std::uint64_t messages_dropped_crash = 0; ///< silenced by node churn
  std::uint64_t crash_events = 0;           ///< nodes that crashed
  std::uint64_t recover_events = 0;         ///< nodes that recovered

  // Reliability-service accounting (src/runtime/reliability.hpp; all zero
  // when the service is off). With reliability on, messages_lost counts
  // only *permanent* losses (retransmit budget exhausted / FEC window
  // unrecovered); a message the service recovers lands in messages like
  // any other delivery. Duplicate data copies and delivered control
  // traffic (ACKs, repair chunks) are charged into bits / bits_by_kind —
  // the wire carried them — but not into messages, which stays the count
  // of protocol-visible deliveries.
  std::uint64_t messages_retransmitted = 0; ///< ARQ resend attempts
  std::uint64_t acks_sent = 0;              ///< ARQ ACKs transmitted
  std::uint64_t fec_repairs = 0;            ///< FEC repair chunks sent

  /// Wire bits per message kind, indexed by kind. A fixed array (not a map):
  /// kinds are bounded by the 5-bit header field, the hot path increments a
  /// slot per delivery, and the layout matches the runtime's rx counters.
  std::array<std::uint64_t, kMaxMsgKinds> bits_by_kind{};

  /// Merges only the traffic counters (messages, bits, max message size,
  /// per-kind bits) — the sharded delivery engine's end-of-round reduction
  /// of per-shard partials. Rounds and the termination flags are global
  /// facts owned by the round loop, so they are deliberately not touched.
  /// Sums and maxes commute exactly over the integers, which is why the
  /// reduction is bit-identical to serial accumulation at any shard count.
  void merge_traffic(const RunStats& other);

  /// Human-readable one-line summary.
  [[nodiscard]] std::string summary() const;

  /// Complete JSON object (begin_object .. end_object) via util/json — the
  /// single source of stats field names for `nearclique run --json`, the
  /// telemetry metrics dump and the stall post-mortem, so schemas cannot
  /// drift apart.
  void to_json(JsonWriter& w) const;

  /// Field-by-field equality: fixed-seed bit-identity of whole runs (the
  /// scale benches' thread-count cross-check, the perf gate's telemetry
  /// check).
  bool operator==(const RunStats&) const = default;
};

/// Per-phase batch of traffic charges. The deliver phase charges every
/// message into one of these (a handful of register-resident counters) and
/// flushes into the shard's RunStats partial once per phase — instead of
/// five read-modify-writes against the shard struct per message. Sums and
/// maxes commute exactly over the integers, so batching is invisible in the
/// final statistics.
struct TrafficBatch {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t max_message_bits = 0;
  std::array<std::uint64_t, kMaxMsgKinds> bits_by_kind{};

  void charge(std::uint16_t kind, std::uint64_t wire_bits) noexcept {
    messages += 1;
    bits += wire_bits;
    if (wire_bits > max_message_bits) max_message_bits = wire_bits;
    bits_by_kind[kind] += wire_bits;
  }

  void flush_into(RunStats& stats) const noexcept {
    stats.messages += messages;
    stats.bits += bits;
    if (max_message_bits > stats.max_message_bits) {
      stats.max_message_bits = max_message_bits;
    }
    for (std::size_t k = 0; k < bits_by_kind.size(); ++k) {
      stats.bits_by_kind[k] += bits_by_kind[k];
    }
  }
};

/// Engine-internals profile of one Network's lifetime, opt-in via
/// NetConfig::profile (nullptr, the default, costs the hot path nothing).
/// The bench artifacts publish these so a perf regression is attributable
/// to a phase and a memory footprint, not just a headline rate
/// (docs/benchmarks.md documents the JSON fields).
struct NetProfile {
  double stage_seconds = 0.0;    ///< wall-clock in the stage phase
  double deliver_seconds = 0.0;  ///< deliver phase
  double fused_seconds = 0.0;    ///< always 0: every round stages, then
                                 ///< delivers; kept only because
                                 ///< perfbench/nc_op.cpp reads it
  double wake_seconds = 0.0;     ///< wake phase (protocol callbacks)

  /// Arena accounting: sum and per-shard max of the shard arenas'
  /// high-water marks (bytes of per-round transient storage: the lanes'
  /// 24-byte copy records and spilled payloads, and the deliver phase's
  /// per-node counts and 8-byte sort references). A copy due in a later
  /// round is not in it: it waits in a heap-backed in-flight bucket, and
  /// no copy carries a due round.
  std::uint64_t arena_bytes_total = 0;
  std::uint64_t arena_bytes_peak_shard = 0;

  /// Peak messages staged by one shard in one round (into its lanes, or
  /// into its in-flight buckets when due later), and peak copies waiting
  /// at one sending shard, in its in-flight buckets, at the end of its
  /// stage phase (fault and reliability runs only; an FEC release due that
  /// round counts).
  std::uint64_t lane_msgs_peak = 0;
  std::uint64_t delayed_msgs_peak = 0;

  /// Always 0: every staged copy is a record of its own, so no payload
  /// copy is saved. Kept only because perfbench/nc_op.cpp reads it.
  std::uint64_t broadcast_payload_bytes_saved = 0;

  /// Copies to already-done destinations that the stage phase accounted
  /// for itself instead of staging them: charged at once when on time,
  /// tallied for their due round when delayed (Network::charge_done_copy).
  /// The staged and waiting counters above do not include them.
  std::uint64_t done_copies = 0;

  /// Cross-round pool memory, summed over shards at the flush: bytes of
  /// the carved slots (live + on free lists) and of the live ones, for the
  /// inbox pools (key + stream columns, 24 bytes per slot entry) and the
  /// link pools. A slot counts at its class size, so a bucket holds up to
  /// a quarter more entries than streams. Live inbox bytes follow the
  /// streams nodes can still read: retired keys and done nodes' inboxes
  /// give theirs back.
  std::uint64_t inbox_bytes_carved = 0;
  std::uint64_t inbox_bytes_live = 0;
  std::uint64_t link_bytes_carved = 0;
  std::uint64_t link_bytes_live = 0;

  /// Complete JSON object (begin_object .. end_object) via util/json, one
  /// key per field in declaration order: the `profile` object of
  /// `nearclique run --profile --json`.
  void to_json(JsonWriter& w) const;
};

}  // namespace nc
