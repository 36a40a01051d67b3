#include "runtime/accounting.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "util/json.hpp"

namespace nc {

void RunStats::merge_traffic(const RunStats& other) {
  messages += other.messages;
  bits += other.bits;
  max_message_bits = std::max(max_message_bits, other.max_message_bits);
  // Per-message fault and reliability outcomes are decided in the parallel
  // stage/deliver phases, so they are shard partials too; churn events are
  // counted by the serial round loop and deliberately not merged here.
  messages_lost += other.messages_lost;
  messages_delayed += other.messages_delayed;
  messages_dropped_crash += other.messages_dropped_crash;
  messages_retransmitted += other.messages_retransmitted;
  acks_sent += other.acks_sent;
  fec_repairs += other.fec_repairs;
  for (std::size_t k = 0; k < bits_by_kind.size(); ++k) {
    bits_by_kind[k] += other.bits_by_kind[k];
  }
}

std::string RunStats::summary() const {
  std::ostringstream os;
  os << "rounds=" << rounds << " messages=" << messages << " bits=" << bits
     << " max_msg_bits=" << max_message_bits
     << (hit_round_limit ? " [round-limit]" : "")
     << (stalled ? " [stalled]" : "");
  if (messages_lost > 0) os << " lost=" << messages_lost;
  if (messages_delayed > 0) os << " delayed=" << messages_delayed;
  if (messages_dropped_crash > 0) {
    os << " crash_dropped=" << messages_dropped_crash;
  }
  if (crash_events > 0) {
    os << " crashes=" << crash_events << " recoveries=" << recover_events;
  }
  if (messages_retransmitted > 0) os << " retx=" << messages_retransmitted;
  if (acks_sent > 0) os << " acks=" << acks_sent;
  if (fec_repairs > 0) os << " fec_repairs=" << fec_repairs;
  return os.str();
}

void RunStats::to_json(JsonWriter& w) const {
  w.begin_object();
  w.key("rounds").value(rounds);
  w.key("messages").value(messages);
  w.key("bits").value(bits);
  w.key("max_message_bits").value(max_message_bits);
  w.key("hit_round_limit").value(hit_round_limit);
  w.key("stalled").value(stalled);
  w.key("messages_lost").value(messages_lost);
  w.key("messages_delayed").value(messages_delayed);
  w.key("messages_dropped_crash").value(messages_dropped_crash);
  w.key("crash_events").value(crash_events);
  w.key("recover_events").value(recover_events);
  w.key("messages_retransmitted").value(messages_retransmitted);
  w.key("acks_sent").value(acks_sent);
  w.key("fec_repairs").value(fec_repairs);
  // Sparse object keyed by kind index: most runs use a handful of the 32
  // CONGEST kinds, and absent == 0 keeps lines short and diff-friendly.
  w.key("bits_by_kind").begin_object();
  for (std::size_t k = 0; k < bits_by_kind.size(); ++k) {
    if (bits_by_kind[k] != 0) w.key(std::to_string(k)).value(bits_by_kind[k]);
  }
  w.end_object();
  w.end_object();
}

}  // namespace nc
