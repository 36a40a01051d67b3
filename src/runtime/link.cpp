#include "runtime/link.hpp"

#include <stdexcept>

namespace nc {

void Link::add_stream(const StreamKey& key,
                      std::shared_ptr<const OutStreamState> state) {
  streams_.push_back(ActiveStream{key, std::move(state), 0, 0, false});
}

bool Link::has_pending() const noexcept {
  for (const auto& s : streams_) {
    if (s.pending()) return true;
  }
  return false;
}

void Link::prune_done() {
  // Streams whose EOS has been delivered can never carry traffic again;
  // dropping them keeps per-round scheduling proportional to *active*
  // streams (long executions accumulate thousands of finished one-shot
  // streams otherwise) and releases their shared payload buffers.
  if (!any_done_) return;
  any_done_ = false;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (!streams_[i].eos_done) {
      if (kept != i) streams_[kept] = std::move(streams_[i]);
      ++kept;
    }
  }
  if (kept != streams_.size()) {
    streams_.resize(kept);
    rr_pos_ = streams_.empty() ? 0 : rr_pos_ % streams_.size();
  }
}

std::size_t Link::pick_pending() {
  prune_done();
  const std::size_t count = streams_.size();
  for (std::size_t step = 0; step < count; ++step) {
    const std::size_t i = (rr_pos_ + step) % count;
    if (streams_[i].pending()) return i;
  }
  return count;
}

bool Link::schedule_matches(std::size_t budget_bits, unsigned header_bits,
                            const MsgView& prev) {
  const std::size_t chosen = pick_pending();
  if (chosen == streams_.size()) return false;
  ActiveStream& s = streams_[chosen];
  // Identical shared buffer + identical cursor + identical budget means the
  // packing loop below (schedule_view) would reproduce prev symbol for
  // symbol, so the whole walk collapses to a cursor advance. The key check
  // is belt-and-braces: one OutStreamState is only ever registered by one
  // open_stream call, which uses one key for every sibling link.
  if (&s.state->buf != prev.buf || s.next_symbol != prev.first_symbol ||
      s.bit_off != prev.bit_off || !(s.key == prev.key) || s.eos_done) {
    return false;
  }
  // prev was produced under the same (budget_bits, header_bits) by contract;
  // the parameters exist so a future non-uniform-budget engine cannot
  // silently misuse the fast path.
  (void)budget_bits;
  (void)header_bits;
  rr_pos_ = (chosen + 1) % streams_.size();
  s.next_symbol += prev.symbol_count;
  s.bit_off += prev.bit_len;
  if (prev.eos) {
    s.eos_done = true;
    any_done_ = true;
  }
  return true;
}

bool Link::schedule_view(std::size_t budget_bits, unsigned header_bits,
                         MsgView& out) {
  const std::size_t chosen = pick_pending();
  if (chosen == streams_.size()) return false;
  const std::size_t count = streams_.size();
  rr_pos_ = (chosen + 1) % count;

  ActiveStream& s = streams_[chosen];
  out.key = s.key;
  out.buf = &s.state->buf;
  out.first_symbol = s.next_symbol;
  out.symbol_count = 0;
  out.bit_off = s.bit_off;
  out.bit_len = 0;
  out.eos = false;
  out.wire_bits = header_bits;
  if (budget_bits < header_bits) {
    throw std::runtime_error(
        "CONGEST violation: bandwidth smaller than stream header");
  }
  const std::uint8_t* widths = s.state->buf.widths();
  const std::size_t total = s.state->buf.size();
  std::size_t room = budget_bits - header_bits;
  while (s.next_symbol < total) {
    const unsigned w = widths[s.next_symbol];
    if (w > room) {
      if (out.symbol_count == 0 && w > budget_bits - header_bits) {
        throw std::runtime_error(
            "CONGEST violation: symbol wider than message budget");
      }
      break;
    }
    ++out.symbol_count;
    out.bit_len += w;
    out.wire_bits += w;
    room -= w;
    s.bit_off += w;
    ++s.next_symbol;
  }
  // EOS piggybacks once the stream is fully drained and producer closed it.
  if (s.state->closed && s.pending_symbols() == 0 && !s.eos_done) {
    out.eos = true;
    s.eos_done = true;
    any_done_ = true;
  }
  if (out.symbol_count == 0 && !out.eos) {
    // Nothing fit (symbol wider than remaining room can't happen with empty
    // payload — handled above) or state raced; treat as idle.
    return false;
  }
  // Pruning is the caller's job (release_idle) — it would invalidate the
  // view we just handed out.
  return true;
}

std::size_t Link::pending_stream_count() const noexcept {
  std::size_t count = 0;
  for (const auto& s : streams_) {
    if (s.pending()) ++count;
  }
  return count;
}

}  // namespace nc
