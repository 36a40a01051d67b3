#include "runtime/link.hpp"

#include <stdexcept>
#include <utility>

namespace nc {

void Link::add_stream(LinkPool& pool, StreamRef state) {
  if (count_ == 0) {
    slot_ = pool.alloc(0);
    cls_ = 0;
  } else if (count_ == (std::uint32_t{1} << cls_)) {
    // Full: move into a slot twice the size, exactly as a vector regrows.
    const std::uint32_t bigger = pool.alloc(cls_ + 1u);
    LinkStream* from = pool.data(cls_, slot_);
    LinkStream* to = pool.data(cls_ + 1u, bigger);
    for (std::uint32_t i = 0; i < count_; ++i) to[i] = std::move(from[i]);
    pool.free(cls_, slot_);
    slot_ = bigger;
    ++cls_;
  }
  pool.data(cls_, slot_)[count_] = LinkStream{std::move(state)};
  ++count_;
}

bool Link::has_pending(const LinkPool& pool) const noexcept {
  const LinkStream* streams = data(pool);
  for (std::uint32_t i = 0; i < count_; ++i) {
    if (streams[i].pending()) return true;
  }
  return false;
}

void Link::prune_done(LinkPool& pool) {
  // Streams whose EOS has been delivered can never carry traffic again;
  // dropping them keeps per-round scheduling proportional to *active*
  // streams (long executions accumulate thousands of finished one-shot
  // streams otherwise) and releases their shared payload buffers.
  if (!any_done_) return;
  any_done_ = false;
  LinkStream* streams = data(pool);
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < count_; ++i) {
    if (streams[i].eos_done == 0) {
      if (kept != i) streams[kept] = std::move(streams[i]);
      ++kept;
    }
  }
  if (kept == count_) return;
  // The dropped tail still holds the pruned streams' payload references.
  for (std::uint32_t i = kept; i < count_; ++i) streams[i].state.reset();
  count_ = kept;
  if (kept == 0) {
    pool.free(cls_, slot_);
    slot_ = LinkPool::kNoSlot;
    rr_pos_ = 0;
  } else {
    rr_pos_ %= kept;
  }
}

std::uint32_t Link::pick_pending(LinkPool& pool) {
  prune_done(pool);
  const LinkStream* streams = data(pool);
  for (std::uint32_t step = 0; step < count_; ++step) {
    const std::uint32_t i = (rr_pos_ + step) % count_;
    if (streams[i].pending()) return i;
  }
  return count_;
}

bool Link::schedule_matches(LinkPool& pool, const MsgView& prev) {
  const std::uint32_t chosen = pick_pending(pool);
  if (chosen == count_) return false;
  LinkStream& s = data(pool)[chosen];
  // Identical shared stream + identical cursor + identical budget means the
  // packing loop below (schedule_view) would reproduce prev symbol for
  // symbol, so the whole walk collapses to a cursor advance. The shared
  // state carries the key, so one buffer means one key.
  if (&s.state->buf != prev.buf || s.next_symbol != prev.first_symbol ||
      s.bit_off != prev.bit_off || s.eos_done != 0) {
    return false;
  }
  rr_pos_ = (chosen + 1) % count_;
  s.next_symbol += static_cast<std::uint32_t>(prev.symbol_count);
  s.bit_off += static_cast<std::uint32_t>(prev.bit_len);
  if (prev.eos) {
    s.eos_done = 1;
    any_done_ = true;
  }
  return true;
}

bool Link::schedule_view(LinkPool& pool, std::size_t budget_bits,
                         unsigned header_bits, MsgView& out) {
  const std::uint32_t chosen = pick_pending(pool);
  if (chosen == count_) return false;
  rr_pos_ = (chosen + 1) % count_;

  LinkStream& s = data(pool)[chosen];
  const SymbolBuffer& buf = s.state->buf;
  out.key = s.state->key();
  out.buf = &buf;
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
  const std::uint8_t* widths = buf.widths();
  const std::size_t total = buf.size();
  std::size_t room = budget_bits - header_bits;
  std::uint32_t next = s.next_symbol;
  while (next < total) {
    const unsigned w = widths[next];
    if (w > room) {
      if (out.symbol_count == 0 && w > budget_bits - header_bits) {
        throw std::runtime_error(
            "CONGEST violation: symbol wider than message budget");
      }
      break;
    }
    ++out.symbol_count;
    out.bit_len += w;
    room -= w;
    ++next;
  }
  out.wire_bits += out.bit_len;
  s.next_symbol = next;
  s.bit_off += static_cast<std::uint32_t>(out.bit_len);
  // EOS piggybacks once the stream is fully drained and producer closed it.
  if (s.state->closed && s.pending_symbols() == 0 && s.eos_done == 0) {
    out.eos = true;
    s.eos_done = 1;
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

std::size_t Link::pending_stream_count(const LinkPool& pool) const noexcept {
  const LinkStream* streams = data(pool);
  std::size_t count = 0;
  for (std::uint32_t i = 0; i < count_; ++i) {
    if (streams[i].pending()) ++count;
  }
  return count;
}

}  // namespace nc
