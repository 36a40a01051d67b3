#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/accounting.hpp"
#include "runtime/faults.hpp"
#include "util/ids.hpp"
#include "util/paramset.hpp"

namespace nc {

/// Wire kinds of the reliability service's control traffic. They live at the
/// top of the 5-bit kind space, far away from the protocol's MsgKind range
/// (src/core/protocol.hpp, 1..17), so a future protocol kind can never
/// collide with them; the static_assert and nclint's msgkind-budget rule
/// both pin them inside the header field. The kinds exist for accounting
/// (bits_by_kind) and wire-format golden tests — the engine resolves the
/// control exchanges in closed form, so no InStream ever carries them.
enum RelMsgKind : std::uint16_t {
  kRelAck = 30,     ///< per-message ACK on the reverse edge (ARQ mode)
  kRelRepair = 31,  ///< k-of-n repair chunk at a stream-window close (FEC)
};

static_assert(kRelRepair < kMaxMsgKinds,
              "RelMsgKind range exceeds the 5-bit wire header kind field");

/// Declarative description of the link-reliability service layered between
/// the stage and deliver phases (NetConfig::reliability, beside the
/// FaultPlan it compensates). Two modes:
///
///   - kAck: per-stream ACK + retransmission. Every delivered message is
///     acknowledged on the reverse edge; a lost message is retransmitted on
///     a fixed attempt schedule (ack_timeout rounds apart, at most max_retx
///     attempts — the bounded retransmit buffer) until an ACK comes back.
///     Recovered messages arrive late; the per-edge delivery floor keeps the
///     link FIFO (a message staged after a loss never overtakes the
///     retransmitted recovery).
///   - kFec: erasure coding over a stream window, the zero-round-trip
///     alternative. Each directed edge's traffic is grouped into windows of
///     fec_window consecutive rounds; at window close the sender emits
///     fec_repair repair chunks, and a window with at most that many
///     surviving repairs' worth of losses is recovered in full. Messages
///     staged behind an in-window loss are parked (receiver-side in-order
///     release) and the whole window is released, in stream order, the
///     round after it closes.
///
/// Determinism contract (the same one FaultPlan states): every reliability
/// decision — retransmit survival, ACK survival, repair survival — is a
/// pure keyed hash of (reliability seed, salt, schedule point, src, dst),
/// never a draw tied to iteration order, so fixed-seed runs are
/// bit-identical at every NetConfig::threads value. Retransmit and ACK
/// attempts deliberately use the fault plan's *marginal* loss rate via
/// stateless draws rather than the Gilbert–Elliott chain: the chain's lazy
/// per-edge state is monotone in round and owned by the forward edge's
/// source shard, so it can be advanced neither at future attempt rounds nor
/// for the reverse edge without breaking the thread-invariance guarantee.
struct ReliabilityPlan {
  enum class Mode : std::uint32_t { kOff = 0, kAck = 1, kFec = 2 };
  Mode mode = Mode::kOff;

  /// ARQ: rounds between retransmission attempts (the ACK timer), >= 1.
  std::uint64_t ack_timeout = 2;

  /// ARQ: retransmission attempts per message before the sender frees the
  /// buffer slot and the loss becomes permanent (charged to messages_lost).
  std::uint64_t max_retx = 8;

  /// FEC: stream-window length in rounds, >= 1. Window w covers rounds
  /// (w*fec_window, (w+1)*fec_window]; resolution happens at the next
  /// executed round after the close.
  std::uint64_t fec_window = 4;

  /// FEC: repair chunks emitted per closed window that carried data. A
  /// window is recovered iff its losses <= its surviving repairs.
  std::uint64_t fec_repair = 2;

  /// Seed of the reliability decision stream. 0 = derive from the network
  /// seed (re-seeding the run re-seeds the timers with it); any other value
  /// pins the control-plane randomness independently.
  std::uint64_t rel_seed = 0;

  [[nodiscard]] bool any() const noexcept { return mode != Mode::kOff; }

  /// Throws std::invalid_argument on a zero timer/window or an unknown mode.
  void validate() const;
};

/// The complete legal reliability parameter set with its default (off)
/// values: rel_mode, rel_ack_timeout, rel_max_retx, rel_fec_window,
/// rel_fec_repair, rel_seed. Network algorithms splice these keys into
/// their declared defaults exactly like the fault keys, so reliability
/// knobs ride the param-bag validation, --algo-params, sweep axes and
/// spec files unchanged.
const ParamSet& reliability_param_defaults();

/// Reads a ReliabilityPlan from a param bag holding (a subset of) the
/// declared keys, validates it and returns it.
ReliabilityPlan reliability_plan_from_params(const ParamSet& params);

/// Parses a "rel_mode=1,rel_ack_timeout=2" CSV against the declared key set
/// (unknown keys throw with the catalogue). The `--reliability=` front end.
ReliabilityPlan parse_reliability_plan(const std::string& csv);

/// Per-execution reliability machinery: closed-form ACK/retransmit
/// resolution, FEC window bookkeeping and the per-edge delivery floor that
/// keeps recovered traffic FIFO. Owned by Network when the plan is active.
///
/// Threading: every mutating method takes a directed edge and must only be
/// called from the edge's owning (source) shard — the stage phase's natural
/// call site, the same ownership rule FaultEngine::lose obeys. The engine
/// charges its control-plane accounting (retransmissions, ACKs, repairs,
/// control bits) into the caller's per-shard RunStats partial, so the
/// end-of-round merge stays exact and thread-count-invariant.
class ReliabilityEngine {
 public:
  /// "Never recovered" sentinel (same value as Network's kNoAlarm).
  static constexpr std::uint64_t kNever = ~0ULL;

  /// `faults` may be null (reliability over a clean channel still pays the
  /// control-plane cost — the honest baseline column). `header_bits` sizes
  /// an ACK (header-only: FIFO streams need no sequence number), and
  /// `bandwidth_bits` sizes a repair chunk (a full CONGEST slot, the honest
  /// upper bound for a parity block over the window's messages).
  ReliabilityEngine(const ReliabilityPlan& plan, const FaultPlan& fault_plan,
                    const FaultEngine* faults, std::size_t directed_edges,
                    unsigned header_bits, std::size_t bandwidth_bits,
                    std::uint64_t net_seed);

  [[nodiscard]] const ReliabilityPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] bool arq() const noexcept {
    return plan_.mode == ReliabilityPlan::Mode::kAck;
  }
  [[nodiscard]] bool fec() const noexcept {
    return plan_.mode == ReliabilityPlan::Mode::kFec;
  }

  /// Per-edge delivery floor: the earliest round at which the next message
  /// on the edge may be delivered. Raised by every scheduled delivery and
  /// by recoveries/releases, so reliability traffic can never overtake the
  /// stream (the wire format carries no sequence numbers). The floor
  /// complements FaultEngine's delay watermark; the stage path takes the
  /// max of both.
  [[nodiscard]] std::uint64_t floor_of(std::size_t edge) const noexcept {
    return floor_[edge];
  }
  void raise_floor(std::size_t edge, std::uint64_t round) noexcept {
    if (round > floor_[edge]) floor_[edge] = round;
  }

  /// ARQ, delivered first transmission: resolves the ACK leg in closed
  /// form. The common case (ACK survives) charges one ACK; a lost ACK
  /// triggers spurious retransmissions on the attempt schedule — duplicates
  /// the receiver discards but the wire still carries — until an ACK lands
  /// or the attempt budget runs out. Charges acks_sent,
  /// messages_retransmitted and the control/duplicate bits into `t`.
  void arq_account_delivered(std::size_t edge, NodeId src, NodeId dst,
                             std::uint64_t round, std::uint16_t kind,
                             std::uint64_t wire_bits, RunStats& t);

  /// ARQ, lost first transmission: resolves the whole retransmission
  /// exchange in closed form. Returns the recovery round (the attempt round
  /// of the first surviving resend; the caller stages the message for it
  /// through the ordinary delayed-delivery path) or kNever when every
  /// attempt was exhausted (the caller charges messages_lost). Attempt
  /// survival uses the plan's marginal loss rate and respects churn: an
  /// attempt scheduled while either endpoint is crashed is silenced.
  [[nodiscard]] std::uint64_t arq_recover(std::size_t edge, NodeId src,
                                          NodeId dst, std::uint64_t round,
                                          std::uint16_t kind,
                                          std::uint64_t wire_bits,
                                          RunStats& t);

  /// FEC: accounts one staged message on `edge` in `round` and decides its
  /// fate. Maintains the edge's window state (lazily closing the previous
  /// window — charging its repair chunks — when the round crossed a window
  /// boundary). Returns true when the message must be *parked* (the edge
  /// has an unresolved in-window loss, or this message is the loss that
  /// opens one); `*first_park` reports whether this park opened the edge's
  /// pending window (the caller registers the edge once).
  [[nodiscard]] bool fec_on_message(std::size_t edge, NodeId src, NodeId dst,
                                    std::uint64_t round, bool lost,
                                    RunStats& t, bool* first_park);

  /// FEC: true when `edge`'s pending window closed before `round` and must
  /// be resolved now.
  [[nodiscard]] bool fec_due(std::size_t edge,
                             std::uint64_t round) const noexcept {
    return fec_win_[edge] != 0 && fec_win_[edge] * plan_.fec_window < round;
  }

  /// FEC: first round at which `edge`'s pending window is due (feeds the
  /// round loop's liveness/fast-forward logic, like next_delayed_round).
  [[nodiscard]] std::uint64_t fec_close_round(std::size_t edge) const noexcept {
    return fec_win_[edge] * plan_.fec_window + 1;
  }

  /// FEC: resolves `edge`'s pending window against `losses` parked losses.
  /// Draws the repair survivals (keyed on the window index, so lazy
  /// evaluation order is invisible), charges the window's repair chunks and
  /// control bits into `t`, clears the edge's window state and returns
  /// whether the window recovered (losses <= surviving repairs).
  [[nodiscard]] bool fec_resolve(std::size_t edge, NodeId src, NodeId dst,
                                 std::uint64_t losses, RunStats& t);

 private:
  /// Marginal per-message loss probability of a directed (src, dst)
  /// channel: the plan's iid loss composed with the Gilbert–Elliott
  /// stationary marginal and the targeted loss hook (if any).
  [[nodiscard]] double loss_marginal(NodeId src, NodeId dst) const;

  /// True when either endpoint is crashed at `round` (no churn model: false).
  [[nodiscard]] bool silenced(NodeId src, NodeId dst,
                              std::uint64_t round) const;

  /// Charges the repair chunks of window `w` on `edge` (fec_cnt_ data
  /// messages; no-op for an empty window) and resets the counter.
  void charge_repairs(std::size_t edge, NodeId src, NodeId dst,
                      std::uint64_t w, RunStats& t);

  ReliabilityPlan plan_;
  FaultPlan fault_plan_;
  const FaultEngine* faults_;  ///< null on a clean channel
  std::uint64_t seed_;
  double base_marginal_ = 0.0;  ///< hook-free channel loss marginal
  std::uint64_t ack_bits_ = 0;
  std::uint64_t repair_bits_ = 0;

  std::vector<std::uint64_t> floor_;  ///< per-directed-edge delivery floor

  // FEC per-directed-edge window state (allocated in FEC mode only):
  // fec_win_ holds the pending/current window index + 1 (0 = none),
  // fec_cnt_ the data messages staged in it, fec_blocked_ whether the
  // window holds a parked loss (head-of-line blocking).
  std::vector<std::uint64_t> fec_win_;
  std::vector<std::uint32_t> fec_cnt_;
  std::vector<std::uint8_t> fec_blocked_;
};

}  // namespace nc
