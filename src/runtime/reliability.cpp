#include "runtime/reliability.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace nc {

namespace {

// Salts separating the reliability decision streams from each other and
// from the fault salts in faults.cpp (the engines also derive distinct
// seeds from the network seed, so the separation is belt-and-braces).
constexpr std::uint64_t kSaltRelRetx = 0x4e58;    ///< retransmit survival
constexpr std::uint64_t kSaltRelAck = 0xacc5;     ///< ACK survival
constexpr std::uint64_t kSaltRelRepair = 0x4efa;  ///< repair-chunk survival

}  // namespace

void ReliabilityPlan::validate() const {
  if (mode != Mode::kOff && mode != Mode::kAck && mode != Mode::kFec) {
    throw std::invalid_argument(
        "reliability plan: rel_mode must be 0 (off), 1 (ack) or 2 (fec)");
  }
  if (ack_timeout == 0) {
    throw std::invalid_argument(
        "reliability plan: rel_ack_timeout must be >= 1 round");
  }
  if (max_retx == 0) {
    throw std::invalid_argument(
        "reliability plan: rel_max_retx must be >= 1 (a zero-attempt ARQ is "
        "just the lossy channel)");
  }
  if (fec_window == 0) {
    throw std::invalid_argument(
        "reliability plan: rel_fec_window must be >= 1 round");
  }
}

std::string ReliabilityPlan::summary() const {
  if (!any()) return "none";
  std::ostringstream os;
  if (mode == Mode::kAck) {
    os << "ack(timeout=" << ack_timeout << ",retx=" << max_retx << ")";
  } else {
    os << "fec(window=" << fec_window << ",repair=" << fec_repair << ")";
  }
  return os.str();
}

const ParamSet& reliability_param_defaults() {
  static const ParamSet defaults = [] {
    ReliabilityPlan d;
    return ParamSet()
        .with("rel_mode", static_cast<std::uint64_t>(d.mode))
        .with("rel_ack_timeout", d.ack_timeout)
        .with("rel_max_retx", d.max_retx)
        .with("rel_fec_window", d.fec_window)
        .with("rel_fec_repair", d.fec_repair)
        .with("rel_seed", d.rel_seed);
  }();
  return defaults;
}

ReliabilityPlan reliability_plan_from_params(const ParamSet& params) {
  ReliabilityPlan plan;
  const std::uint64_t mode = params.get_count_or("rel_mode", 0);
  if (mode > 2) {
    throw std::invalid_argument(
        "reliability plan: rel_mode must be 0 (off), 1 (ack) or 2 (fec)");
  }
  plan.mode = static_cast<ReliabilityPlan::Mode>(mode);
  plan.ack_timeout = params.get_count_or("rel_ack_timeout", plan.ack_timeout);
  plan.max_retx = params.get_count_or("rel_max_retx", plan.max_retx);
  plan.fec_window = params.get_count_or("rel_fec_window", plan.fec_window);
  plan.fec_repair = params.get_count_or("rel_fec_repair", plan.fec_repair);
  plan.rel_seed = params.get_count_or("rel_seed", plan.rel_seed);
  plan.validate();
  return plan;
}

ReliabilityPlan parse_reliability_plan(const std::string& csv) {
  const ParamSet overrides =
      parse_params_csv(csv, &reliability_param_defaults());
  const ParamSet merged =
      merge_params(reliability_param_defaults(), overrides, "reliability plan");
  return reliability_plan_from_params(merged);
}

ReliabilityEngine::ReliabilityEngine(const ReliabilityPlan& plan,
                                     const FaultPlan& fault_plan,
                                     const FaultEngine* faults,
                                     std::size_t directed_edges,
                                     unsigned header_bits,
                                     std::size_t bandwidth_bits,
                                     std::uint64_t net_seed)
    : plan_(plan),
      fault_plan_(fault_plan),
      faults_(faults),
      seed_(plan.rel_seed != 0 ? plan.rel_seed
                               : net_seed ^ 0x4e11ab1e5eedULL),
      ack_bits_(header_bits),
      repair_bits_(bandwidth_bits) {
  plan_.validate();

  // Channel loss marginal without the targeted hook: the iid loss composed
  // with the Gilbert–Elliott stationary marginal. The per-attempt draws use
  // this rate instead of the chain itself — see the determinism contract in
  // the header.
  double ge_marginal = 0.0;
  if (fault_plan_.ge_p > 0.0) {
    const double pi_bad =
        fault_plan_.ge_p / (fault_plan_.ge_p + fault_plan_.ge_r);
    ge_marginal = pi_bad * fault_plan_.ge_loss_bad +
                  (1.0 - pi_bad) * fault_plan_.ge_loss_good;
  }
  base_marginal_ = 1.0 - (1.0 - fault_plan_.loss) * (1.0 - ge_marginal);

  floor_.assign(directed_edges, 0);
  if (fec()) {
    fec_win_.assign(directed_edges, 0);
    fec_cnt_.assign(directed_edges, 0);
    fec_blocked_.assign(directed_edges, 0);
  }
}

double ReliabilityEngine::loss_marginal(NodeId src, NodeId dst) const {
  double p = base_marginal_;
  if (fault_plan_.loss_hook) {
    const double h =
        std::clamp(fault_plan_.loss_hook(src, dst), 0.0, 1.0);
    if (h > 0.0) p = 1.0 - (1.0 - p) * (1.0 - h);
  }
  return p;
}

bool ReliabilityEngine::silenced(NodeId src, NodeId dst,
                                 std::uint64_t round) const {
  return faults_ != nullptr && (faults_->crashed_at(src, round) ||
                                faults_->crashed_at(dst, round));
}

void ReliabilityEngine::arq_account_delivered(std::size_t edge, NodeId src,
                                              NodeId dst, std::uint64_t round,
                                              std::uint16_t kind,
                                              std::uint64_t wire_bits,
                                              RunStats& t) {
  (void)edge;
  const double p_rev = loss_marginal(dst, src);
  // The receiver ACKs every copy it gets; attempt 0's copy is the message
  // the ordinary deliver path already charges.
  t.acks_sent += 1;
  if (fault_uniform(seed_, kSaltRelAck, round, dst, src) >= p_rev) {
    t.bits += ack_bits_;
    t.bits_by_kind[kRelAck] += ack_bits_;
    return;
  }
  // Lost ACK: the sender cannot distinguish a lost message from a lost ACK
  // and resends on the attempt schedule; the receiver discards the
  // duplicates but the wire still carries them (and their ACKs).
  const double p_fwd = loss_marginal(src, dst);
  for (std::uint64_t i = 1; i <= plan_.max_retx; ++i) {
    const std::uint64_t ar = round + i * plan_.ack_timeout;
    t.messages_retransmitted += 1;
    if (silenced(src, dst, ar) ||
        fault_uniform(seed_, kSaltRelRetx, ar, src, dst) < p_fwd) {
      continue;
    }
    t.bits += wire_bits;
    t.bits_by_kind[kind & (kMaxMsgKinds - 1)] += wire_bits;
    t.acks_sent += 1;
    if (fault_uniform(seed_, kSaltRelAck, ar, dst, src) >= p_rev) {
      t.bits += ack_bits_;
      t.bits_by_kind[kRelAck] += ack_bits_;
      return;
    }
  }
}

std::uint64_t ReliabilityEngine::arq_recover(std::size_t edge, NodeId src,
                                             NodeId dst, std::uint64_t round,
                                             std::uint16_t kind,
                                             std::uint64_t wire_bits,
                                             RunStats& t) {
  const double p_fwd = loss_marginal(src, dst);
  const double p_rev = loss_marginal(dst, src);
  std::uint64_t delivered_round = kNever;
  for (std::uint64_t i = 1; i <= plan_.max_retx; ++i) {
    const std::uint64_t ar = round + i * plan_.ack_timeout;
    t.messages_retransmitted += 1;
    if (silenced(src, dst, ar) ||
        fault_uniform(seed_, kSaltRelRetx, ar, src, dst) < p_fwd) {
      continue;
    }
    if (delivered_round == kNever) {
      // First surviving resend: this copy is the delivery. The caller
      // stages the message for `ar` through the delayed-delivery path,
      // which charges its messages/bits there.
      delivered_round = ar;
    } else {
      // Later surviving resend (its ACK was lost): a duplicate copy.
      t.bits += wire_bits;
      t.bits_by_kind[kind & (kMaxMsgKinds - 1)] += wire_bits;
    }
    t.acks_sent += 1;
    if (fault_uniform(seed_, kSaltRelAck, ar, dst, src) >= p_rev) {
      t.bits += ack_bits_;
      t.bits_by_kind[kRelAck] += ack_bits_;
      break;
    }
  }
  (void)edge;
  return delivered_round;
}

bool ReliabilityEngine::fec_on_message(std::size_t edge, NodeId src,
                                       NodeId dst, std::uint64_t round,
                                       bool lost, RunStats& t,
                                       bool* first_park) {
  const std::uint64_t w = (round - 1) / plan_.fec_window;
  if (fec_win_[edge] != w + 1) {
    // Crossing into a new window. A blocked edge can never get here: its
    // pending window is resolved at the top of the stage phase of every
    // later round, strictly before any new message on the edge is staged.
    nc_invariant(fec_blocked_[edge] == 0,
                 "FEC window transition on a blocked edge — pending windows "
                 "must be resolved before new traffic is staged");
    if (fec_win_[edge] != 0) {
      charge_repairs(edge, src, dst, fec_win_[edge] - 1, t);
    }
    fec_win_[edge] = w + 1;
    fec_cnt_[edge] = 0;
  }
  fec_cnt_[edge] += 1;
  if (fec_blocked_[edge] != 0) {
    *first_park = false;
    return true;
  }
  if (lost) {
    fec_blocked_[edge] = 1;
    *first_park = true;
    return true;
  }
  *first_park = false;
  return false;
}

bool ReliabilityEngine::fec_resolve(std::size_t edge, NodeId src, NodeId dst,
                                    std::uint64_t losses, RunStats& t) {
  nc_invariant(fec_win_[edge] != 0 && fec_blocked_[edge] != 0,
               "fec_resolve on an edge without a pending blocked window");
  const std::uint64_t w = fec_win_[edge] - 1;
  const double p_fwd = loss_marginal(src, dst);
  std::uint64_t survived = 0;
  for (std::uint64_t j = 0; j < plan_.fec_repair; ++j) {
    // Keyed on the *window index*, not a round: charge_repairs below draws
    // the same keys, so lazily-charged and resolution-time evaluations of
    // one window always agree, whatever order the round loop reaches them.
    if (fault_uniform(seed_, kSaltRelRepair, w, edge, j) >= p_fwd) {
      survived += 1;
    }
  }
  charge_repairs(edge, src, dst, w, t);
  const bool recovered = losses <= survived;
  fec_win_[edge] = 0;
  fec_cnt_[edge] = 0;
  fec_blocked_[edge] = 0;
  return recovered;
}

void ReliabilityEngine::charge_repairs(std::size_t edge, NodeId src,
                                       NodeId dst, std::uint64_t w,
                                       RunStats& t) {
  if (fec_cnt_[edge] == 0) return;  // empty windows send no repairs
  t.fec_repairs += plan_.fec_repair;
  const double p_fwd = loss_marginal(src, dst);
  for (std::uint64_t j = 0; j < plan_.fec_repair; ++j) {
    if (fault_uniform(seed_, kSaltRelRepair, w, edge, j) >= p_fwd) {
      // Only chunks that actually arrive are delivered traffic; lost
      // repairs cost the sender a slot but never reach the receiver.
      t.bits += repair_bits_;
      t.bits_by_kind[kRelRepair] += repair_bits_;
    }
  }
  fec_cnt_[edge] = 0;
}

}  // namespace nc
