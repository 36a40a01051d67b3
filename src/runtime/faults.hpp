#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/ids.hpp"
#include "util/paramset.hpp"

namespace nc {

/// Declarative description of the adversity injected into one execution:
/// per-link message loss (iid Bernoulli and/or bursty Gilbert–Elliott),
/// per-link integer delivery delay (fixed + seeded jitter) and node churn
/// (crash-at-round with optional recovery). A plan is typed, seeded and
/// validated exactly like ScenarioParams/AlgoParams — `fault_param_defaults`
/// declares the complete legal key set, so plans parse, merge and reject
/// unknown keys through the same machinery as every other configuration in
/// the repository.
///
/// Determinism contract: every fault decision is a pure function of
/// (fault seed, round, src, dst) — a keyed hash, never a draw from a
/// shared-state generator — so fixed-seed faulty executions are
/// bit-identical at every NetConfig::threads value and independent of the
/// engine's iteration order. The one stateful model, the Gilbert–Elliott
/// channel, keeps per-directed-edge state that advances lazily via the
/// chain's exact t-step closed form; the advance is keyed on (round, edge)
/// and an edge's state is only ever touched by its owning source shard, so
/// the guarantee extends to it unchanged.
///
/// Storage note: a delayed message outlives the round that staged it, so
/// the engine copies it out of the per-round arena lanes into heap-backed
/// per-shard buckets (Network::Shard::delayed) before the arenas rewind.
struct FaultPlan {
  /// iid loss: every scheduled message is dropped independently with this
  /// probability. [0, 1].
  double loss = 0.0;

  /// Gilbert–Elliott bursty loss. The channel of each directed edge is a
  /// two-state Markov chain stepping once per simulated round:
  /// P(good -> bad) = ge_p, P(bad -> good) = ge_r; a message scheduled on
  /// the edge is dropped with probability ge_loss_good / ge_loss_bad
  /// depending on the state. ge_p = 0 disables the model. Composes with
  /// `loss` (a message survives only if both models pass it).
  double ge_p = 0.0;
  double ge_r = 0.0;
  double ge_loss_good = 0.0;
  double ge_loss_bad = 1.0;

  /// Per-message integer delivery delay, uniform in [delay_min, delay_max]
  /// rounds (jitter keyed on (round, src, dst)). 0/0 = synchronous
  /// delivery, the clean model.
  std::uint64_t delay_min = 0;
  std::uint64_t delay_max = 0;

  /// Node churn: every node crashes independently with probability
  /// crash_frac, at round `crash_round`, recovering `recover_after` rounds
  /// later (0 = the crash is permanent). A crashed node's links are
  /// silenced in both directions, its alarms are cancelled, and the runtime
  /// fires INode::on_crash / INode::on_recover at the boundary rounds.
  double crash_frac = 0.0;
  std::uint64_t crash_round = 1;
  std::uint64_t recover_after = 0;

  /// Seed of the fault decision stream. 0 = derive from the network seed,
  /// so re-seeding a run re-seeds its adversity with it; any other value
  /// pins the fault pattern independently of the protocol's randomness.
  std::uint64_t fault_seed = 0;

  /// Targeted (adversarial) loss: an extra per-message drop probability for
  /// the directed channel src -> dst, composed with the stochastic models
  /// above (a message survives only if every model passes it). The hook is
  /// a test/experiment construct — it has no param-bag key and no CLI
  /// surface — but its decisions go through the same keyed-hash draw as
  /// everything else, so hooked runs keep the thread-invariance guarantee
  /// as long as the hook itself is a pure function of (src, dst). The
  /// reliability layer folds the hook into its retransmit/ACK loss
  /// marginals, so targeted loss degrades recovery honestly too.
  std::function<double(NodeId src, NodeId dst)> loss_hook;

  /// True when any fault model is enabled (the engine is only constructed,
  /// and the staged delivery path only consulted, for active plans — a
  /// default plan costs the fault-free hot path nothing).
  [[nodiscard]] bool any() const noexcept {
    return loss > 0.0 || ge_p > 0.0 || delay_max > 0 || crash_frac > 0.0 ||
           static_cast<bool>(loss_hook);
  }

  /// Throws std::invalid_argument on out-of-range probabilities,
  /// delay_min > delay_max, ge_p > 0 with ge_r == 0 (the chain would absorb
  /// into the bad state), or crash_round == 0 (nodes exist from round 1).
  void validate() const;
};

/// The complete legal fault parameter set with its default (fault-free)
/// values: loss, ge_p, ge_r, ge_loss_good, ge_loss_bad, delay_min,
/// delay_max, crash_frac, crash_round, recover_after, fault_seed. Network
/// algorithms splice these keys into their declared defaults so fault knobs
/// ride the existing param-bag validation and sweep-axis machinery.
const ParamSet& fault_param_defaults();

/// Reads a FaultPlan from a param bag holding (a subset of) the declared
/// fault keys, validates it and returns it. Missing keys take the plan
/// defaults.
FaultPlan fault_plan_from_params(const ParamSet& params);

/// Parses a "loss=0.05,delay_max=3,crash_frac=0.01" CSV against the
/// declared key set (unknown keys throw with the catalogue) and validates
/// the resulting plan. The `--faults=` front end.
FaultPlan parse_fault_plan(const std::string& csv);

/// Keyed fault decision hash: a pure function of (seed, salt, round, a, b)
/// built from chained SplitMix64 finalizers. All fault randomness flows
/// through this, which is what makes fault decisions independent of
/// iteration order and thread count.
[[nodiscard]] std::uint64_t fault_mix(std::uint64_t seed, std::uint64_t salt,
                                      std::uint64_t round, std::uint64_t a,
                                      std::uint64_t b) noexcept;

/// fault_mix mapped to a uniform double in [0, 1) (53 bits of precision).
[[nodiscard]] double fault_uniform(std::uint64_t seed, std::uint64_t salt,
                                   std::uint64_t round, std::uint64_t a,
                                   std::uint64_t b) noexcept;

/// Per-execution fault machinery: the crash schedule (precomputed per node)
/// and the per-message loss/delay decisions (stateless keyed hashes, plus
/// the lazily-advanced Gilbert–Elliott edge states). Owned by Network when
/// the plan is active.
///
/// Threading: `lose` mutates the Gilbert–Elliott state of the queried edge
/// and must only be called from the edge's owning (source) shard — the
/// stage phase's natural call site. Everything else is const and safe from
/// any phase.
class FaultEngine {
 public:
  /// "Never happens" round sentinel (same value as Network's kNoAlarm).
  static constexpr std::uint64_t kNever = ~0ULL;

  /// `directed_edges` sizes the Gilbert–Elliott state table (only
  /// allocated when the model is enabled); `n` sizes the crash schedule
  /// (only when crash_frac > 0). `net_seed` seeds the decision stream when
  /// the plan does not pin its own fault_seed.
  FaultEngine(const FaultPlan& plan, NodeId n, std::size_t directed_edges,
              std::uint64_t net_seed);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Round at which node v crashes (kNever if it never does).
  [[nodiscard]] std::uint64_t crash_round(NodeId v) const noexcept {
    return crash_round_.empty() ? kNever : crash_round_[v];
  }

  /// Round at which node v recovers (kNever if it never crashes or the
  /// crash is permanent).
  [[nodiscard]] std::uint64_t recover_round(NodeId v) const noexcept {
    return recover_round_.empty() ? kNever : recover_round_[v];
  }

  /// True when v is crashed during `round`.
  [[nodiscard]] bool crashed_at(NodeId v, std::uint64_t round) const noexcept {
    return crash_round(v) <= round && round < recover_round(v);
  }

  /// Loss decision for the one message scheduled on directed edge `edge`
  /// (src -> dst) in `round`: true = drop. Advances the edge's
  /// Gilbert–Elliott state when that model is enabled; call at most once
  /// per (edge, round), from the edge's owning shard.
  [[nodiscard]] bool lose(std::size_t edge, NodeId src, NodeId dst,
                          std::uint64_t round);

  /// Delivery delay in rounds for the message scheduled on directed edge
  /// `edge` (src -> dst) in `round`: delay_min plus keyed jitter up to
  /// delay_max, clamped so a message never overtakes an earlier one on the
  /// same link (a per-edge arrival watermark — links have variable latency
  /// but stay FIFO, which the sequence-number-free wire format requires).
  /// Mutates the watermark; same ownership rule as lose().
  [[nodiscard]] std::uint64_t delay_of(std::size_t edge, NodeId src,
                                       NodeId dst, std::uint64_t round);

  /// The Gilbert–Elliott stationary bad-state probability
  /// ge_p / (ge_p + ge_r) (0 when the model is disabled); exposed so the
  /// statistical tests and docs state the expected marginal loss rate
  /// pi_bad * ge_loss_bad + (1 - pi_bad) * ge_loss_good from one source.
  [[nodiscard]] double ge_stationary_bad() const noexcept { return pi_bad_; }

  /// The edge's FIFO arrival watermark (the latest delivery round handed
  /// out by delay_of; 0 when the delay model is off). The reliability
  /// layer's release floor takes the max with this, so a recovered message
  /// never undercuts an earlier jittered one.
  [[nodiscard]] std::uint64_t arrival_floor(std::size_t edge) const noexcept {
    return arrival_.empty() ? 0 : arrival_[edge];
  }

 private:
  FaultPlan plan_;
  std::uint64_t seed_;

  // Gilbert–Elliott: cached chain constants and the per-directed-edge
  // packed state (last evaluated round << 1 | bad). Advancing from round
  // r0 to r uses the exact t-step distribution
  //   P(bad at r) = pi_bad + (bad0 - pi_bad) * (1 - p - r)^(r - r0)
  // sampled with one keyed draw, so the lazy chain is statistically
  // identical to stepping every round and costs O(1) per message.
  double pi_bad_ = 0.0;
  double decay_ = 0.0;  ///< 1 - ge_p - ge_r
  std::vector<std::uint64_t> ge_state_;

  // Per-directed-edge FIFO arrival watermark (the latest delivery round
  // handed out on the link); only allocated when delay is enabled.
  std::vector<std::uint64_t> arrival_;

  std::vector<std::uint64_t> crash_round_;    // per node; empty = no churn
  std::vector<std::uint64_t> recover_round_;  // per node; empty = no churn
};

}  // namespace nc
