#include "runtime/faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace nc {

namespace {

// Salts separating the independent decision streams drawn from one seed.
constexpr std::uint64_t kSaltLoss = 0x10c5;
constexpr std::uint64_t kSaltGeInit = 0x6e11;
constexpr std::uint64_t kSaltGeStep = 0x6e12;
constexpr std::uint64_t kSaltGeLoss = 0x6e13;
constexpr std::uint64_t kSaltDelay = 0xde1a;
constexpr std::uint64_t kSaltCrash = 0xc4a5;
constexpr std::uint64_t kSaltHookLoss = 0x40c5;

void check_prob(double value, const char* name) {
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(std::string("fault plan: '") + name +
                                "' must be a probability in [0, 1]");
  }
}

}  // namespace

void FaultPlan::validate() const {
  check_prob(loss, "loss");
  check_prob(ge_p, "ge_p");
  check_prob(ge_r, "ge_r");
  check_prob(ge_loss_good, "ge_loss_good");
  check_prob(ge_loss_bad, "ge_loss_bad");
  check_prob(crash_frac, "crash_frac");
  if (ge_p > 0.0 && ge_r == 0.0) {
    throw std::invalid_argument(
        "fault plan: ge_p > 0 requires ge_r > 0 (a chain that never leaves "
        "the bad state is just loss=" +
        std::to_string(ge_loss_bad) + ")");
  }
  if (delay_min > delay_max) {
    throw std::invalid_argument(
        "fault plan: delay_min must be <= delay_max");
  }
  if (crash_frac > 0.0 && crash_round == 0) {
    throw std::invalid_argument(
        "fault plan: crash_round must be >= 1 (rounds start at 1)");
  }
}

const ParamSet& fault_param_defaults() {
  static const ParamSet defaults = [] {
    FaultPlan d;
    return ParamSet()
        .with("loss", d.loss)
        .with("ge_p", d.ge_p)
        .with("ge_r", d.ge_r)
        .with("ge_loss_good", d.ge_loss_good)
        .with("ge_loss_bad", d.ge_loss_bad)
        .with("delay_min", d.delay_min)
        .with("delay_max", d.delay_max)
        .with("crash_frac", d.crash_frac)
        .with("crash_round", d.crash_round)
        .with("recover_after", d.recover_after)
        .with("fault_seed", d.fault_seed);
  }();
  return defaults;
}

FaultPlan fault_plan_from_params(const ParamSet& params) {
  FaultPlan plan;
  plan.loss = params.get_double_or("loss", plan.loss);
  plan.ge_p = params.get_double_or("ge_p", plan.ge_p);
  plan.ge_r = params.get_double_or("ge_r", plan.ge_r);
  plan.ge_loss_good = params.get_double_or("ge_loss_good", plan.ge_loss_good);
  plan.ge_loss_bad = params.get_double_or("ge_loss_bad", plan.ge_loss_bad);
  plan.delay_min = params.get_count_or("delay_min", plan.delay_min);
  plan.delay_max = params.get_count_or("delay_max", plan.delay_max);
  plan.crash_frac = params.get_double_or("crash_frac", plan.crash_frac);
  plan.crash_round = params.get_count_or("crash_round", plan.crash_round);
  plan.recover_after = params.get_count_or("recover_after", plan.recover_after);
  plan.fault_seed = params.get_count_or("fault_seed", plan.fault_seed);
  plan.validate();
  return plan;
}

FaultPlan parse_fault_plan(const std::string& csv) {
  const ParamSet overrides = parse_params_csv(csv, &fault_param_defaults());
  const ParamSet merged =
      merge_params(fault_param_defaults(), overrides, "fault plan");
  return fault_plan_from_params(merged);
}

std::uint64_t fault_mix(std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t round, std::uint64_t a,
                        std::uint64_t b) noexcept {
  // Chained SplitMix64 finalizers over the key tuple: cheap, stateless and
  // well-mixed (each splitmix64 step is a bijective avalanche).
  std::uint64_t s = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  std::uint64_t h = splitmix64(s);
  s ^= round + 0x9e3779b97f4a7c15ULL;
  h ^= splitmix64(s);
  s ^= (a << 1) + 0xbf58476d1ce4e5b9ULL;
  h ^= splitmix64(s);
  s ^= (b << 1) + 0x94d049bb133111ebULL;
  h ^= splitmix64(s);
  return h;
}

double fault_uniform(std::uint64_t seed, std::uint64_t salt,
                     std::uint64_t round, std::uint64_t a,
                     std::uint64_t b) noexcept {
  return static_cast<double>(fault_mix(seed, salt, round, a, b) >> 11) *
         0x1.0p-53;
}

FaultEngine::FaultEngine(const FaultPlan& plan, NodeId n,
                         std::size_t directed_edges, std::uint64_t net_seed)
    : plan_(plan),
      seed_(plan.fault_seed != 0 ? plan.fault_seed
                                 : net_seed ^ 0xfa017ba5eba11ULL) {
  plan_.validate();

  if (plan_.ge_p > 0.0) {
    pi_bad_ = plan_.ge_p / (plan_.ge_p + plan_.ge_r);
    decay_ = 1.0 - plan_.ge_p - plan_.ge_r;
    // State packed as (last_round << 1 | bad); every edge starts at round 0
    // in the chain's stationary distribution (keyed per-edge draw), so the
    // marginal loss rate is stationary from the first round.
    ge_state_.resize(directed_edges);
    for (std::size_t e = 0; e < directed_edges; ++e) {
      const bool bad = fault_uniform(seed_, kSaltGeInit, 0, e, 0) < pi_bad_;
      ge_state_[e] = bad ? 1 : 0;
    }
  }

  if (plan_.delay_max > 0) arrival_.assign(directed_edges, 0);

  if (plan_.crash_frac > 0.0) {
    crash_round_.assign(n, kNever);
    recover_round_.assign(n, kNever);
    for (NodeId v = 0; v < n; ++v) {
      if (fault_uniform(seed_, kSaltCrash, 0, v, 0) < plan_.crash_frac) {
        crash_round_[v] = plan_.crash_round;
        if (plan_.recover_after > 0) {
          recover_round_[v] = plan_.crash_round + plan_.recover_after;
        }
      }
    }
  }
}

bool FaultEngine::lose(std::size_t edge, NodeId src, NodeId dst,
                       std::uint64_t round) {
  if (plan_.loss > 0.0 &&
      fault_uniform(seed_, kSaltLoss, round, src, dst) < plan_.loss) {
    return true;
  }
  if (plan_.loss_hook) {
    const double h = plan_.loss_hook(src, dst);
    if (h > 0.0 &&
        fault_uniform(seed_, kSaltHookLoss, round, src, dst) < h) {
      return true;
    }
  }
  if (!ge_state_.empty()) {
    std::uint64_t& packed = ge_state_[edge];
    const std::uint64_t last = packed >> 1;
    bool bad = (packed & 1) != 0;
    if (round > last) {
      // Exact t-step advance: P(bad now | state at `last`) has the closed
      // form below, so one keyed draw replaces t chain steps without
      // changing the distribution (this is what keeps fast-forwarded idle
      // stretches O(1) and the chain independent of evaluation cadence).
      const double drift =
          std::pow(decay_, static_cast<double>(round - last));
      const double p_bad = pi_bad_ + ((bad ? 1.0 : 0.0) - pi_bad_) * drift;
      bad = fault_uniform(seed_, kSaltGeStep, round, edge, 0) < p_bad;
      packed = (round << 1) | (bad ? 1 : 0);
    }
    const double p_loss = bad ? plan_.ge_loss_bad : plan_.ge_loss_good;
    if (p_loss > 0.0 &&
        fault_uniform(seed_, kSaltGeLoss, round, src, dst) < p_loss) {
      return true;
    }
  }
  return false;
}

std::uint64_t FaultEngine::delay_of(std::size_t edge, NodeId src, NodeId dst,
                                    std::uint64_t round) {
  if (plan_.delay_max == 0) return 0;
  const std::uint64_t span = plan_.delay_max - plan_.delay_min + 1;
  const std::uint64_t jitter =
      fault_mix(seed_, kSaltDelay, round, src, dst) % span;
  std::uint64_t due = round + plan_.delay_min + jitter;
  // FIFO clamp: jitter must never reorder a link's stream (the wire format
  // carries no sequence numbers). Messages may share an arrival round —
  // the delivery buckets keep staging order within one.
  std::uint64_t& watermark = arrival_[edge];
  due = std::max(due, watermark);
  nc_invariant(due >= watermark && due >= round,
               "per-edge FIFO watermark must be monotone and never in the "
               "past — jitter may not reorder a link's stream");
  watermark = due;
  return due - round;
}

}  // namespace nc
