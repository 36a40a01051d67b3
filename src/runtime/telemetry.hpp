#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/accounting.hpp"
#include "util/paramset.hpp"

namespace nc {

class JsonWriter;

/// Observation record of one execution: the sink a TelemetryPlan points at.
/// Owned by the caller (driver / CLI / sweep runner), filled by the engine,
/// read after the run through the writers below. Everything in here is
/// derived from counters the engine already maintains — recording never
/// feeds back into a simulation decision, which is what makes the
/// observer-effect contract (telemetry on/off runs are bit-identical)
/// testable rather than aspirational.
struct Telemetry {
  /// Column-oriented per-round metrics. One row per *sampled* round
  /// (every `stride`-th round, capped at `max_samples` rows); each row
  /// covers the window since the previous sample, so windowed columns
  /// (wakeups, delivered, bits, ...) sum to the run totals when stride > 1.
  struct Metrics {
    std::uint64_t stride = 1;  ///< echo of TelemetryPlan::stride

    std::vector<std::uint64_t> round;         ///< sampled round numbers
    std::vector<std::uint64_t> active_links;  ///< links pending after the round
    std::vector<std::uint64_t> wakeups;       ///< on_round callbacks in window
    std::vector<std::uint64_t> staged;        ///< lane messages staged in window,
                                              ///< summed over shards
    std::vector<std::uint64_t> delivered;     ///< messages delivered in window
    std::vector<std::uint64_t> lost;          ///< fault-engine drops in window
    std::vector<std::uint64_t> delayed;       ///< delay deferrals in window
    std::vector<std::uint64_t> retransmitted; ///< ARQ resends in window
    std::vector<std::uint64_t> fec_parks;     ///< FEC head-of-line parks
    std::vector<std::uint64_t> bits;          ///< wire bits in window

    /// Shard load balance: min/max/mean of the per-shard staged-message
    /// counts accumulated over the window — the imbalance number the
    /// multicore work steers by.
    std::vector<std::uint64_t> shard_staged_min;
    std::vector<std::uint64_t> shard_staged_max;
    std::vector<double> shard_staged_mean;

    /// Per-kind wire bits in the window, flattened row-major:
    /// row r occupies [r * kMaxMsgKinds, (r + 1) * kMaxMsgKinds).
    std::vector<std::uint64_t> bits_by_kind;

    /// Wall-clock of each sample point in microseconds since engine
    /// construction. Only filled when tracing is on too (it exists to give
    /// the trace's counter tracks timestamps) and deliberately NOT emitted
    /// by the metrics writer — metrics files stay byte-deterministic.
    std::vector<double> ts_us;

    /// Sample points skipped after the max_samples row budget filled up.
    std::uint64_t samples_dropped = 0;

    [[nodiscard]] std::size_t samples() const noexcept { return round.size(); }
  } metrics;

  /// One phase span for the Chrome trace_event output. `name` is always an
  /// engine-owned string literal ("stage", "deliver", "wake",
  /// "alarm"); tid 0 is the engine's serial track, tid s+1 is shard s.
  struct Span {
    const char* name = "";
    std::uint32_t tid = 0;
    std::uint64_t round = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
  };
  std::vector<Span> spans;
  std::uint64_t spans_dropped = 0;  ///< spans discarded past max_spans

  /// One named protocol probe: a counter (sampled as its cumulative total)
  /// or a gauge (sampled as the sum of probe_add deltas in the window).
  /// `value` is aligned with metrics.round; series registered after
  /// sampling started are zero-padded at the front. Sorted by name at
  /// flush, so the output order is independent of registration order (and
  /// therefore of thread count).
  struct ProbeSeries {
    std::string name;
    bool counter = true;
    std::vector<std::uint64_t> value;
    std::uint64_t total = 0;
  };
  std::vector<ProbeSeries> probes;

  // Run echo, filled at flush time.
  RunStats stats;             ///< final merged RunStats of the run
  std::uint64_t n = 0;        ///< node count
  std::uint64_t threads = 1;  ///< NetConfig::threads
  std::uint64_t seed = 0;     ///< NetConfig::seed
};

/// Declarative telemetry request, plugged into NetConfig alongside
/// FaultPlan / ReliabilityPlan and parameterized through the same param-bag
/// machinery (telemetry_param_defaults declares the legal key set). The
/// `sink` pointer is attached by the driver layer, never parsed from
/// params: a plan with facets requested but no sink is inert, so a sweep
/// axis can flip tel_* keys without the runner wiring capture buffers.
struct TelemetryPlan {
  bool metrics = false;  ///< per-round metric rows (tel_metrics)
  bool trace = false;    ///< phase spans / Chrome trace (tel_trace)
  bool probes = false;   ///< protocol probe API live (tel_probes)

  /// Sample every stride-th round (1 = every round). Windowed columns
  /// cover the rounds since the previous sample, so totals are preserved.
  std::uint64_t stride = 1;

  /// Memory bounds: at most max_samples metric rows and max_spans trace
  /// spans are retained; overflow is counted (samples_dropped /
  /// spans_dropped), never silently truncated.
  std::uint64_t max_samples = 65536;
  std::uint64_t max_spans = 262144;

  /// Observation sink; owned by the caller, must outlive the Network.
  Telemetry* sink = nullptr;

  /// Facets requested (regardless of whether a sink is attached yet).
  [[nodiscard]] bool requested() const noexcept {
    return metrics || trace || probes;
  }

  /// True when the engine should be built: something is requested AND a
  /// sink is attached. The default plan keeps Network::telem_ null, so
  /// every hot-path hook is one branch on a null pointer.
  [[nodiscard]] bool any() const noexcept {
    return requested() && sink != nullptr;
  }

  /// Throws std::invalid_argument on stride == 0 or zero budgets.
  void validate() const;

  /// One-line "metrics+trace stride=8 cap=65536/262144" style rendering.
  [[nodiscard]] std::string summary() const;
};

/// The complete legal telemetry parameter set with its default (all-off)
/// values: tel_metrics, tel_trace, tel_probes (0/1 flags), tel_stride,
/// tel_max_samples, tel_max_spans. Network algorithms splice these keys
/// into their declared defaults exactly like the fault/reliability keys.
const ParamSet& telemetry_param_defaults();

/// Reads a TelemetryPlan from a param bag holding (a subset of) the
/// declared keys, validates it and returns it (sink left null).
TelemetryPlan telemetry_plan_from_params(const ParamSet& params);

/// Parses a "tel_metrics=1,tel_stride=8" CSV against the declared key set
/// (unknown keys throw with the catalogue) and validates the resulting
/// plan. The `--telemetry=` front end.
TelemetryPlan parse_telemetry_plan(const std::string& csv);

/// Post-mortem of a run that tripped a termination guard (RunStats::stalled
/// or hit_round_limit): where progress last happened and what was still
/// pending when the engine gave up. Built by Network::stall_report() from
/// state the engine keeps anyway, so it is available even with telemetry
/// off — `nearclique run` prints it on nonzero exit.
struct StallReport {
  static constexpr std::uint64_t kNone = ~0ULL;

  bool stalled = false;
  bool hit_round_limit = false;
  std::uint64_t rounds = 0;               ///< round the run stopped at
  std::uint64_t last_delivery_round = 0;  ///< last round a message arrived

  std::uint64_t nodes_total = 0;
  std::uint64_t nodes_done = 0;     ///< nodes that called set_done
  std::uint64_t nodes_crashed = 0;  ///< nodes crashed at the final round

  std::uint64_t armed_alarms = 0;  ///< nodes with a pending alarm
  std::uint64_t next_alarm_round = kNone;

  std::uint64_t delayed_in_flight = 0;  ///< delay-deferred messages pending
  std::uint64_t next_delayed_round = kNone;

  std::uint64_t fec_parked = 0;         ///< messages parked behind FEC windows
  std::uint64_t fec_pending_edges = 0;  ///< edges with an open FEC horizon

  std::uint64_t active_links = 0;  ///< links with traffic pending

  [[nodiscard]] bool triggered() const noexcept {
    return stalled || hit_round_limit;
  }

  /// Multi-line human-readable post-mortem (empty string when not
  /// triggered).
  [[nodiscard]] std::string summary() const;

  /// Complete JSON object (begin_object .. end_object) via util/json.
  void to_json(JsonWriter& w) const;
};

/// Recording engine: owned by Network when the plan is active (null
/// otherwise — the zero-cost-when-off contract lives in that null check).
/// The threading discipline mirrors the rest of the runtime: per-shard
/// accumulators are only touched by their owning shard's thread during the
/// parallel phases, and everything that orders or merges them runs in the
/// serial section at the end of each round, in ascending shard order.
class TelemetryEngine {
 public:
  /// Sentinel returned by probe registration when probes are off.
  static constexpr std::uint32_t kNoProbe = 0xffffffffu;

  TelemetryEngine(const TelemetryPlan& plan, unsigned shards);

  [[nodiscard]] bool metrics_on() const noexcept { return plan_.metrics; }
  [[nodiscard]] bool trace_on() const noexcept { return plan_.trace; }
  [[nodiscard]] bool probes_on() const noexcept { return plan_.probes; }

  /// True when the current round closes a sampling window (set by
  /// begin_round; shard code may consult it to skip per-round work on
  /// unsampled rounds).
  [[nodiscard]] bool sampled() const noexcept { return sampled_; }

  /// Engine epoch in wall-clock nanoseconds (set once by Network before
  /// round 1; the engine itself never reads a clock).
  void set_epoch_ns(std::uint64_t ns) noexcept { epoch_ns_ = ns; }
  [[nodiscard]] std::uint64_t epoch_ns() const noexcept { return epoch_ns_; }

  /// Serial, top of each round.
  void begin_round(std::uint64_t round);

  /// Registers (or looks up) a named probe; thread-safe — nodes call this
  /// from on_start, which runs shard-parallel. Returns kNoProbe when
  /// probes are off. A name keeps the kind of its first registration.
  std::uint32_t register_probe(const char* name, bool counter);

  /// Charges `delta` to a probe from shard `shard`'s thread. Wait-free per
  /// shard: the outer table is sized at construction and each inner vector
  /// is only touched by its owning shard.
  void probe_add(unsigned shard, std::uint32_t probe,
                 std::uint64_t delta) {
    if (probe == kNoProbe) return;
    auto& v = shard_probe_deltas_[shard];
    if (probe >= v.size()) v.resize(probe + 1, 0);
    v[probe] += delta;
  }

  /// Serial per-round drain, called once per shard in ascending shard
  /// order: folds the shard's per-round counters into the current window.
  void note_shard_round(unsigned shard, std::uint64_t wakeups,
                        std::uint64_t staged, std::uint64_t fec_parks);

  /// Appends a phase span (serial section only; bounded by max_spans).
  void add_span(const char* name, std::uint32_t tid, std::uint64_t round,
                double ts_us, double dur_us);

  /// Serial, end of each round, after note_shard_round for every shard:
  /// drains probe deltas and — on sampled rounds — appends a metric row
  /// computed as the delta of `stats` against the previous sample.
  /// `ts_us` is the sample's wall-clock offset (< 0 when tracing is off).
  void end_round(std::uint64_t round, std::uint64_t active_links,
                 const RunStats& stats, double ts_us);

  /// Copies the run echo and the (name-sorted) probe series into the sink.
  void flush(const RunStats& stats, std::uint64_t n, std::uint64_t threads,
             std::uint64_t seed);

 private:
  TelemetryPlan plan_;
  Telemetry* sink_;
  unsigned shards_;
  std::uint64_t epoch_ns_ = 0;

  bool sampled_ = false;
  std::uint64_t rounds_in_window_ = 0;
  std::uint64_t last_round_ = 0;
  std::uint64_t last_active_links_ = 0;

  // Window accumulators (reset at each emitted sample).
  std::uint64_t win_wakeups_ = 0;
  std::uint64_t win_fec_parks_ = 0;
  std::vector<std::uint64_t> win_shard_staged_;  // per shard

  // Snapshot of the merged RunStats at the previous sample (for deltas).
  std::uint64_t last_messages_ = 0;
  std::uint64_t last_bits_ = 0;
  std::uint64_t last_lost_ = 0;
  std::uint64_t last_delayed_ = 0;
  std::uint64_t last_retransmitted_ = 0;
  std::array<std::uint64_t, kMaxMsgKinds> last_bits_by_kind_{};

  // Probe registry. Registration is mutex-guarded (parallel on_start);
  // per-shard delta tables are shard-owned; totals/windows/series are only
  // touched in the serial section.
  struct ProbeState {
    std::string name;
    bool counter = true;
    std::uint64_t total = 0;
    std::uint64_t window = 0;
    std::vector<std::uint64_t> samples;
  };
  std::mutex probe_mu_;
  std::unordered_map<std::string, std::uint32_t> probe_index_;
  std::vector<ProbeState> probe_states_;
  std::vector<std::vector<std::uint64_t>> shard_probe_deltas_;
};

/// Renders a Telemetry capture as JSON lines (the --metrics format): one
/// meta line (schema tag, run echo, RunStats via RunStats::to_json, probe
/// catalogue) followed by one object per sampled round. `label` annotates
/// the meta line when non-empty (the sweep runner stamps
/// "algorithm#trial seed=S"). Byte-deterministic for fixed-seed runs at
/// any thread count — docs/observability.md documents the schema, and
/// tests/data/metrics_schema_golden.jsonl pins it.
std::string telemetry_metrics_jsonl(const Telemetry& t,
                                    const std::string& label = "");

/// Appends the capture's Chrome trace_event objects (process/thread name
/// metadata, phase spans, counter tracks when sample timestamps exist) to
/// an open JSON array. `pid` namespaces the events so a sweep can combine
/// several runs in one trace.
void telemetry_trace_events(JsonWriter& w, const Telemetry& t,
                            std::uint64_t pid,
                            const std::string& process_name);

/// Complete single-run trace document: {"traceEvents":[...]} — loadable in
/// Perfetto / chrome://tracing.
std::string telemetry_trace_json(const Telemetry& t,
                                 const std::string& process_name = "nearclique");

}  // namespace nc
