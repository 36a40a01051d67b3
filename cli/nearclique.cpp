// nearclique — the single command-line front end of the repository: any
// registered scenario family x any registered algorithm, no recompiling.
//
//   nearclique list-scenarios               scenario catalogue + defaults
//   nearclique list-algorithms              algorithm catalogue + defaults
//   nearclique run   --scenario=F [--params=k=v,..] --algo=A
//                    [--algo-params=k=v,..] [--seed=N] [--threads=N]
//                    [--faults=loss=0.05,delay_max=3,..]
//                    [--reliability=rel_mode=1,rel_max_retx=8,..]
//                    [--telemetry=tel_stride=8,..]
//                    [--metrics=FILE|-] [--trace=FILE]
//                    [--repeat=N] [--time] [--profile]
//                    [--json[=FILE]] [--dot=out.dot]
//   nearclique sweep --scenario=F [--params=..] [--algos=A,B[k=v,..],..]
//                    [--algo-params=..] [--grid=scenario.n=100:200,both.eps=0.1:0.2]
//                    [--trials=N] [--seed=N] [--seq-seeds] [--threads=N]
//                    [--faults=loss=0.05,..] [--reliability=rel_mode=1,..]
//                    [--telemetry=..] [--metrics=FILE] [--trace=FILE]
//                    [--success=none|theorem57|effective|size_density]
//                    [--success2=...] [--success-eps=..] [--success-delta=..]
//                    [--success-min-size=..] [--success-max-eps=..]
//                    [--json=FILE|-] [--title=..]
//   nearclique sweep --spec=FILE.json [--json=FILE|-] [--title=..]
//                    [--metrics=FILE] [--trace=FILE]
//
// --faults injects adversity (src/runtime/faults.hpp) into every listed
// algorithm that declares the fault keys: iid loss (loss=), bursty
// Gilbert–Elliott loss (ge_p=,ge_r=,ge_loss_good=,ge_loss_bad=), integer
// link delay (delay_min=,delay_max=), and node churn
// (crash_frac=,crash_round=,recover_after=). Decisions are keyed hashes of
// (fault seed, round, src, dst), so faulty fixed-seed runs stay
// bit-identical at every --threads value. Individual fault keys also work
// as ordinary --algo-params entries and --grid axes (e.g.
// --grid=algo.loss=0:0.05:0.1 sweeps the loss rate).
//
// --reliability arms the stage/deliver reliability service
// (src/runtime/reliability.hpp) against that adversity, with the same
// distribution rule: rel_mode=1 is per-stream ACK + retransmission
// (rel_ack_timeout=, rel_max_retx=), rel_mode=2 is k-of-n erasure coding
// over round windows (rel_fec_window=, rel_fec_repair=). Reliability
// decisions are keyed hashes too, so protected runs stay bit-identical at
// every --threads value; rel_* keys also work as --algo-params entries and
// --grid axes.
//
// --metrics=FILE / --trace=FILE capture runtime telemetry
// (src/runtime/telemetry.hpp, docs/observability.md): --metrics writes
// per-round metric rows as JSON lines, --trace writes phase spans as a
// Chrome trace_event document (load in Perfetto / chrome://tracing; --trace
// also arms the protocol probe counters so they appear as counter tracks).
// --telemetry=tel_stride=8,tel_max_spans=10000 tunes sampling stride and
// memory bounds; tel_* keys also work as --algo-params entries. Telemetry
// is observation only — fixed-seed labels and RunStats are bit-identical
// with it on or off, at every --threads value. On a sweep the capture
// files concatenate every telemetry-enabled trial (metrics rows carry an
// "algorithm#row/trial seed=S" label; trace events get one pid per trial).
//
// --spec=FILE runs a sweep from a JSON spec document (the serialized
// SweepSpec — see src/expt/README.md), round-tripping every field
// including the faults and telemetry plans; --title, --json, --metrics and
// --trace still apply on top, and every other sweep flag is rejected (it
// would be silently dead).
//
// Per-algorithm bracket parameters — `shingles[eps=0.2,min_size=4]` — are
// the canonical way to parameterize a sweep's algorithms: each algorithm
// gets exactly the keys it declares. The shared --algo-params form applies
// every key to EVERY listed algorithm, which fails validation as soon as
// one algorithm doesn't declare it; with more than one algorithm the CLI
// warns that the mix is ambiguous and recommends brackets.
//
// --threads=N shards delivery and wake dispatch over N threads for the
// network-backed algorithms that declare the knob (dist_near_clique).
// Purely a performance knob: fixed-seed results are bit-identical at every
// thread count, so sweeps stay reproducible.
//
// Examples (see src/expt/README.md for the architecture):
//
//   nearclique run --scenario=planted_near_clique --algo=dist_near_clique
//                  --algo-params=eps=0.2,pn=9 --seed=7
//   nearclique sweep --scenario=theorem --algos=dist_near_clique,peeling
//                    --grid=both.eps=0.1:0.2 --trials=4 --success=theorem57
//                    --json=-
//
// `sweep --json=-` emits one JSON object per line on stdout (the table goes
// to stderr), so results pipe straight into jq / pandas.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "expt/scenario.hpp"
#include "expt/sweep.hpp"
#include "graph/dot.hpp"
#include "graph/metrics.hpp"
#include "runtime/telemetry.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace nc;

int usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: nearclique <command> [--flags]\n"
      "  list-scenarios            registered scenario families\n"
      "  list-algorithms           registered algorithms\n"
      "  run    --scenario=F --algo=A [--params=..] [--algo-params=..]\n"
      "         [--seed=N] [--threads=N] [--faults=loss=0.05,..]\n"
      "         [--reliability=rel_mode=1,..] [--telemetry=tel_stride=8,..]\n"
      "         [--metrics=FILE|-] [--trace=FILE]\n"
      "         [--repeat=N] [--time] [--profile] [--json[=FILE]]\n"
      "         [--dot=out.dot]\n"
      "  sweep  --scenario=F [--algos=A,B[k=v,..]] [--params=..]\n"
      "         [--grid=scenario.k=v1:v2,algo.k=..,both.k=..] [--trials=N]\n"
      "         [--seed=N] [--seq-seeds] [--threads=N] [--faults=..]\n"
      "         [--reliability=..] [--telemetry=..]\n"
      "         [--metrics=FILE] [--trace=FILE]\n"
      "         [--success=PRED] [--success2=PRED] [--json=FILE|-]\n"
      "  sweep  --spec=FILE.json [--json=FILE|-] [--title=..]\n"
      "         [--metrics=FILE] [--trace=FILE]\n"
      "per-algorithm params belong in brackets: --algos='a[eps=0.2],b'\n"
      "(the canonical form; a shared --algo-params list applies every key\n"
      "to every algorithm and is ambiguous with more than one).\n"
      "--threads=N shards delivery across N threads for algorithms that\n"
      "declare the knob; fixed-seed results are identical at any N.\n"
      "--faults=loss=0.05,delay_max=3,crash_frac=0.01 injects message\n"
      "loss / link delay / node churn into declaring algorithms; fault\n"
      "keys also work as --algo-params entries and --grid axes.\n"
      "--reliability=rel_mode=1 arms ACK/retransmission (rel_mode=2: FEC)\n"
      "against that loss for declaring algorithms; same key rules.\n"
      "--metrics=FILE writes per-round metrics as JSON lines; --trace=FILE\n"
      "writes a Chrome trace_event document (open in Perfetto) and arms the\n"
      "protocol probes. --telemetry=tel_stride=8,.. tunes sampling/bounds.\n"
      "Telemetry never changes results (docs/observability.md).\n"
      "--spec=FILE.json replays a serialized sweep spec (every field,\n"
      "faults included; see src/expt/README.md for the schema).\n"
      "run --repeat=N --time re-runs the fixed-seed execution N times and\n"
      "reports min/median/mean wall-clock (scenario build excluded).\n"
      "run --profile adds engine per-phase seconds (stage/deliver/wake),\n"
      "the per-round arena high-water (all shards, largest shard; staged\n"
      "copy records and the deliver phase's sort references), the copies\n"
      "to done nodes charged at stage time and inbox/link pool bytes\n"
      "(carved, live) to the text and JSON output.\n");
  return to == stdout ? 0 : 2;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Parses "--grid=scenario.n=100:200,both.eps=0.1:0.2" into sweep axes.
std::vector<SweepAxis> parse_grid(const std::string& grid) {
  std::vector<SweepAxis> axes;
  for (const auto& item : split(grid, ',')) {
    const auto eq = item.find('=');
    const auto dot = item.find('.');
    if (eq == std::string::npos || dot == std::string::npos || dot > eq) {
      throw std::invalid_argument(
          "malformed grid axis '" + item +
          "' (expected scenario.key=v1:v2, algo.key=.. or both.key=..)");
    }
    SweepAxis axis;
    const std::string target = item.substr(0, dot);
    if (target == "scenario") {
      axis.target = SweepAxis::Target::kScenario;
    } else if (target == "algo" || target == "algorithm") {
      axis.target = SweepAxis::Target::kAlgorithm;
    } else if (target == "both") {
      axis.target = SweepAxis::Target::kBoth;
    } else {
      throw std::invalid_argument("unknown grid target '" + target +
                                  "' in '" + item +
                                  "'; use scenario., algo. or both.");
    }
    axis.key = item.substr(dot + 1, eq - dot - 1);
    for (const auto& v : split(item.substr(eq + 1), ':')) {
      axis.values.push_back(parse_number(v, "grid value"));
    }
    if (axis.key.empty() || axis.values.empty()) {
      throw std::invalid_argument("grid axis '" + item +
                                  "' needs a key and at least one value");
    }
    axes.push_back(std::move(axis));
  }
  return axes;
}

/// Splits an --algos list on the commas outside [...] brackets.
std::vector<std::string> split_algos(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  for (const char c : text) {
    if (c == '[') ++depth;
    if (c == ']') --depth;
    if (c == ',' && depth == 0) {
      if (!current.empty()) out.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

/// Parses one --algos entry, "name" or "name[k=v,...]"; bracketed
/// parameters override the shared --algo-params for this algorithm.
AlgoSpec parse_algo_item(const std::string& item,
                         const std::string& shared_params) {
  const auto bracket = item.find('[');
  if (bracket == std::string::npos) {
    return parse_algo_spec(item, shared_params, /*seed=*/1);
  }
  if (item.back() != ']') {
    throw std::invalid_argument("malformed --algos entry '" + item +
                                "' (expected name[k=v,...])");
  }
  const std::string name = item.substr(0, bracket);
  AlgoSpec spec = parse_algo_spec(name, shared_params, /*seed=*/1);
  const AlgoSpec own = parse_algo_spec(
      name, item.substr(bracket + 1, item.size() - bracket - 2), /*seed=*/1);
  for (const auto& [key, value] : own.params.values()) {
    spec.params.with(key, value);
  }
  for (const auto& [key, value] : own.params.strings()) {
    spec.params.with(key, value);
  }
  return spec;
}

SuccessSpec success_from_args(const Args& args, const std::string& flag) {
  SuccessSpec spec = parse_success_spec(args.get(flag, "none"));
  spec.eps = args.get_double("success-eps", spec.eps);
  spec.delta = args.get_double("success-delta", spec.delta);
  spec.min_size = args.get_double("success-min-size", spec.min_size);
  spec.max_eps = args.get_double("success-max-eps", spec.max_eps);
  return spec;
}

/// Parses and validates --seed (>= 0; default 1).
std::uint64_t seed_from_args(const Args& args) {
  const auto seed = args.get_int("seed", 1);
  if (seed < 0) {
    throw std::invalid_argument("--seed must be >= 0, got " +
                                std::to_string(seed));
  }
  return static_cast<std::uint64_t>(seed);
}

/// Parses and validates --threads (delivery sharding; >= 1).
long long threads_from_args(const Args& args) {
  const auto threads = args.get_int("threads", 1);
  if (threads < 1) {
    throw std::invalid_argument("--threads must be >= 1, got " +
                                std::to_string(threads));
  }
  return threads;
}

/// The plan the capture flags (--metrics / --trace) feed.
constexpr const char* kCapturePlan = "telemetry";

/// `flags` plus one flag per runtime plan (--faults, --reliability,
/// --telemetry), named as runtime_plans() registers them.
std::vector<std::string> with_plan_flags(std::vector<std::string> flags) {
  for (const auto& plan : runtime_plans()) flags.push_back(plan.name);
  return flags;
}

/// Forwards a run-wide knob's bag (`flag` names it: threads, profile or a
/// plan) into one algorithm's params by the shared forward_params rule,
/// and says so on stderr when the algorithm declares none of its keys
/// (centralized baselines have no network to shard, disturb or watch).
void forward_or_note(AlgoSpec& spec, const ParamSet& bag,
                     const std::string& flag) {
  if (bag.values().empty() || forward_params(spec.name, bag, spec.params)) {
    return;
  }
  const std::string flags = flag == kCapturePlan
                                ? "--telemetry/--metrics/--trace"
                                : "--" + flag;
  std::fprintf(stderr,
               "note: algorithm '%s' declares no %s parameter; %s ignored "
               "for it\n",
               spec.name.c_str(), flag.c_str(), flags.c_str());
}

/// Parses every plan flag (--faults, --reliability, --telemetry) into its
/// validated override bag, keyed by plan name (empty when the flag is
/// absent). Unknown keys and out-of-range values fail here, before anything
/// runs.
std::map<std::string, ParamSet> plans_from_args(const Args& args) {
  std::map<std::string, ParamSet> plans;
  for (const auto& plan : runtime_plans()) {
    plans[plan.name] =
        parse_params_csv(args.get(plan.name, ""), &plan.defaults());
    validate_plan_params(plan.name, plans[plan.name]);
  }
  return plans;
}

/// Reads a capture-file flag (--metrics / --trace): empty string when the
/// flag is absent, throws on a bare flag with no target.
std::string capture_path(const Args& args, const char* flag) {
  if (!args.has(flag)) return {};
  const std::string path = args.get(flag);
  if (path.empty() || path == "1") {
    throw std::invalid_argument(std::string("--") + flag +
                                " needs a target (--" + std::string(flag) +
                                "=FILE, or - for stdout)");
  }
  return path;
}

/// Arms the tel_* facets implied by the capture flags on top of an explicit
/// --telemetry / spec bag: --metrics needs metric rows, --trace needs phase
/// spans and (for the counter tracks) the protocol probes. Explicit keys
/// win, so --telemetry=tel_probes=0 --trace=t.json still disables probes.
void arm_capture_facets(std::map<std::string, ParamSet>& plans, bool metrics,
                        bool trace) {
  ParamSet& telemetry = plans[kCapturePlan];
  if (metrics && !telemetry.has("tel_metrics")) {
    telemetry.with("tel_metrics", 1);
  }
  if (trace) {
    if (!telemetry.has("tel_trace")) telemetry.with("tel_trace", 1);
    if (!telemetry.has("tel_probes")) telemetry.with("tel_probes", 1);
  }
}

/// Writes a telemetry capture to `path` ("-" = stdout); false after an
/// error message when the file cannot be opened. The "wrote" notice goes to
/// stderr so --json=- output stays clean JSON.
bool write_capture(const std::string& path, const std::string& text,
                   const char* what) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  std::fprintf(stderr, "wrote %s to %s\n", what, path.c_str());
  return true;
}

/// "algorithm#row/trial seed=S" — stamps a sweep capture entry so the rows
/// of a concatenated metrics file (and the process names of a combined
/// trace) stay attributable to their trial.
std::string capture_label(const TelemetryCapture::Entry& e) {
  return e.algorithm + "#" + std::to_string(e.row) + "/" +
         std::to_string(e.trial) + " seed=" + std::to_string(e.seed);
}

int cmd_run(const Args& args) {
  args.reject_unknown(
      "run", with_plan_flags({"scenario", "params", "algo", "algo-params",
                              "seed", "threads", "metrics", "trace", "repeat",
                              "time", "profile", "json", "dot"}));
  const auto scenario = args.get("scenario", "planted_near_clique");
  const auto algo = args.get("algo", "dist_near_clique");
  const std::uint64_t seed = seed_from_args(args);

  const ScenarioSpec sspec =
      parse_scenario_spec(scenario, args.get("params", ""), seed);
  AlgoSpec aspec = parse_algo_spec(algo, args.get("algo-params", ""), seed);
  const long long threads = threads_from_args(args);
  if (threads > 1) {
    forward_or_note(aspec, ParamSet().with("threads", threads), "threads");
  }

  // Telemetry: --metrics/--trace pick capture targets and arm the matching
  // tel_* facets; --telemetry tunes stride/bounds (and wins on conflicts).
  const std::string metrics_path = capture_path(args, "metrics");
  const std::string trace_path = capture_path(args, "trace");
  auto plans = plans_from_args(args);
  arm_capture_facets(plans, !metrics_path.empty(), !trace_path.empty());
  for (const auto& [name, overrides] : plans) {
    forward_or_note(aspec, overrides, name);
  }

  // --profile: opt-in engine per-phase profiling (an explicit
  // --algo-params=profile=.. wins).
  const bool profiled = args.get_bool("profile");
  if (profiled) {
    forward_or_note(aspec, ParamSet().with("profile", 1), "profile");
  }

  // --repeat=N re-runs the (fixed-seed, hence identical) execution N times
  // and --time reports min/median/mean wall-clock over the repeats — the
  // scenario build is excluded, so the numbers isolate the engine+protocol.
  // min is the honest headline on a noisy machine; median shows the spread.
  const auto repeat = args.get_int("repeat", 1);
  if (repeat < 1) {
    throw std::invalid_argument("--repeat must be >= 1, got " +
                                std::to_string(repeat));
  }
  const bool timed = args.get_bool("time");

  const Instance inst = ScenarioRegistry::global().make(sspec);
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(repeat));
  std::optional<AlgoResult> last;
  for (long long i = 0; i < repeat; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    last = AlgorithmRegistry::global().run(inst.graph, aspec);
    seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  const AlgoResult& result = *last;
  const auto clusters = result.clusters();

  // Stall post-mortem: an aborted run (stall guard / round limit) exits
  // nonzero with the engine's diagnosis on stderr, so scripts can tell
  // "protocol found nothing" (exit 0, empty clusters) from "the run never
  // finished". Capture files are still written below — a trace of a
  // stalled run is exactly what you want to look at.
  const int exit_code = result.aborted ? 3 : 0;
  if (result.aborted) {
    std::fprintf(stderr, "%s", result.stall.summary().c_str());
  }

  // Telemetry capture outputs. A missing sink despite a capture flag means
  // the request never reached a network run (apply_telemetry warned).
  if (!metrics_path.empty() || !trace_path.empty()) {
    if (result.telemetry == nullptr) {
      std::fprintf(stderr,
                   "note: no telemetry captured (algorithm '%s' ran "
                   "without tel_* parameters)\n",
                   algo.c_str());
    } else {
      if (!metrics_path.empty() &&
          !write_capture(metrics_path,
                         telemetry_metrics_jsonl(*result.telemetry),
                         "metrics")) {
        return 2;
      }
      if (!trace_path.empty() &&
          !write_capture(trace_path,
                         telemetry_trace_json(*result.telemetry) + "\n",
                         "trace")) {
        return 2;
      }
    }
  }

  std::vector<double> sorted = seconds;
  std::sort(sorted.begin(), sorted.end());
  const double t_min = sorted.front();
  const double t_median = sorted[sorted.size() / 2];
  double t_mean = 0;
  for (const double s : seconds) t_mean += s;
  t_mean /= static_cast<double>(seconds.size());

  const auto overlap_of = [&](const std::vector<NodeId>& members) {
    std::size_t overlap = 0;
    for (const NodeId v : members) {
      if (std::binary_search(inst.planted.begin(), inst.planted.end(), v)) {
        ++overlap;
      }
    }
    return overlap;
  };

  if (args.has("json")) {
    // Bare --json (Args stores "1") and --json=- print to stdout; any other
    // value is a file path, matching sweep's --json=FILE.
    const std::string target = args.get("json");
    JsonWriter w;
    w.begin_object();
    w.key("scenario").begin_object().key("family").value(scenario);
    w.key("seed").value(seed);
    w.key("n").value(static_cast<std::uint64_t>(inst.graph.n()));
    w.key("m").value(static_cast<std::uint64_t>(inst.graph.m()));
    w.key("planted").value(static_cast<std::uint64_t>(inst.planted.size()));
    w.end_object();
    w.key("algorithm")
        .begin_object()
        .key("name")
        .value(algo)
        .key("model")
        .value(cost_model_name(result.model))
        .end_object();
    w.key("rounds").value(result.stats.rounds);
    w.key("bits").value(result.stats.bits);
    w.key("max_msg_bits").value(result.stats.max_message_bits);
    w.key("local_ops").value(result.local_ops);
    w.key("aborted").value(result.aborted);
    // Full engine counters as one object (the legacy top-level keys above
    // stay for existing consumers; "stats" is the complete record).
    w.key("stats");
    result.stats.to_json(w);
    if (result.aborted) {
      w.key("stall");
      result.stall.to_json(w);
    }
    if (profiled) {
      w.key("profile");
      result.profile.to_json(w);
    }
    if (timed) {
      w.key("timing")
          .begin_object()
          .key("repeats")
          .value(static_cast<std::uint64_t>(seconds.size()))
          .key("min_seconds")
          .value(t_min)
          .key("median_seconds")
          .value(t_median)
          .key("mean_seconds")
          .value(t_mean)
          .end_object();
    }
    w.key("clusters").begin_array();
    for (const auto& [label, members] : clusters) {
      w.begin_object()
          .key("label")
          .value(static_cast<std::uint64_t>(label))
          .key("size")
          .value(static_cast<std::uint64_t>(members.size()))
          .key("density")
          .value(set_density(inst.graph, members))
          .key("planted_overlap")
          .value(static_cast<std::uint64_t>(overlap_of(members)))
          .end_object();
    }
    w.end_array();
    w.end_object();
    if (target.empty() || target == "1" || target == "-") {
      std::printf("%s\n", w.str().c_str());
    } else {
      std::ofstream out(target);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", target.c_str());
        return 2;
      }
      out << w.str() << "\n";
      std::printf("wrote %s\n", target.c_str());
    }
    return exit_code;
  }

  std::printf("scenario %s (seed %llu): n=%u, m=%zu, planted=%zu",
              scenario.c_str(), static_cast<unsigned long long>(seed),
              inst.graph.n(), inst.graph.m(), inst.planted.size());
  if (!inst.planted.empty()) {
    std::printf(", density(planted)=%.4f",
                set_density(inst.graph, inst.planted));
  }
  std::printf("\nalgorithm %s [%s]: %s\n", algo.c_str(),
              cost_model_name(result.model), result.cost_summary().c_str());
  if (timed) {
    std::printf("wall-clock over %zu run%s: min %.3fs, median %.3fs, "
                "mean %.3fs\n",
                seconds.size(), seconds.size() == 1 ? "" : "s", t_min,
                t_median, t_mean);
  }
  if (profiled) {
    // Per-phase engine seconds of the last run; the arena high-water is
    // the per-round transient storage (the lanes' copy records and the
    // deliver phase's sort references), summed over shards and for the
    // largest one; done copies never entered a lane (their destination was
    // done when they were staged); the pool bytes are the carved and
    // still-live cross-round storage at the end of the run.
    const NetProfile& pr = result.profile;
    std::printf(
        "per-phase: stage %.3fs, deliver %.3fs, wake %.3fs; "
        "arena bytes total %llu, peak shard %llu; done copies %llu; "
        "inbox bytes carved %llu, live %llu; link bytes carved %llu, "
        "live %llu\n",
        pr.stage_seconds, pr.deliver_seconds, pr.wake_seconds,
        static_cast<unsigned long long>(pr.arena_bytes_total),
        static_cast<unsigned long long>(pr.arena_bytes_peak_shard),
        static_cast<unsigned long long>(pr.done_copies),
        static_cast<unsigned long long>(pr.inbox_bytes_carved),
        static_cast<unsigned long long>(pr.inbox_bytes_live),
        static_cast<unsigned long long>(pr.link_bytes_carved),
        static_cast<unsigned long long>(pr.link_bytes_live));
  }
  std::printf("near-cliques found: %zu\n", clusters.size());
  for (const auto& [label, members] : clusters) {
    std::printf("  label %llu: %zu nodes, density %.4f, %zu/%zu of planted\n",
                static_cast<unsigned long long>(label), members.size(),
                set_density(inst.graph, members), overlap_of(members),
                inst.planted.size());
  }
  if (clusters.empty()) {
    std::printf(
        "  none — randomized algorithms succeed with constant probability; "
        "try another --seed\n");
  }
  if (args.has("dot")) {
    const auto path = args.get("dot");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 2;
    }
    out << to_dot(inst.graph, clusters);
    std::printf("wrote %s (render with: dot -Tsvg %s)\n", path.c_str(),
                path.c_str());
  }
  return exit_code;
}

int cmd_sweep(const Args& args) {
  // The flags that define the experiment; a --spec document defines it
  // instead, so spec mode rejects them.
  const std::vector<std::string> experiment = with_plan_flags(
      {"scenario", "params", "algos", "algo", "algo-params", "grid", "trials",
       "seed", "seq-seeds", "threads", "success", "success2", "success-eps",
       "success-delta", "success-min-size", "success-max-eps"});
  std::vector<std::string> flags = experiment;
  flags.insert(flags.end(), {"spec", "title", "json", "metrics", "trace"});
  args.reject_unknown("sweep", flags);
  SweepSpec spec;
  if (args.has("spec")) {
    // Spec-file mode: the JSON document is the whole configuration;
    // --title and the --json output target still apply on top. Any other
    // experiment-defining flag would be silently dead, so reject it.
    for (const auto& flag : experiment) {
      if (args.has(flag)) {
        throw std::invalid_argument(
            "--" + flag +
            " cannot be combined with --spec; put it in the spec document "
            "(only --title, --json, --metrics and --trace apply on top)");
      }
    }
    const std::string path = args.get("spec");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read spec file %s\n", path.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    spec = sweep_spec_from_json(buf.str());
    if (args.has("title")) spec.title = args.get("title");
    if (spec.title.empty()) spec.title = "nearclique sweep";
  } else {
    if (!args.has("scenario")) {
      std::fprintf(stderr,
                   "error: sweep requires --scenario=FAMILY or --spec=FILE "
                   "(see nearclique list-scenarios)\n");
      return 2;
    }
    spec.title = args.get("title", "nearclique sweep");
    spec.scenario_family = args.get("scenario");
    const ScenarioSpec base = parse_scenario_spec(
        spec.scenario_family, args.get("params", ""), /*seed=*/1);
    spec.scenario_params = base.params;
    for (const auto& item : split_algos(
             args.get("algos", args.get("algo", "dist_near_clique")))) {
      spec.algorithms.push_back(
          parse_algo_item(item, args.get("algo-params", "")));
    }
    // Bracket params are the canonical per-algorithm form; a shared
    // --algo-params list silently applies every key to every algorithm,
    // which is ambiguous (and usually a validation error) in a comparison.
    if (!args.get("algo-params", "").empty() && spec.algorithms.size() > 1) {
      std::fprintf(stderr,
                   "warning: --algo-params applies every key to all %zu "
                   "listed algorithms; prefer per-algorithm brackets, e.g. "
                   "--algos='dist_near_clique[eps=0.2],peeling[eps=0.2]'\n",
                   spec.algorithms.size());
    }
    spec.axes = parse_grid(args.get("grid", ""));
    spec.threads = static_cast<std::size_t>(threads_from_args(args));
    spec.plans = plans_from_args(args);
    const auto trials = args.get_int("trials", 5);
    if (trials < 1) {
      throw std::invalid_argument("--trials must be >= 1, got " +
                                  std::to_string(trials));
    }
    spec.trials = static_cast<std::size_t>(trials);
    spec.seed_base = seed_from_args(args);
    spec.seeds = args.get_bool("seq-seeds") ? SeedSchedule::kSequential
                                            : SeedSchedule::kSalted;
    spec.success = success_from_args(args, "success");
    spec.success2 = success_from_args(args, "success2");
  }
  // Capture targets apply on top of both entry paths (like --json): the
  // implied tel_* facets land in the telemetry plan, where the sweep runner
  // distributes them to declaring algorithms.
  const std::string metrics_path = capture_path(args, "metrics");
  const std::string trace_path = capture_path(args, "trace");
  arm_capture_facets(spec.plans, !metrics_path.empty(), !trace_path.empty());

  // Notes for both entry paths: sharding and plans only reach algorithms
  // that declare their keys; say so instead of silently running the rest
  // serial/clean. run_sweep forwards the same bags itself, so the probe
  // copy only collects the notes.
  for (const auto& algo : spec.algorithms) {
    AlgoSpec probe = algo;
    if (spec.threads > 1) {
      forward_or_note(probe, ParamSet().with("threads", spec.threads),
                      "threads");
    }
    for (const auto& [name, overrides] : spec.plans) {
      forward_or_note(probe, overrides, name);
    }
  }

  TelemetryCapture capture;
  const bool capturing = !metrics_path.empty() || !trace_path.empty();
  const auto rows = run_sweep(spec, capturing ? &capture : nullptr);

  if (capturing) {
    if (capture.entries.empty()) {
      std::fprintf(stderr,
                   "note: no telemetry captured (no listed algorithm ran "
                   "with tel_* parameters)\n");
    } else {
      if (!metrics_path.empty()) {
        // One concatenated JSONL stream; every trial's meta line carries
        // its "algorithm#row/trial seed=S" label.
        std::string text;
        for (const auto& e : capture.entries) {
          text += telemetry_metrics_jsonl(*e.telemetry, capture_label(e));
        }
        if (!write_capture(metrics_path, text, "metrics")) return 2;
      }
      if (!trace_path.empty()) {
        // One combined trace document: each trial is its own pid, so
        // Perfetto shows the trials as separate named process groups.
        JsonWriter w;
        w.begin_object().key("traceEvents").begin_array();
        std::uint64_t pid = 1;
        for (const auto& e : capture.entries) {
          telemetry_trace_events(w, *e.telemetry, pid++, capture_label(e));
        }
        w.end_array().end_object();
        if (!write_capture(trace_path, w.str() + "\n", "trace")) return 2;
      }
    }
  }

  const std::string json_target = args.get("json", "");
  const bool json_to_stdout = json_target == "-";
  if (json_to_stdout) {
    std::cout << sweep_json_lines(rows) << std::flush;
    std::cerr << "\n=== " << spec.title << " ===\n"
              << sweep_table(rows, spec.success, spec.success2).str()
              << std::flush;
    return 0;
  }
  if (!json_target.empty()) {
    std::ofstream out(json_target);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_target.c_str());
      return 2;
    }
    out << sweep_json_lines(rows);
    std::printf("wrote %zu JSON rows to %s\n", rows.size(),
                json_target.c_str());
  }
  std::cout << "\n=== " << spec.title << " ===\n"
            << sweep_table(rows, spec.success, spec.success2).str()
            << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr);
  const std::string command = argv[1];
  const Args args(argc - 1, argv + 1);
  try {
    // Args skips anything not starting with "--", so a space-separated
    // value (--seed 5) would silently leave the flag at "1".
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) == 0) continue;
      std::string msg = std::string("unexpected argument '") + argv[i] +
                        "': flags take --key=value";
      if (std::strncmp(argv[i - 1], "--", 2) == 0 &&
          std::strchr(argv[i - 1], '=') == nullptr) {
        msg += std::string(" (did you mean ") + argv[i - 1] + "=" + argv[i] +
               "?)";
      }
      throw std::invalid_argument(msg);
    }
    if (command == "list-scenarios") {
      args.reject_unknown(command, {});
      std::printf("registered scenario families:\n%s",
                  describe_families(ScenarioRegistry::global()).c_str());
      return 0;
    }
    if (command == "list-algorithms") {
      args.reject_unknown(command, {});
      std::printf("registered algorithms:\n%s",
                  describe_algorithms(AlgorithmRegistry::global()).c_str());
      return 0;
    }
    if (command == "run") return cmd_run(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "help" || command == "--help") return usage(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (...) {
    // A non-std exception thrown mid-run (user protocol code can throw
    // anything) must still exit with a clean error status, not ripple out
    // of main into std::terminate/abort.
    std::fprintf(stderr, "error: algorithm threw a non-standard exception\n");
    return 2;
  }
  std::fprintf(stderr, "error: unknown command '%s'\n\n", command.c_str());
  return usage(stderr);
}
