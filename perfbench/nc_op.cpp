// One benchmark operation: one in-process `nearclique run` of
// dist_near_clique on a planted_near_clique instance, from scenario params
// to the evaluated result, reported as one JSON object on stdout. run.py
// starts one process per operation, so every operation pays its own
// allocator warm-up and teardown exactly as a CLI user does.
//
//   nc_op --params=K=V,... --algo-params=K=V,... --seed=S [--trace=PATH]
//
// S seeds the scenario (the graph instance); the protocol's coin flips
// always use kAlgoSeed (see below).
//
// Untraced (no --trace): the operation goes through the public entry points
// only — ScenarioRegistry::make, AlgorithmRegistry::run, the evaluation,
// then freeing the instance and the result. setup_s times make() alone,
// wall_s the whole sequence; process start and exit are outside both.
//
// Traced (--trace=PATH): the same operation is driven through the layers'
// own public calls — make, make_schedule, the Network constructor with the
// DistNearCliqueNode factory, Network::run, the node(v) read-out, ~Network,
// the evaluation, the frees — each wrapped in a span, with the engine's
// opt-in NetProfile supplying the round-phase split. This is a copy of
// run_dist_near_clique's call sequence; run.py checks that its RunStats and
// labels hash equal the untraced run's, which catches drift between the
// copy and the original. Spans stay in memory and are written to PATH at exit
// as Chrome trace-event JSON (the telemetry --trace format; opens in
// Perfetto).
//
// Exit codes: 0 ok, 1 bad arguments or parameters, 2 refused (not a
// Release build) or trace file not writable.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/registry.hpp"
#include "core/driver.hpp"
#include "core/protocol.hpp"
#include "expt/scenario.hpp"
#include "runtime/faults.hpp"
#include "runtime/network.hpp"
#include "runtime/reliability.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using nc::AlgoParams;
using nc::AlgoSpec;
using nc::Instance;
using nc::JsonWriter;
using nc::Label;
using nc::NodeId;
using nc::RunStats;
using Clock = std::chrono::steady_clock;

constexpr const char* kScenario = "planted_near_clique";
constexpr const char* kAlgorithm = "dist_near_clique";
// The seed of the protocol's coin flips, the same for every graph seed. The
// exploration cost of a sampled component grows as 2^|S_i|, so letting the
// sampled set vary with the graph seed too made one workload's operation
// cost vary 2.5x across seeds (see README.md, "Seeds").
constexpr std::uint64_t kAlgoSeed = 3;

constexpr bool kCheckedBuild =
#if defined(NC_CHECK_INVARIANTS) || !defined(NDEBUG)
    true;
#else
    false;
#endif

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set of this process so far, MB (2^20 bytes).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Process resource use (all threads) accumulated so far; the difference of
/// two snapshots attributes an operation's time to user and kernel work,
/// page faults and context switches.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minflt = 0;
  std::int64_t majflt = 0;
  std::int64_t nvcsw = 0;   ///< voluntary context switches (waits)
  std::int64_t nivcsw = 0;  ///< involuntary ones (preemptions)

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_minflt,
            ru.ru_majflt,      ru.ru_nvcsw,        ru.ru_nivcsw};
  }

  void write_since(JsonWriter& w, const Usage& start) const {
    w.key("rusage").begin_object();
    w.key("user_s").value(user_s - start.user_s);
    w.key("sys_s").value(sys_s - start.sys_s);
    w.key("minflt").value(minflt - start.minflt);
    w.key("majflt").value(majflt - start.majflt);
    w.key("nvcsw").value(nvcsw - start.nvcsw);
    w.key("nivcsw").value(nivcsw - start.nivcsw);
    w.end_object();
  }
};

/// Current resident set, MB; 0 when /proc is unavailable.
double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// FNV-1a over the labels' 8 little-endian bytes each: the output gate's
/// fingerprint of the complete per-node labelling.
std::uint64_t hash_labels(const std::vector<Label>& labels) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Label l : labels) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (l >> (8 * byte)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// What the output gate compares: the labelling's fingerprint and the
/// largest output cluster measured against the planted set.
struct Outcome {
  std::uint64_t labels_hash = 0;
  std::uint64_t cluster_size = 0;
  double recall = 0.0;   ///< share of the planted set inside the cluster
  double density = 0.0;  ///< Definition-1 density of the cluster
  bool effective = false;  ///< the sweep runner's `effective` predicate
};

Outcome evaluate(const Instance& inst, const std::vector<Label>& labels,
                 const std::vector<NodeId>& best, double eps) {
  Outcome out;
  out.labels_hash = hash_labels(labels);
  out.cluster_size = best.size();
  std::uint64_t overlap = 0;
  for (const NodeId v : best) {
    if (std::binary_search(inst.planted.begin(), inst.planted.end(), v)) {
      ++overlap;
    }
  }
  if (!inst.planted.empty()) {
    out.recall = static_cast<double>(overlap) /
                 static_cast<double>(inst.planted.size());
  }
  out.density = nc::cluster_density(inst.graph, best);
  // Same arithmetic as SuccessSpec::Kind::kEffective in expt/sweep.cpp.
  out.effective = 3 * best.size() >= 2 * inst.planted.size() &&
                  out.density >= 1.0 - 2.0 * eps;
  return out;
}

/// In-memory span recorder: name, start, end and parent id, timed from the
/// recorder's construction.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
    double rss_delta_mb = 0.0;  ///< resident growth across the span
    double rss_at_begin_mb = 0.0;
  };

  int begin(std::string name, int parent) {
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.rss_at_begin_mb = current_rss_mb();
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    s.rss_delta_mb = current_rss_mb() - s.rss_at_begin_mb;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  [[nodiscard]] double seconds_of(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return (s.end_us - s.start_us) * 1e-6;
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// Chrome trace-event JSON: one complete ("X") event per span on one
/// track, with the span and parent ids and the resident growth as args;
/// the runtime.run span also carries the NetProfile phase seconds.
std::string chrome_trace(const Tracer& tracer, const std::string& process,
                         const nc::NetProfile& prof) {
  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  w.begin_object()
      .key("name")
      .value("process_name")
      .key("ph")
      .value("M")
      .key("pid")
      .value(std::uint64_t{1})
      .key("args")
      .begin_object()
      .key("name")
      .value(process)
      .end_object()
      .end_object();
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    w.begin_object();
    w.key("name").value(s.name).key("ph").value("X");
    w.key("ts").value(s.start_us).key("dur").value(s.end_us - s.start_us);
    w.key("pid").value(std::uint64_t{1}).key("tid").value(std::uint64_t{0});
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::uint64_t>(i));
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.key("rss_delta_mb").value(s.rss_delta_mb);
    if (s.name == "runtime.run") {
      w.key("fused_s").value(prof.fused_seconds);
      w.key("stage_s").value(prof.stage_seconds);
      w.key("deliver_s").value(prof.deliver_seconds);
      w.key("wake_s").value(prof.wake_seconds);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array().end_object();
  return w.str();
}

struct Op {
  nc::ScenarioSpec sspec;
  AlgoSpec aspec;
  AlgoParams merged;  ///< algorithm defaults + overrides
};

void write_common(JsonWriter& w, const Op& op, std::uint64_t n,
                  std::uint64_t m, std::uint64_t planted) {
  w.key("scenario").value(kScenario);
  w.key("seed").value(op.sspec.seed);
  w.key("algo_seed").value(op.aspec.seed);
  w.key("threads").value(op.merged.get_int("threads"));
  w.key("n").value(n).key("m").value(m).key("planted").value(planted);
}

void write_outcome(JsonWriter& w, const RunStats& stats, bool aborted,
                   std::uint64_t local_ops, const Outcome& o) {
  w.key("aborted").value(aborted);
  w.key("stats");
  stats.to_json(w);
  w.key("local_ops").value(local_ops);
  w.key("labels_hash").value(o.labels_hash);
  w.key("cluster_size").value(o.cluster_size);
  w.key("recall").value(o.recall);
  w.key("density").value(o.density);
  w.key("effective").value(o.effective);
}

void write_build(JsonWriter& w) {
  w.key("build").begin_object();
  w.key("compiler").value(__VERSION__);
  w.key("flags").value(NC_BENCH_CXX_FLAGS);
  w.key("build_type").value(NC_BENCH_BUILD_TYPE);
  w.key("hardware_concurrency")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.end_object();
}

int run_untraced(const Op& op) {
  const Usage u0 = Usage::now();
  const auto t0 = Clock::now();
  auto inst = std::make_unique<Instance>(
      nc::ScenarioRegistry::global().make(op.sspec));
  const auto t1 = Clock::now();
  auto result = std::make_unique<nc::AlgoResult>(
      nc::AlgorithmRegistry::global().run(inst->graph, op.aspec));
  const Outcome outcome =
      evaluate(*inst, result->labels, result->largest_cluster(),
               op.merged.get_double("eps"));
  const RunStats stats = result->stats;
  const bool aborted = result->aborted;
  const std::uint64_t local_ops = result->local_ops;
  const std::uint64_t n = inst->graph.n();
  const std::uint64_t m = inst->graph.m();
  const std::uint64_t planted = inst->planted.size();
  result.reset();
  inst.reset();
  const auto t2 = Clock::now();
  const Usage u2 = Usage::now();

  JsonWriter w;
  w.begin_object();
  w.key("mode").value("untraced");
  write_common(w, op, n, m, planted);
  w.key("setup_s").value(seconds(t0, t1));
  w.key("wall_s").value(seconds(t0, t2));
  w.key("peak_rss_mb").value(peak_rss_mb());
  u2.write_since(w, u0);
  write_outcome(w, stats, aborted, local_ops, outcome);
  write_build(w);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

int run_traced(const Op& op, const std::string& trace_path) {
  const Usage u0 = Usage::now();
  Tracer tr;
  const int root = tr.begin("op", -1);

  const int make_span = tr.begin("graph.make", root);
  auto inst = std::make_unique<Instance>(
      nc::ScenarioRegistry::global().make(op.sspec));
  tr.end(make_span);
  const nc::Graph& g = inst->graph;

  // The dist_near_clique adapter's configuration (algo/registry.cpp) and
  // the run_boosted wrapper (core/boosting.cpp), verbatim, plus the
  // engine profile the adapter sets for profile=1.
  const AlgoParams& p = op.merged;
  nc::DriverConfig cfg;
  cfg.proto.eps = p.get_double("eps");
  cfg.proto.p = p.get_double("pn") / static_cast<double>(g.n());
  cfg.net.seed = op.aspec.seed;
  cfg.net.max_rounds = static_cast<std::uint64_t>(p.get_double("max_rounds"));
  cfg.net.faults = nc::fault_plan_from_params(p);
  cfg.net.reliability = nc::reliability_plan_from_params(p);
  cfg.net.threads = static_cast<unsigned>(p.get_int("threads"));
  cfg.proto.versions = std::max<std::uint16_t>(
      1, static_cast<std::uint16_t>(p.get_int("versions")));
  cfg.proto.version_budget =
      static_cast<std::uint64_t>(p.get_double("window"));
  nc::NetProfile prof;
  cfg.net.profile = &prof;

  const int schedule_span = tr.begin("core.schedule", root);
  if (cfg.proto.version_budget != 0) {
    const nc::Schedule b =
        nc::make_schedule(cfg.proto, g.n(), cfg.net.max_rounds);
    cfg.net.max_rounds =
        std::max(cfg.net.max_rounds, b.decision_deadline() + 16);
  }
  const nc::Schedule schedule =
      nc::make_schedule(cfg.proto, g.n(), cfg.net.max_rounds);
  tr.end(schedule_span);

  const int construct_span = tr.begin("runtime.construct", root);
  auto net = std::make_unique<nc::Network>(g, cfg.net, [&](NodeId) {
    return std::make_unique<nc::DistNearCliqueNode>(cfg.proto, schedule);
  });
  tr.end(construct_span);
  const int run_span = tr.begin("runtime.run", root);
  auto result = std::make_unique<nc::NearCliqueResult>();
  result->stats = net->run();
  tr.end(run_span);

  const int extract_span = tr.begin("core.extract", root);
  result->labels.assign(g.n(), nc::kBottom);
  for (NodeId v = 0; v < g.n(); ++v) {
    auto& node = static_cast<nc::DistNearCliqueNode&>(net->node(v));
    result->labels[v] = node.label();
    result->total_local_ops += node.local_ops();
    for (const auto& rc : node.root_candidates()) {
      result->candidates.push_back(rc);
    }
  }
  if (result->aborted()) {
    std::fill(result->labels.begin(), result->labels.end(), nc::kBottom);
    result->stall = net->stall_report();
  }
  tr.end(extract_span);

  const int teardown_span = tr.begin("runtime.teardown", root);
  net.reset();
  tr.end(teardown_span);

  const int eval_span = tr.begin("expt.eval", root);
  const Outcome outcome = evaluate(*inst, result->labels,
                                   result->largest_cluster(), cfg.proto.eps);
  tr.end(eval_span);

  const RunStats stats = result->stats;
  const bool aborted = result->aborted();
  const std::uint64_t local_ops = result->total_local_ops;
  const std::uint64_t candidates = result->candidates.size();
  const std::uint64_t n = g.n();
  const std::uint64_t m = g.m();
  const std::uint64_t planted = inst->planted.size();
  const int free_span = tr.begin("expt.free", root);
  result.reset();
  inst.reset();
  tr.end(free_span);
  tr.end(root);
  const Usage u2 = Usage::now();

  JsonWriter w;
  w.begin_object();
  w.key("mode").value("traced");
  write_common(w, op, n, m, planted);
  w.key("setup_s").value(tr.seconds_of(make_span));
  w.key("wall_s").value(tr.seconds_of(root));
  w.key("peak_rss_mb").value(peak_rss_mb());
  u2.write_since(w, u0);
  write_outcome(w, stats, aborted, local_ops, outcome);
  w.key("candidates").value(candidates);
  // Top-level spans (direct children of "op"), in call order.
  w.key("spans").begin_object();
  for (const auto& sp : tr.spans()) {
    if (sp.parent != root) continue;
    w.key(sp.name)
        .begin_object()
        .key("s")
        .value((sp.end_us - sp.start_us) * 1e-6)
        .key("rss_delta_mb")
        .value(sp.rss_delta_mb)
        .end_object();
  }
  w.end_object();
  w.key("profile")
      .begin_object()
      .key("fused_s")
      .value(prof.fused_seconds)
      .key("stage_s")
      .value(prof.stage_seconds)
      .key("deliver_s")
      .value(prof.deliver_seconds)
      .key("wake_s")
      .value(prof.wake_seconds)
      .key("arena_bytes_total")
      .value(prof.arena_bytes_total)
      .key("arena_bytes_peak_shard")
      .value(prof.arena_bytes_peak_shard)
      .key("lane_msgs_peak")
      .value(prof.lane_msgs_peak)
      .key("broadcast_payload_bytes_saved")
      .value(prof.broadcast_payload_bytes_saved)
      .end_object();
  write_build(w);
  w.end_object();

  std::ofstream out(trace_path);
  out << chrome_trace(tr, std::string("nc_op ") + kScenario, prof) << "\n";
  if (!out) {
    std::fprintf(stderr, "nc_op: cannot write trace %s\n",
                 trace_path.c_str());
    return 2;
  }
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (kCheckedBuild || std::string(NC_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "nc_op: refusing to run a non-Release build (build type "
                 "'%s'); benchmark numbers need -O3 -DNDEBUG without "
                 "nc_invariant checks\n",
                 NC_BENCH_BUILD_TYPE);
    return 2;
  }
  const nc::Args args(argc, argv);
  if (!args.has("seed")) {
    std::fprintf(stderr,
                 "usage: nc_op --params=K=V,... --algo-params=K=V,... "
                 "--seed=S [--trace=PATH]\n");
    return 1;
  }
  try {
    Op op;
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    op.sspec = nc::parse_scenario_spec(kScenario, args.get("params"), seed);
    op.aspec =
        nc::parse_algo_spec(kAlgorithm, args.get("algo-params"), kAlgoSeed);
    op.merged = nc::merge_params(
        nc::AlgorithmRegistry::global().algorithm(op.aspec.name).defaults,
        op.aspec.params, "algorithm '" + op.aspec.name + "'");
    return args.has("trace") ? run_traced(op, args.get("trace"))
                             : run_untraced(op);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nc_op: error: %s\n", e.what());
    return 1;
  }
}
