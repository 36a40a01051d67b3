#include "expt/sweep.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "graph/metrics.hpp"
#include "util/json.hpp"

namespace nc {

namespace {

/// Explicitly set predicate parameters win; kFromParams (NaN) derives from
/// the run's own merged configuration with a final literal fallback.
double resolve(double explicit_value, const ParamSet& merged,
               const char* key, double fallback) {
  if (!std::isnan(explicit_value)) return explicit_value;
  return merged.get_double_or(key, fallback);
}

/// Resolves the per-trial success predicate for one grid point. `merged_*`
/// are the fully merged (defaults + overrides) parameter sets, so shared
/// keys like "eps"/"delta" read the same values the run will use.
std::function<bool(const Instance&, const AlgoResult&)> make_predicate(
    const SuccessSpec& spec, const ParamSet& merged_scenario,
    const ParamSet& merged_algo) {
  switch (spec.kind) {
    case SuccessSpec::Kind::kNone:
      return nullptr;
    case SuccessSpec::Kind::kTheorem57: {
      const double eps = resolve(spec.eps, merged_algo, "eps", 0.2);
      const double delta =
          resolve(spec.delta, merged_scenario, "delta", 0.4);
      return [eps, delta](const Instance& inst, const AlgoResult& res) {
        return theorem57_success(inst, res, eps, delta);
      };
    }
    case SuccessSpec::Kind::kEffective: {
      const double eps = resolve(spec.eps, merged_algo, "eps", 0.2);
      return [eps](const Instance& inst, const AlgoResult& res) {
        const auto best = res.largest_cluster();
        return 3 * best.size() >= 2 * inst.planted.size() &&
               cluster_density(inst.graph, best) >= 1.0 - 2.0 * eps;
      };
    }
    case SuccessSpec::Kind::kSizeDensity: {
      const double min_size = spec.min_size;
      const double max_eps = spec.max_eps;
      return [min_size, max_eps](const Instance& inst, const AlgoResult& res) {
        return theorem_success(inst.graph, res.largest_cluster(), min_size,
                               max_eps);
      };
    }
  }
  return nullptr;
}

void apply_axis(const SweepAxis& axis, double value, ParamSet& scenario,
                ParamSet& algo) {
  if (axis.target != SweepAxis::Target::kAlgorithm) {
    scenario.with(axis.key, value);
  }
  if (axis.target != SweepAxis::Target::kScenario) {
    algo.with(axis.key, value);
  }
}

void write_running_stat(JsonWriter& w, const char* name,
                        const RunningStat& s) {
  w.key(name)
      .begin_object()
      .key("mean")
      .value(s.mean())
      .key("min")
      .value(s.min())
      .key("max")
      .value(s.max())
      .key("stddev")
      .value(s.stddev())
      .key("count")
      .value(static_cast<std::uint64_t>(s.count()))
      .end_object();
}

void write_params(JsonWriter& w, const char* name, const ParamSet& params) {
  w.key(name).begin_object();
  for (const auto& [key, value] : params.values()) w.key(key).value(value);
  for (const auto& [key, value] : params.strings()) w.key(key).value(value);
  w.end_object();
}

const char* schedule_name(SeedSchedule s) {
  return s == SeedSchedule::kSalted ? "salted" : "sequential";
}

const char* target_name(SweepAxis::Target t) {
  switch (t) {
    case SweepAxis::Target::kScenario:
      return "scenario";
    case SweepAxis::Target::kAlgorithm:
      return "algo";
    case SweepAxis::Target::kBoth:
      return "both";
  }
  return "?";
}

SweepAxis::Target parse_target(const std::string& text) {
  if (text == "scenario") return SweepAxis::Target::kScenario;
  if (text == "algo" || text == "algorithm") {
    return SweepAxis::Target::kAlgorithm;
  }
  if (text == "both") return SweepAxis::Target::kBoth;
  throw std::invalid_argument("unknown axis target '" + text +
                              "'; use scenario, algo or both");
}

/// Spec-file param objects: numbers stay numbers, strings stay strings,
/// booleans become 1/0 (the ParamSet convention).
ParamSet param_set_from_json(const JsonValue& v, const std::string& what) {
  if (!v.is_object()) {
    throw std::invalid_argument(what + " must be a JSON object");
  }
  ParamSet out;
  for (const auto& [key, value] : v.object) {
    switch (value.kind) {
      case JsonValue::Kind::kNumber:
        out.with(key, value.number);
        break;
      case JsonValue::Kind::kString:
        out.with(key, value.string);
        break;
      case JsonValue::Kind::kBool:
        out.with(key, value.boolean ? 1.0 : 0.0);
        break;
      default:
        throw std::invalid_argument(what + "." + key +
                                    " must be a number, string or boolean");
    }
  }
  return out;
}

void write_success_spec(JsonWriter& w, const char* name,
                        const SuccessSpec& spec) {
  w.key(name).begin_object().key("kind").value(spec.name());
  // kFromParams (NaN) means "derive per grid point"; the document encodes
  // it by omission so round-tripping preserves the sentinel exactly.
  if (!std::isnan(spec.eps)) w.key("eps").value(spec.eps);
  if (!std::isnan(spec.delta)) w.key("delta").value(spec.delta);
  w.key("min_size").value(spec.min_size);
  w.key("max_eps").value(spec.max_eps);
  w.end_object();
}

SuccessSpec success_spec_from_json(const JsonValue& v,
                                   const std::string& what) {
  if (!v.is_object()) {
    throw std::invalid_argument(what + " must be a JSON object");
  }
  SuccessSpec spec;
  for (const auto& [key, value] : v.object) {
    if (key == "kind") {
      spec.kind = parse_success_spec(value.as_string(what + ".kind")).kind;
    } else if (key == "eps") {
      spec.eps = value.as_number(what + ".eps");
    } else if (key == "delta") {
      spec.delta = value.as_number(what + ".delta");
    } else if (key == "min_size") {
      spec.min_size = value.as_number(what + ".min_size");
    } else if (key == "max_eps") {
      spec.max_eps = value.as_number(what + ".max_eps");
    } else {
      throw std::invalid_argument(
          what + " has no field '" + key +
          "'; fields: kind, eps, delta, min_size, max_eps");
    }
  }
  return spec;
}

}  // namespace

std::string SuccessSpec::name() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kTheorem57:
      return "theorem57";
    case Kind::kEffective:
      return "effective";
    case Kind::kSizeDensity:
      return "size_density";
  }
  return "?";
}

SuccessSpec parse_success_spec(const std::string& text) {
  SuccessSpec spec;
  if (text == "none" || text.empty()) {
    spec.kind = SuccessSpec::Kind::kNone;
  } else if (text == "theorem57") {
    spec.kind = SuccessSpec::Kind::kTheorem57;
  } else if (text == "effective") {
    spec.kind = SuccessSpec::Kind::kEffective;
  } else if (text == "size_density") {
    spec.kind = SuccessSpec::Kind::kSizeDensity;
  } else {
    throw std::invalid_argument(
        "unknown success predicate '" + text +
        "'; options: none, theorem57, effective, size_density");
  }
  return spec;
}

double SweepRow::headline_cost_mean() const {
  return model == CostModel::kCongest ? stats.rounds.mean()
                                      : stats.local_ops.mean();
}

std::vector<SweepRow> run_sweep(const SweepSpec& spec,
                                TelemetryCapture* capture) {
  const auto& scenarios = ScenarioRegistry::global();
  const auto& algorithms = AlgorithmRegistry::global();

  const auto& family = scenarios.family(spec.scenario_family);
  if (spec.algorithms.empty()) {
    throw std::invalid_argument("sweep spec lists no algorithms");
  }
  // Unknown plan keys would otherwise be silently skipped by the
  // declare-gated forwarding below; validate every bag up front.
  for (const auto& [name, overrides] : spec.plans) {
    validate_plan_params(name, overrides);
  }
  for (const auto& axis : spec.axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("sweep axis '" + axis.key +
                                  "' has no values");
    }
  }

  // Phase 1 — expand the grid (first axis outermost). A grid point fixes
  // the scenario overrides and the axis contribution to algorithm params;
  // it is shared by every algorithm.
  struct GridPoint {
    ParamSet scenario_overrides;
    ParamSet algo_axis_overrides;
  };
  std::vector<GridPoint> points;
  std::vector<std::size_t> index(spec.axes.size(), 0);
  while (true) {
    GridPoint point{spec.scenario_params, {}};
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
      apply_axis(spec.axes[i], spec.axes[i].values[index[i]],
                 point.scenario_overrides, point.algo_axis_overrides);
    }
    points.push_back(std::move(point));
    // Odometer increment, last axis fastest; i reaches 0 when every axis
    // wrapped (or there are no axes — a single grid point).
    std::size_t i = spec.axes.size();
    while (i > 0 && ++index[i - 1] == spec.axes[i - 1].values.size()) {
      index[i - 1] = 0;
      --i;
    }
    if (i == 0) break;
  }

  // Phase 2 — build and validate every (algorithm, grid point) row up
  // front, so a typo fails before any trial runs. Rows are algorithm-major.
  struct Cell {
    std::size_t row;  ///< index into rows
    const AlgorithmRegistry::Algorithm* entry;
    std::function<bool(const Instance&, const AlgoResult&)> success;
    std::function<bool(const Instance&, const AlgoResult&)> success2;
  };
  std::vector<SweepRow> rows;
  rows.reserve(spec.algorithms.size() * points.size());
  // cells[p] lists the per-algorithm work at grid point p.
  std::vector<std::vector<Cell>> cells(points.size());
  for (const auto& algo : spec.algorithms) {
    const auto& entry = algorithms.algorithm(algo.name);
    for (std::size_t p = 0; p < points.size(); ++p) {
      SweepRow row;
      row.scenario_family = spec.scenario_family;
      row.scenario_params = points[p].scenario_overrides;
      row.algorithm = algo.name;
      row.model = entry.model;
      row.algo_params = algo.params;
      for (const auto& [key, value] :
           points[p].algo_axis_overrides.values()) {
        row.algo_params.with(key, value);
      }
      // The sweep-level threads knob and plans reach every algorithm that
      // declares their keys; explicit per-algorithm and axis values win.
      if (spec.threads > 1) {
        forward_params(algo.name, ParamSet().with("threads", spec.threads),
                       row.algo_params);
      }
      for (const auto& [name, overrides] : spec.plans) {
        forward_params(algo.name, overrides, row.algo_params);
      }
      row.scenario_merged =
          merge_params(family.defaults, row.scenario_params,
                       "scenario family '" + spec.scenario_family + "'");
      row.algo_merged = merge_params(entry.defaults, row.algo_params,
                                     "algorithm '" + algo.name + "'");
      row.trials = spec.trials;
      row.seed_base = spec.seed_base;
      row.seeds = spec.seeds;
      Cell cell;
      cell.row = rows.size();
      cell.entry = &entry;
      cell.success =
          make_predicate(spec.success, row.scenario_merged, row.algo_merged);
      cell.success2 =
          make_predicate(spec.success2, row.scenario_merged, row.algo_merged);
      cells[p].push_back(std::move(cell));
      rows.push_back(std::move(row));
    }
  }

  // Phase 3 — execute grid-point-major: each instance is generated once
  // per (grid point, seed) and shared by every algorithm. Per row the
  // trials still arrive in seed order, so aggregation is identical to a
  // hand-wired run_trials batch.
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t t = 0; t < spec.trials; ++t) {
      const std::uint64_t seed = spec.seeds == SeedSchedule::kSalted
                                     ? spec.seed_base + 7919 * (t + 1)
                                     : spec.seed_base + t;
      const Instance inst = scenarios.make(
          {spec.scenario_family, points[p].scenario_overrides, seed});
      for (const Cell& cell : cells[p]) {
        SweepRow& row = rows[cell.row];
        // Phase 2 already merged and validated row.algo_merged; invoke the
        // adapter directly instead of re-merging through run() per trial.
        AlgoResult result =
            cell.entry->run(inst.graph, row.algo_merged, seed);
        result.model = cell.entry->model;
        accumulate_trial(row.stats, inst, result,
                         cell.success && cell.success(inst, result),
                         cell.success2 && cell.success2(inst, result));
        if (capture != nullptr && result.telemetry != nullptr) {
          capture->entries.push_back({row.algorithm, cell.row, t, seed,
                                      std::move(result.telemetry)});
        }
      }
    }
  }
  return rows;
}

std::string sweep_row_json(const SweepRow& row) {
  JsonWriter w;
  w.begin_object();
  w.key("scenario").begin_object().key("family").value(row.scenario_family);
  write_params(w, "params", row.scenario_merged);
  w.end_object();
  w.key("algorithm")
      .begin_object()
      .key("name")
      .value(row.algorithm)
      .key("model")
      .value(cost_model_name(row.model));
  write_params(w, "params", row.algo_merged);
  w.end_object();
  w.key("seed_base").value(row.seed_base);
  w.key("seed_schedule").value(schedule_name(row.seeds));
  w.key("trials").value(static_cast<std::uint64_t>(row.stats.trials));
  w.key("successes").value(static_cast<std::uint64_t>(row.stats.successes));
  w.key("success_rate").value(row.stats.success_rate());
  const auto ci = row.stats.success_interval();
  w.key("success_ci")
      .begin_array()
      .value(ci.lo)
      .value(ci.hi)
      .end_array();
  w.key("successes2").value(static_cast<std::uint64_t>(row.stats.successes2));
  write_running_stat(w, "rounds", row.stats.rounds);
  write_running_stat(w, "bits", row.stats.bits);
  write_running_stat(w, "max_msg_bits", row.stats.max_msg_bits);
  write_running_stat(w, "out_size", row.stats.out_size);
  write_running_stat(w, "out_density", row.stats.out_density);
  write_running_stat(w, "size_ratio", row.stats.size_ratio);
  write_running_stat(w, "recall", row.stats.recall);
  write_running_stat(w, "local_ops", row.stats.local_ops);
  w.key("cost").value(row.headline_cost_mean());
  w.end_object();
  return w.str();
}

std::string sweep_json_lines(const std::vector<SweepRow>& rows) {
  std::string out;
  for (const auto& row : rows) {
    out += sweep_row_json(row);
    out += '\n';
  }
  return out;
}

std::string sweep_spec_json(const SweepSpec& spec) {
  JsonWriter w;
  w.begin_object();
  w.key("title").value(spec.title);
  w.key("scenario").begin_object().key("family").value(spec.scenario_family);
  write_params(w, "params", spec.scenario_params);
  w.end_object();
  w.key("algorithms").begin_array();
  for (const auto& algo : spec.algorithms) {
    w.begin_object().key("name").value(algo.name);
    write_params(w, "params", algo.params);
    w.end_object();
  }
  w.end_array();
  w.key("axes").begin_array();
  for (const auto& axis : spec.axes) {
    w.begin_object()
        .key("target")
        .value(target_name(axis.target))
        .key("key")
        .value(axis.key)
        .key("values")
        .begin_array();
    for (const double v : axis.values) w.value(v);
    w.end_array().end_object();
  }
  w.end_array();
  w.key("trials").value(static_cast<std::uint64_t>(spec.trials));
  w.key("seed_base").value(spec.seed_base);
  w.key("seeds").value(schedule_name(spec.seeds));
  w.key("threads").value(static_cast<std::uint64_t>(spec.threads));
  for (const auto& plan : runtime_plans()) {
    const auto it = spec.plans.find(plan.name);
    write_params(w, plan.name.c_str(),
                 it != spec.plans.end() ? it->second : ParamSet());
  }
  write_success_spec(w, "success", spec.success);
  write_success_spec(w, "success2", spec.success2);
  w.end_object();
  return w.str();
}

SweepSpec sweep_spec_from_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  if (!doc.is_object()) {
    throw std::invalid_argument("sweep spec must be a JSON object");
  }
  SweepSpec spec;
  bool have_scenario = false;
  bool have_algorithms = false;
  for (const auto& [key, value] : doc.object) {
    if (key == "title") {
      spec.title = value.as_string("title");
    } else if (key == "scenario") {
      if (!value.is_object()) {
        throw std::invalid_argument("scenario must be a JSON object");
      }
      for (const auto& [skey, svalue] : value.object) {
        if (skey == "family") {
          spec.scenario_family = svalue.as_string("scenario.family");
        } else if (skey == "params") {
          spec.scenario_params =
              param_set_from_json(svalue, "scenario.params");
        } else {
          throw std::invalid_argument("scenario has no field '" + skey +
                                      "'; fields: family, params");
        }
      }
      have_scenario = !spec.scenario_family.empty();
    } else if (key == "algorithms") {
      for (const auto& item : value.as_array("algorithms")) {
        if (!item.is_object()) {
          throw std::invalid_argument(
              "algorithms entries must be JSON objects");
        }
        AlgoSpec algo;
        for (const auto& [akey, avalue] : item.object) {
          if (akey == "name") {
            algo.name = avalue.as_string("algorithm.name");
          } else if (akey == "params") {
            algo.params = param_set_from_json(avalue, "algorithm.params");
          } else {
            throw std::invalid_argument("algorithm entry has no field '" +
                                        akey + "'; fields: name, params");
          }
        }
        if (algo.name.empty()) {
          throw std::invalid_argument("algorithm entry needs a name");
        }
        spec.algorithms.push_back(std::move(algo));
      }
      have_algorithms = !spec.algorithms.empty();
    } else if (key == "axes") {
      for (const auto& item : value.as_array("axes")) {
        if (!item.is_object()) {
          throw std::invalid_argument("axes entries must be JSON objects");
        }
        SweepAxis axis;
        for (const auto& [akey, avalue] : item.object) {
          if (akey == "target") {
            axis.target = parse_target(avalue.as_string("axis.target"));
          } else if (akey == "key") {
            axis.key = avalue.as_string("axis.key");
          } else if (akey == "values") {
            for (const auto& v : avalue.as_array("axis.values")) {
              axis.values.push_back(v.as_number("axis value"));
            }
          } else {
            throw std::invalid_argument("axis entry has no field '" + akey +
                                        "'; fields: target, key, values");
          }
        }
        if (axis.key.empty() || axis.values.empty()) {
          throw std::invalid_argument(
              "each axis needs a key and at least one value");
        }
        spec.axes.push_back(std::move(axis));
      }
    } else if (key == "trials") {
      const double t = value.as_number("trials");
      if (t < 1 || t != std::floor(t)) {
        throw std::invalid_argument("trials must be an integer >= 1");
      }
      spec.trials = static_cast<std::size_t>(t);
    } else if (key == "seed_base") {
      const double s = value.as_number("seed_base");
      if (s < 0 || s != std::floor(s)) {
        throw std::invalid_argument("seed_base must be an integer >= 0");
      }
      spec.seed_base = static_cast<std::uint64_t>(s);
    } else if (key == "seeds") {
      const std::string& name = value.as_string("seeds");
      if (name == "salted") {
        spec.seeds = SeedSchedule::kSalted;
      } else if (name == "sequential") {
        spec.seeds = SeedSchedule::kSequential;
      } else {
        throw std::invalid_argument("seeds must be 'salted' or 'sequential'");
      }
    } else if (key == "threads") {
      const double t = value.as_number("threads");
      if (t < 1 || t != std::floor(t)) {
        throw std::invalid_argument("threads must be an integer >= 1");
      }
      spec.threads = static_cast<std::size_t>(t);
    } else if (key == "success") {
      spec.success = success_spec_from_json(value, "success");
    } else if (key == "success2") {
      spec.success2 = success_spec_from_json(value, "success2");
    } else {
      // The remaining fields are the runtime plans, one object each.
      std::string fields =
          "title, scenario, algorithms, axes, trials, seed_base, seeds, "
          "threads";
      bool is_plan = false;
      for (const auto& plan : runtime_plans()) {
        is_plan = is_plan || plan.name == key;
        fields += ", " + plan.name;
      }
      if (!is_plan) {
        throw std::invalid_argument("sweep spec has no field '" + key +
                                    "'; fields: " + fields +
                                    ", success, success2");
      }
      // Fail on unknown keys / bad ranges now, with the plan's key list,
      // instead of at run time.
      spec.plans[key] = param_set_from_json(value, key);
      validate_plan_params(key, spec.plans[key]);
    }
  }
  if (!have_scenario) {
    throw std::invalid_argument("sweep spec needs scenario.family");
  }
  if (!have_algorithms) {
    throw std::invalid_argument(
        "sweep spec needs at least one algorithms entry");
  }
  return spec;
}

Table sweep_table(const std::vector<SweepRow>& rows) {
  Table t({"scenario", "algorithm", "model", "overrides", "success", "size",
           "density", "recall", "max_msg_bits", "cost"});
  for (const auto& row : rows) {
    std::string overrides = describe_params(row.scenario_params);
    const std::string algo_overrides = describe_params(row.algo_params);
    if (!algo_overrides.empty()) overrides += " |" + algo_overrides;
    if (overrides.empty()) overrides = " (defaults)";
    t.add_row({row.scenario_family, row.algorithm,
               cost_model_name(row.model), overrides.substr(1),
               Table::num(row.stats.success_rate(), 2),
               Table::num(row.stats.out_size.mean(), 1),
               Table::num(row.stats.out_density.mean(), 3),
               Table::num(row.stats.recall.mean(), 2),
               Table::num(row.stats.max_msg_bits.max(), 0),
               Table::num(row.headline_cost_mean(), 0)});
  }
  return t;
}

}  // namespace nc
