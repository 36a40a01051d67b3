#include "runtime/telemetry.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace nc {

// ---------------------------------------------------------------------------
// TelemetryPlan

void TelemetryPlan::validate() const {
  if (stride == 0) {
    throw std::invalid_argument("telemetry plan: 'tel_stride' must be >= 1");
  }
  if (max_samples == 0) {
    throw std::invalid_argument(
        "telemetry plan: 'tel_max_samples' must be >= 1");
  }
  if (max_spans == 0) {
    throw std::invalid_argument("telemetry plan: 'tel_max_spans' must be >= 1");
  }
}

std::string TelemetryPlan::summary() const {
  if (!requested()) return "off";
  std::ostringstream os;
  const char* sep = "";
  if (metrics) {
    os << "metrics";
    sep = "+";
  }
  if (trace) {
    os << sep << "trace";
    sep = "+";
  }
  if (probes) {
    os << sep << "probes";
  }
  os << " stride=" << stride << " cap=" << max_samples << "/" << max_spans;
  if (sink == nullptr) os << " (no sink)";
  return os.str();
}

const ParamSet& telemetry_param_defaults() {
  static const ParamSet defaults = [] {
    TelemetryPlan d;
    return ParamSet()
        .with("tel_metrics", d.metrics ? 1 : 0)
        .with("tel_trace", d.trace ? 1 : 0)
        .with("tel_probes", d.probes ? 1 : 0)
        .with("tel_stride", d.stride)
        .with("tel_max_samples", d.max_samples)
        .with("tel_max_spans", d.max_spans);
  }();
  return defaults;
}

TelemetryPlan telemetry_plan_from_params(const ParamSet& params) {
  TelemetryPlan plan;
  plan.metrics = params.get_double_or("tel_metrics", 0.0) != 0.0;
  plan.trace = params.get_double_or("tel_trace", 0.0) != 0.0;
  plan.probes = params.get_double_or("tel_probes", 0.0) != 0.0;
  plan.stride = params.get_count_or("tel_stride", plan.stride);
  plan.max_samples = params.get_count_or("tel_max_samples", plan.max_samples);
  plan.max_spans = params.get_count_or("tel_max_spans", plan.max_spans);
  plan.validate();
  return plan;
}

TelemetryPlan parse_telemetry_plan(const std::string& csv) {
  const ParamSet overrides = parse_params_csv(csv, &telemetry_param_defaults());
  const ParamSet merged =
      merge_params(telemetry_param_defaults(), overrides, "telemetry plan");
  return telemetry_plan_from_params(merged);
}

// ---------------------------------------------------------------------------
// StallReport

std::string StallReport::summary() const {
  if (!triggered()) return {};
  std::ostringstream os;
  os << "post-mortem: "
     << (stalled ? "protocol stalled" : "hit the round limit") << " at round "
     << rounds << "\n";
  os << "  last message delivered: ";
  if (last_delivery_round == 0) {
    os << "never\n";
  } else {
    os << "round " << last_delivery_round << " (" << rounds - last_delivery_round
       << " rounds before the stop)\n";
  }
  os << "  nodes: " << nodes_total << " total, " << nodes_done << " done, "
     << nodes_crashed << " crashed\n";
  os << "  alarms armed: " << armed_alarms;
  if (next_alarm_round != kNone) os << " (next due round " << next_alarm_round << ")";
  os << "\n";
  os << "  delayed messages in flight: " << delayed_in_flight;
  if (next_delayed_round != kNone) {
    os << " (next arrival round " << next_delayed_round << ")";
  }
  os << "\n";
  os << "  fec parked: " << fec_parked << " messages on " << fec_pending_edges
     << " edges\n";
  os << "  active links: " << active_links;
  return os.str();
}

void StallReport::to_json(JsonWriter& w) const {
  const auto opt_round = [&](const char* key, std::uint64_t v) {
    w.key(key);
    if (v == kNone) {
      w.null();
    } else {
      w.value(v);
    }
  };
  w.begin_object();
  w.key("stalled").value(stalled);
  w.key("hit_round_limit").value(hit_round_limit);
  w.key("rounds").value(rounds);
  w.key("last_delivery_round").value(last_delivery_round);
  w.key("nodes_total").value(nodes_total);
  w.key("nodes_done").value(nodes_done);
  w.key("nodes_crashed").value(nodes_crashed);
  w.key("armed_alarms").value(armed_alarms);
  opt_round("next_alarm_round", next_alarm_round);
  w.key("delayed_in_flight").value(delayed_in_flight);
  opt_round("next_delayed_round", next_delayed_round);
  w.key("fec_parked").value(fec_parked);
  w.key("fec_pending_edges").value(fec_pending_edges);
  w.key("active_links").value(active_links);
  w.end_object();
}

// ---------------------------------------------------------------------------
// TelemetryEngine

TelemetryEngine::TelemetryEngine(const TelemetryPlan& plan, unsigned shards)
    : plan_(plan),
      sink_(plan.sink),
      shards_(shards),
      win_shard_staged_(shards, 0),
      shard_probe_deltas_(shards) {
  plan_.validate();
}

void TelemetryEngine::begin_round(std::uint64_t round) {
  (void)round;
  ++rounds_in_window_;
  sampled_ =
      (metrics_on() || probes_on()) && rounds_in_window_ >= plan_.stride;
}

std::uint32_t TelemetryEngine::register_probe(const char* name, bool counter) {
  if (!probes_on()) return kNoProbe;
  const std::lock_guard<std::mutex> lock(probe_mu_);
  const auto it = probe_index_.find(name);
  if (it != probe_index_.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(probe_states_.size());
  probe_index_.emplace(name, idx);
  ProbeState st;
  st.name = name;
  st.counter = counter;
  probe_states_.push_back(std::move(st));
  return idx;
}

void TelemetryEngine::note_shard_round(unsigned shard, std::uint64_t wakeups,
                                       std::uint64_t staged,
                                       std::uint64_t fec_parks) {
  win_wakeups_ += wakeups;
  win_fec_parks_ += fec_parks;
  win_shard_staged_[shard] += staged;
}

void TelemetryEngine::add_span(const char* name, std::uint32_t tid,
                               std::uint64_t round, double ts_us,
                               double dur_us) {
  if (sink_->spans.size() >= plan_.max_spans) {
    sink_->spans_dropped += 1;
    return;
  }
  sink_->spans.push_back(Telemetry::Span{name, tid, round, ts_us, dur_us});
}

void TelemetryEngine::end_round(std::uint64_t round, std::uint64_t active_links,
                                const RunStats& stats, double ts_us) {
  last_round_ = round;
  last_active_links_ = active_links;
  // Drain per-shard probe deltas every round (ascending shard order; u64
  // sums, so the result is order-independent anyway).
  for (unsigned s = 0; s < shards_; ++s) {
    auto& deltas = shard_probe_deltas_[s];
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      if (deltas[i] == 0) continue;
      probe_states_[i].total += deltas[i];
      probe_states_[i].window += deltas[i];
      deltas[i] = 0;
    }
  }

  if (!sampled_) return;

  auto& m = sink_->metrics;
  if (m.samples() >= plan_.max_samples) {
    m.samples_dropped += 1;
  } else {
    m.round.push_back(round);
    if (metrics_on()) {
      std::uint64_t staged_total = 0;
      std::uint64_t staged_min = ~0ULL;
      std::uint64_t staged_max = 0;
      for (unsigned s = 0; s < shards_; ++s) {
        const std::uint64_t v = win_shard_staged_[s];
        staged_total += v;
        staged_min = std::min(staged_min, v);
        staged_max = std::max(staged_max, v);
      }
      m.active_links.push_back(active_links);
      m.wakeups.push_back(win_wakeups_);
      m.staged.push_back(staged_total);
      m.delivered.push_back(stats.messages - last_messages_);
      m.lost.push_back(stats.messages_lost - last_lost_);
      m.delayed.push_back(stats.messages_delayed - last_delayed_);
      m.retransmitted.push_back(stats.messages_retransmitted -
                                last_retransmitted_);
      m.fec_parks.push_back(win_fec_parks_);
      m.bits.push_back(stats.bits - last_bits_);
      m.shard_staged_min.push_back(shards_ == 0 ? 0 : staged_min);
      m.shard_staged_max.push_back(staged_max);
      m.shard_staged_mean.push_back(static_cast<double>(staged_total) /
                                    static_cast<double>(shards_));
      for (std::size_t k = 0; k < kMaxMsgKinds; ++k) {
        m.bits_by_kind.push_back(stats.bits_by_kind[k] - last_bits_by_kind_[k]);
      }
      if (ts_us >= 0.0) m.ts_us.push_back(ts_us);
    }
    if (probes_on()) {
      const std::size_t rows = m.round.size();
      for (auto& p : probe_states_) {
        // Front-pad series registered after sampling started.
        if (p.samples.size() + 1 < rows) p.samples.resize(rows - 1, 0);
        p.samples.push_back(p.counter ? p.total : p.window);
      }
    }
  }

  // Close the window whether or not the row fit the budget: dropped
  // windows vanish from the file but never skew the next row's deltas.
  for (auto& p : probe_states_) p.window = 0;
  std::fill(win_shard_staged_.begin(), win_shard_staged_.end(), 0);
  win_wakeups_ = 0;
  win_fec_parks_ = 0;
  last_messages_ = stats.messages;
  last_bits_ = stats.bits;
  last_lost_ = stats.messages_lost;
  last_delayed_ = stats.messages_delayed;
  last_retransmitted_ = stats.messages_retransmitted;
  last_bits_by_kind_ = stats.bits_by_kind;
  rounds_in_window_ = 0;
  sampled_ = false;
}

void TelemetryEngine::flush(const RunStats& stats, std::uint64_t n,
                            std::uint64_t threads, std::uint64_t seed) {
  // Close a partial tail window first (a stride that doesn't divide the
  // final round leaves the last rounds' deltas pending): without this row
  // the windowed columns would no longer sum to the run totals.
  if (rounds_in_window_ > 0) {
    sampled_ = true;
    end_round(last_round_, last_active_links_, stats, -1.0);
  }

  sink_->stats = stats;
  sink_->n = n;
  sink_->threads = threads;
  sink_->seed = seed;
  sink_->metrics.stride = plan_.stride;

  // Probe series, name-sorted so the output is independent of registration
  // order (and therefore of thread count).
  const std::size_t rows = sink_->metrics.round.size();
  std::vector<std::uint32_t> order(probe_states_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return probe_states_[a].name < probe_states_[b].name;
            });
  sink_->probes.clear();
  sink_->probes.reserve(order.size());
  for (const std::uint32_t idx : order) {
    auto& st = probe_states_[idx];
    if (st.samples.size() < rows) st.samples.resize(rows, 0);
    Telemetry::ProbeSeries series;
    series.name = st.name;
    series.counter = st.counter;
    series.value = st.samples;
    series.total = st.total;
    sink_->probes.push_back(std::move(series));
  }
}

// ---------------------------------------------------------------------------
// Writers

std::string telemetry_metrics_jsonl(const Telemetry& t,
                                    const std::string& label) {
  std::string out;
  {
    JsonWriter w;
    w.begin_object();
    w.key("schema").value("nc-metrics-v1");
    if (!label.empty()) w.key("label").value(label);
    w.key("n").value(t.n);
    w.key("threads").value(t.threads);
    w.key("seed").value(t.seed);
    w.key("stride").value(t.metrics.stride);
    w.key("samples").value(static_cast<std::uint64_t>(t.metrics.samples()));
    w.key("samples_dropped").value(t.metrics.samples_dropped);
    w.key("spans").value(static_cast<std::uint64_t>(t.spans.size()));
    w.key("spans_dropped").value(t.spans_dropped);
    w.key("probes").begin_array();
    for (const auto& p : t.probes) {
      w.begin_object();
      w.key("name").value(p.name);
      w.key("kind").value(p.counter ? "counter" : "gauge");
      w.key("total").value(p.total);
      w.end_object();
    }
    w.end_array();
    w.key("stats");
    t.stats.to_json(w);
    w.end_object();
    out += w.str();
    out += '\n';
  }

  const std::size_t rows = t.metrics.samples();
  const bool cols = rows > 0 && t.metrics.active_links.size() == rows;
  for (std::size_t i = 0; i < rows; ++i) {
    JsonWriter w;
    w.begin_object();
    w.key("round").value(t.metrics.round[i]);
    if (cols) {
      w.key("active_links").value(t.metrics.active_links[i]);
      w.key("wakeups").value(t.metrics.wakeups[i]);
      w.key("staged").value(t.metrics.staged[i]);
      w.key("delivered").value(t.metrics.delivered[i]);
      w.key("lost").value(t.metrics.lost[i]);
      w.key("delayed").value(t.metrics.delayed[i]);
      w.key("retransmitted").value(t.metrics.retransmitted[i]);
      w.key("fec_parks").value(t.metrics.fec_parks[i]);
      w.key("bits").value(t.metrics.bits[i]);
      w.key("shard_staged_min").value(t.metrics.shard_staged_min[i]);
      w.key("shard_staged_max").value(t.metrics.shard_staged_max[i]);
      w.key("shard_staged_mean").value(t.metrics.shard_staged_mean[i]);
      w.key("bits_by_kind").begin_object();
      for (std::size_t k = 0; k < kMaxMsgKinds; ++k) {
        const std::uint64_t v = t.metrics.bits_by_kind[i * kMaxMsgKinds + k];
        if (v != 0) w.key(std::to_string(k)).value(v);
      }
      w.end_object();
    }
    if (!t.probes.empty()) {
      w.key("probes").begin_object();
      for (const auto& p : t.probes) {
        if (p.value.size() == rows) w.key(p.name).value(p.value[i]);
      }
      w.end_object();
    }
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

void telemetry_trace_events(JsonWriter& w, const Telemetry& t,
                            std::uint64_t pid,
                            const std::string& process_name) {
  const auto name_event = [&](const char* what, std::uint64_t tid,
                              bool with_tid, const std::string& name) {
    w.begin_object();
    w.key("name").value(what);
    w.key("ph").value("M");
    w.key("pid").value(pid);
    if (with_tid) w.key("tid").value(tid);
    w.key("args").begin_object().key("name").value(name).end_object();
    w.end_object();
  };
  name_event("process_name", 0, false, process_name);

  std::uint32_t max_tid = 0;
  for (const auto& s : t.spans) max_tid = std::max(max_tid, s.tid);
  name_event("thread_name", 0, true, "engine");
  for (std::uint32_t tid = 1; tid <= max_tid; ++tid) {
    name_event("thread_name", tid, true,
               "shard " + std::to_string(tid - 1));
  }

  for (const auto& s : t.spans) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("ph").value("X");
    w.key("ts").value(s.ts_us);
    w.key("dur").value(s.dur_us);
    w.key("pid").value(pid);
    w.key("tid").value(static_cast<std::uint64_t>(s.tid));
    w.key("args").begin_object().key("round").value(s.round).end_object();
    w.end_object();
  }

  // Counter tracks for the sampled metrics (and probes), timestamped by the
  // sample points; only available when metrics and trace were both on.
  const auto& m = t.metrics;
  const std::size_t rows = m.samples();
  if (rows > 0 && m.ts_us.size() == rows && m.active_links.size() == rows) {
    for (std::size_t i = 0; i < rows; ++i) {
      w.begin_object();
      w.key("name").value("round metrics");
      w.key("ph").value("C");
      w.key("ts").value(m.ts_us[i]);
      w.key("pid").value(pid);
      w.key("args").begin_object();
      w.key("delivered").value(m.delivered[i]);
      w.key("staged").value(m.staged[i]);
      w.key("wakeups").value(m.wakeups[i]);
      w.key("lost").value(m.lost[i]);
      w.key("active_links").value(m.active_links[i]);
      w.end_object();
      w.end_object();
      if (!t.probes.empty()) {
        w.begin_object();
        w.key("name").value("probes");
        w.key("ph").value("C");
        w.key("ts").value(m.ts_us[i]);
        w.key("pid").value(pid);
        w.key("args").begin_object();
        for (const auto& p : t.probes) {
          if (p.value.size() == rows) w.key(p.name).value(p.value[i]);
        }
        w.end_object();
        w.end_object();
      }
    }
  }
}

std::string telemetry_trace_json(const Telemetry& t,
                                 const std::string& process_name) {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  telemetry_trace_events(w, t, 1, process_name);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace nc
