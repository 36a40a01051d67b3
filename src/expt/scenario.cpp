#include "expt/scenario.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "graph/builder.hpp"
#include "graph/edge_list.hpp"

namespace nc {

namespace {

NodeId node_count(const ScenarioParams& p, const std::string& key = "n") {
  const auto n = p.get_int(key);
  if (n < 1) {
    throw std::invalid_argument("scenario parameter '" + key +
                                "' must be >= 1");
  }
  return static_cast<NodeId>(n);
}

void require_at_most(const ScenarioParams& p, const std::string& key,
                     NodeId n) {
  const auto v = p.get_int(key);
  if (v < 0 || v > static_cast<std::int64_t>(n)) {
    throw std::invalid_argument("scenario parameter '" + key +
                                "' must be in [0, n]");
  }
}

ScenarioRegistry build_global_registry() {
  ScenarioRegistry r;

  // ------------------------------------------------ raw generator families
  // These seed Rng(seed) directly — exactly what the examples historically
  // wrote by hand — so pre-registry fixed-seed outputs are reproduced
  // bit-for-bit. (The E1..E12 workload families further down keep their
  // historical seed salts for the same reason.)
  r.add({"erdos_renyi", "G(n, p): every pair independently an edge",
         ScenarioParams().with("n", 200).with("p", 0.1),
         {"p"},
         [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed);
           return Instance{
               erdos_renyi(node_count(p), p.get_double("p"), rng), {}};
         }});

  r.add({"planted_near_clique",
         "exactly-eps-near clique planted in ER background with a halo",
         ScenarioParams()
             .with("n", 200)
             .with("clique_size", 80)
             .with("eps_missing", 0.008)
             .with("background_p", 0.08)
             .with("halo_p", 0.25)
             .with("permute_ids", 1),
         {"eps_missing", "background_p", "halo_p"},
         [](const ScenarioParams& p, std::uint64_t seed) {
           PlantedNearCliqueParams pp;
           pp.n = node_count(p);
           require_at_most(p, "clique_size", pp.n);
           pp.clique_size = static_cast<NodeId>(p.get_int("clique_size"));
           pp.eps_missing = p.get_double("eps_missing");
           pp.background_p = p.get_double("background_p");
           pp.halo_p = p.get_double("halo_p");
           pp.permute_ids = p.get_bool("permute_ids");
           Rng rng(seed);
           return planted_near_clique(pp, rng);
         }});

  r.add({"planted_partition",
         "k contiguous groups, dense within (p_in), sparse across (p_out)",
         ScenarioParams()
             .with("n", 120)
             .with("k", 4)
             .with("p_in", 0.9)
             .with("p_out", 0.05),
         {"p_in", "p_out"},
         [](const ScenarioParams& p, std::uint64_t seed) {
           const NodeId n = node_count(p);
           const auto k = p.get_int("k");
           if (k < 1 || k > static_cast<std::int64_t>(n)) {
             throw std::invalid_argument(
                 "scenario parameter 'k' must be in [1, n]");
           }
           Rng rng(seed);
           return planted_partition(n, static_cast<unsigned>(k),
                                    p.get_double("p_in"),
                                    p.get_double("p_out"), rng);
         }});

  r.add({"power_law_web",
         "Chung-Lu power-law web graph with a planted low-degree community",
         ScenarioParams()
             .with("n", 400)
             .with("gamma", 2.5)
             .with("avg_deg", 8.0)
             .with("community", 50)
             .with("eps_missing", 0.008),
         {"eps_missing"},
         [](const ScenarioParams& p, std::uint64_t seed) {
           const NodeId n = node_count(p);
           require_at_most(p, "community", n);
           Rng rng(seed);
           return power_law_web(n, p.get_double("gamma"),
                                p.get_double("avg_deg"),
                                static_cast<NodeId>(p.get_int("community")),
                                p.get_double("eps_missing"), rng);
         }});

  r.add({"random_geometric",
         "points in the unit square, edges within `radius` (ad-hoc radio)",
         ScenarioParams().with("n", 300).with("radius", 0.12),
         {},
         [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed);
           return Instance{
               random_geometric(node_count(p), p.get_double("radius"), rng),
               {}};
         }});

  r.add({"shingles_counterexample",
         "Claim 1 family: cliques C1, C2 + independent sets I1, I2",
         ScenarioParams().with("n", 120).with("delta", 0.5).with("permute", 1),
         {},
         [](const ScenarioParams& p, std::uint64_t seed) {
           const double delta = p.get_double("delta");
           if (delta < 0.0 || delta > 1.0) {
             throw std::invalid_argument(
                 "scenario parameter 'delta' must be in [0, 1]");
           }
           Rng rng(seed);
           return shingles_counterexample(node_count(p), delta, rng,
                                          p.get_bool("permute"));
         }});

  r.add({"barbell",
         "Section 6 impossibility gadget: clique A - path P - clique B",
         ScenarioParams().with("n", 64).with("delete_a_edges", 0),
         {},
         [](const ScenarioParams& p, std::uint64_t /*seed*/) {
           return barbell_gadget(node_count(p), p.get_bool("delete_a_edges"));
         }});

  r.add({"sublinear_clique",
         "Corollary 2.3: strict clique of size n/(log2 log2 n)^alpha",
         ScenarioParams()
             .with("n", 1000)
             .with("alpha", 0.5)
             .with("background_p", 0.05),
         {"background_p"},
         [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed);
           return sublinear_clique(node_count(p), p.get_double("alpha"),
                                   p.get_double("background_p"), rng);
         }});

  // --------------------------------------------- motivation-domain families
  r.add({"adhoc_hotspot",
         "unit-disk radio network with one congested hot-spot clique",
         ScenarioParams().with("n", 300).with("radius", 0.12).with("hotspot",
                                                                   40),
         {},
         [](const ScenarioParams& p, std::uint64_t seed) {
           const NodeId n = node_count(p);
           require_at_most(p, "hotspot", n);
           const auto hotspot = static_cast<NodeId>(p.get_int("hotspot"));
           Rng rng(seed);
           const Graph background =
               random_geometric(n, p.get_double("radius"), rng);
           GraphBuilder b(n);
           b.reserve(background.m() +
                     static_cast<std::size_t>(hotspot) * hotspot / 2);
           for (const auto& [u, v] : background.edge_list()) b.add_edge(u, v);
           std::vector<NodeId> dense;
           for (NodeId v = n - hotspot; v < n; ++v) dense.push_back(v);
           b.add_clique(dense);
           Rng perm_rng(seed ^ 0xad);
           return permute_instance(std::move(b).build(), dense, perm_rng);
         }});

  r.add({"blog_snapshot",
         "evolving blogspace: snapshot `step`/`steps` of an event community "
         "linking up over persistent background links",
         ScenarioParams()
             .with("n", 250)
             .with("event", 45)
             .with("step", 6)
             .with("steps", 6)
             .with("background_p", 0.04),
         {"background_p"},
         [](const ScenarioParams& p, std::uint64_t seed) {
           const NodeId n = node_count(p);
           require_at_most(p, "event", n);
           const auto event = static_cast<NodeId>(p.get_int("event"));
           const auto step = static_cast<unsigned>(p.get_int("step"));
           const auto steps = static_cast<unsigned>(p.get_int("steps"));
           // Same seed at every step: background links persist across time.
           Rng rng(seed);
           GraphBuilder b(n);
           add_bernoulli_block(b, 0, n, p.get_double("background_p"), rng);
           // Event links appear in a fixed random order as time advances.
           std::vector<std::pair<NodeId, NodeId>> pairs;
           for (NodeId u = n - event; u < n; ++u) {
             for (NodeId v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
           }
           Rng order(seed ^ 0xb106);
           order.shuffle(pairs);
           const std::size_t visible =
               pairs.size() * std::min(step, steps) / std::max(1u, steps);
           for (std::size_t i = 0; i < visible; ++i) {
             b.add_edge(pairs[i].first, pairs[i].second);
           }
           std::vector<NodeId> community;
           for (NodeId v = n - event; v < n; ++v) community.push_back(v);
           return Instance{std::move(b).build(), std::move(community)};
         }});

  // --------------------------------------------------- real-graph loaders
  r.add({"edge_list_file",
         "real graph from a whitespace/CSV edge-list file (params "
         "path=<file>); built through the streaming CSR builder",
         ScenarioParams().with("path", "").with("one_indexed", 0),
         {},
         [](const ScenarioParams& p, std::uint64_t /*seed*/) {
           const std::string& path = p.get_string("path");
           if (path.empty()) {
             throw std::invalid_argument(
                 "scenario family 'edge_list_file' requires params "
                 "path=<file> (an edge-list file to load)");
           }
           return Instance{load_edge_list(path, p.get_bool("one_indexed")),
                           {}};
         }});

  // ---------------------------- canonical experiment workloads (E1..E12)
  // Each family keeps its historical seed salt so existing fixed-seed
  // experiment instances are reproduced exactly.
  r.add({"theorem",
         "Theorem 2.1/5.7 premise: exactly-eps^3-near clique of size delta*n",
         ScenarioParams()
             .with("n", 200)
             .with("delta", 0.4)
             .with("eps", 0.2)
             .with("background_p", 0.08)
             .with("halo_p", 0.25),
         {"background_p", "halo_p"},
         [](const ScenarioParams& p, std::uint64_t seed) {
           const NodeId n = node_count(p);
           const double eps = p.get_double("eps");
           const double delta = p.get_double("delta");
           if (delta < 0.0 || delta > 1.0) {
             throw std::invalid_argument(
                 "scenario parameter 'delta' must be in [0, 1]");
           }
           Rng rng(seed ^ 0x7e0001ULL);
           PlantedNearCliqueParams pp;
           pp.n = n;
           pp.clique_size = std::min(
               n, static_cast<NodeId>(delta * static_cast<double>(n) + 0.5));
           pp.eps_missing = eps * eps * eps;
           pp.background_p = p.get_double("background_p");
           pp.halo_p = p.get_double("halo_p");
           return planted_near_clique(pp, rng);
         }});

  r.add({"linear", "Corollary 2.2: linear-size near-clique (delta = 1/2)",
         ScenarioParams().with("n", 200).with("eps", 0.2),
         {},
         [](const ScenarioParams& p, std::uint64_t seed) {
           // Lazily resolved at call time, when global() is fully built.
           return ScenarioRegistry::global().make(
               {"theorem",
                          ScenarioParams()
                              .with("n", p.get_int("n"))
                              .with("delta", 0.5)
                              .with("eps", p.get_double("eps"))
                              .with("background_p", 0.1)
                              .with("halo_p", 0.3),
                seed});
         }});

  r.add({"sublinear", "Corollary 2.3 workload (background_p = 0.05)",
         ScenarioParams().with("n", 500).with("alpha", 0.5),
         {},
         [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed ^ 0x7e0003ULL);
           return sublinear_clique(node_count(p), p.get_double("alpha"), 0.05,
                                   rng);
         }});

  r.add({"counterexample", "Claim 1 / Figure 1 counterexample G_n",
         ScenarioParams().with("n", 120).with("delta", 0.5),
         {},
         [](const ScenarioParams& p, std::uint64_t seed) {
           const double delta = p.get_double("delta");
           if (delta < 0.0 || delta > 1.0) {
             throw std::invalid_argument(
                 "scenario parameter 'delta' must be in [0, 1]");
           }
           Rng rng(seed ^ 0x7e0004ULL);
           return shingles_counterexample(node_count(p), delta, rng);
         }});

  r.add({"web",
         "power-law web background with a hidden near-clique community",
         ScenarioParams().with("n", 250).with("community", 35).with("eps",
                                                                    0.2),
         {},
         [](const ScenarioParams& p, std::uint64_t seed) {
           const NodeId n = node_count(p);
           require_at_most(p, "community", n);
           const double eps = p.get_double("eps");
           Rng rng(seed ^ 0x7e0005ULL);
           return power_law_web(n, 2.5, 8.0,
                                static_cast<NodeId>(p.get_int("community")),
                                eps * eps * eps, rng);
         }});

  return r;
}

}  // namespace

void ScenarioRegistry::add(Family family) {
  const auto name = family.name;
  for (const auto& key : family.probabilities) {
    if (!family.defaults.has(key)) {
      throw std::invalid_argument("scenario family '" + name +
                                  "' declares probability '" + key +
                                  "' without a default");
    }
  }
  if (!families_.emplace(name, std::move(family)).second) {
    throw std::invalid_argument("scenario family '" + name +
                                "' registered twice");
  }
}

const ScenarioRegistry::Family& ScenarioRegistry::family(
    const std::string& name) const {
  const auto it = families_.find(name);
  if (it == families_.end()) {
    throw std::invalid_argument("unknown scenario family '" + name +
                                "'; known families: " + join_comma(names()));
  }
  return it->second;
}

Instance ScenarioRegistry::make(const ScenarioSpec& spec) const {
  const Family& fam = family(spec.family);
  const ScenarioParams merged = merge_params(
      fam.defaults, spec.params, "scenario family '" + spec.family + "'");
  for (const auto& key : fam.probabilities) {
    const double v = merged.get_double(key);
    if (!(v >= 0.0 && v <= 1.0)) {  // NaN fails both
      std::ostringstream msg;
      msg << "scenario family '" << spec.family << "': parameter '" << key
          << "' is a probability and must be in [0, 1], got " << v;
      throw std::invalid_argument(msg.str());
    }
  }
  return fam.make(merged, spec.seed);
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const auto& [name, fam] : families_) out.push_back(name);
  return out;
}

const ScenarioRegistry& ScenarioRegistry::global() {
  static const ScenarioRegistry registry = build_global_registry();
  return registry;
}

Instance make_scenario(const std::string& family, const ScenarioParams& params,
                       std::uint64_t seed) {
  return ScenarioRegistry::global().make({family, params, seed});
}

ScenarioSpec parse_scenario_spec(const std::string& family,
                                 const std::string& params_csv,
                                 std::uint64_t seed) {
  ScenarioSpec spec;
  spec.family = family;
  spec.seed = seed;
  // Keys the family declares as strings (file paths) parse verbatim; an
  // unknown family parses numerically and fails later, in make(), with the
  // catalogue-listing error message.
  const ParamSet* declared = nullptr;
  const auto& registry = ScenarioRegistry::global();
  try {
    declared = &registry.family(family).defaults;
  } catch (const std::invalid_argument&) {
  }
  spec.params = parse_params_csv(params_csv, declared);
  return spec;
}

std::string describe_families(const ScenarioRegistry& registry) {
  std::ostringstream os;
  for (const auto& name : registry.names()) {
    const auto& fam = registry.family(name);
    os << "  " << name << " — " << fam.description << "\n    defaults:"
       << describe_params(fam.defaults) << "\n";
  }
  return os.str();
}

}  // namespace nc
