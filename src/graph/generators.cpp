#include "graph/generators.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "graph/builder.hpp"
#include "util/alias.hpp"

namespace nc {

namespace {

/// Adds each pair from `pairs` as an edge with probability p — the exact
/// reference path: one Bernoulli draw per pair, preserved bit-for-bit for
/// small instances (the determinism suite pins graphs produced this way).
void add_bernoulli_pairs(GraphBuilder& b, NodeId lo_a, NodeId hi_a, NodeId lo_b,
                         NodeId hi_b, double p, Rng& rng) {
  for (NodeId u = lo_a; u < hi_a; ++u) {
    const NodeId start = (lo_b > u + 1) ? lo_b : u + 1;
    for (NodeId v = start; v < hi_b; ++v) {
      if (rng.next_bernoulli(p)) b.add_edge(u, v);
    }
  }
}

/// Number of failures before the next success of a Bernoulli(p) sequence
/// (geometric inversion). Requires 0 < p < 1.
std::uint64_t geometric_skip(double p, Rng& rng) {
  const double u = rng.next_double();
  const double skip = std::floor(std::log1p(-u) / std::log1p(-p));
  // Clamp before the float->int cast; 1e18 already overshoots any node range.
  return skip >= 1e18 ? static_cast<std::uint64_t>(1e18)
                      : static_cast<std::uint64_t>(skip);
}

/// Streams the row {u} x [lo, hi): each pair (u, v) is an edge with
/// probability p, sampled with geometric skips (O(1 + edges emitted)).
void stream_row(GraphBuilder& b, NodeId u, NodeId lo, NodeId hi, double p,
                Rng& rng) {
  if (lo >= hi || p <= 0.0) return;
  if (p >= 1.0) {
    for (NodeId v = lo; v < hi; ++v) b.add_edge(u, v);
    return;
  }
  std::uint64_t v = static_cast<std::uint64_t>(lo) + geometric_skip(p, rng);
  while (v < hi) {
    b.add_edge(u, static_cast<NodeId>(v));
    v += 1 + geometric_skip(p, rng);
  }
}

/// Streams the rectangle [lo_a, hi_a) x [lo_b, hi_b), disjoint ranges.
void stream_rectangle(GraphBuilder& b, NodeId lo_a, NodeId hi_a, NodeId lo_b,
                      NodeId hi_b, double p, Rng& rng) {
  for (NodeId u = lo_a; u < hi_a; ++u) stream_row(b, u, lo_b, hi_b, p, rng);
}

/// Streams the upper triangle of [lo, hi): pairs u < v, each with
/// probability p.
void stream_triangle(GraphBuilder& b, NodeId lo, NodeId hi, double p,
                     Rng& rng) {
  if (hi - lo < 2) return;
  for (NodeId u = lo; u + 1 < hi; ++u) stream_row(b, u, u + 1, hi, p, rng);
}

/// Samples `k` distinct values from [0, bound) uniformly (Floyd's
/// algorithm, O(k) expected). Requires k <= bound.
std::unordered_set<std::uint64_t> sample_distinct_u64(std::uint64_t bound,
                                                      std::uint64_t k,
                                                      Rng& rng) {
  assert(k <= bound);
  std::unordered_set<std::uint64_t> picked;
  picked.reserve(static_cast<std::size_t>(k) * 2);
  for (std::uint64_t j = bound - k; j < bound; ++j) {
    const std::uint64_t t = rng.next_below(j + 1);
    if (!picked.insert(t).second) picked.insert(j);
  }
  return picked;
}

/// Number of undirected pairs to knock out of a d-clique so that exactly
/// floor(eps * d(d-1)) ordered pairs are missing (Definition 1 accounting).
std::uint64_t knockout_count(NodeId d, double eps) {
  const auto ordered_total =
      static_cast<std::uint64_t>(d) * (d > 0 ? d - 1 : 0);
  const auto ordered_missing = static_cast<std::uint64_t>(
      std::floor(eps * static_cast<double>(ordered_total)));
  return std::min(ordered_missing / 2, ordered_total / 2);
}

/// Adds the clique on [lo, lo + d) minus a uniformly random set of `remove`
/// pairs. O(d^2) — proportional to the edges emitted.
void add_knocked_out_clique(GraphBuilder& b, NodeId lo, NodeId d,
                            std::uint64_t remove, Rng& rng) {
  const auto total_pairs = static_cast<std::uint64_t>(d) * (d - 1) / 2;
  const auto removed =
      remove > 0 ? sample_distinct_u64(total_pairs, remove, rng)
                 : std::unordered_set<std::uint64_t>{};
  std::uint64_t k = 0;
  for (NodeId u = 0; u < d; ++u) {
    for (NodeId v = u + 1; v < d; ++v, ++k) {
      if (remove == 0 || !removed.contains(k)) {
        b.add_edge(lo + u, lo + v);
      }
    }
  }
}

std::vector<NodeId> iota_range(NodeId lo, NodeId hi) {
  std::vector<NodeId> v;
  v.reserve(hi - lo);
  for (NodeId i = lo; i < hi; ++i) v.push_back(i);
  return v;
}

/// Expected G(n, p)-block edge count, for builder reservations. Capped so a
/// degenerate dense request can never turn the capacity hint into an
/// allocation bomb.
std::size_t expected_edges(double pairs, double p) {
  const double e = pairs * std::min(1.0, std::max(0.0, p));
  return static_cast<std::size_t>(std::min(e, 268435456.0)) + 16;
}

}  // namespace

void add_bernoulli_block(GraphBuilder& b, NodeId lo, NodeId hi, double p,
                         Rng& rng) {
  if (hi - lo <= kStreamingCutoffN) {
    add_bernoulli_pairs(b, lo, hi, lo, hi, p, rng);
  } else {
    stream_triangle(b, lo, hi, p, rng);
  }
}

Graph erdos_renyi_reference(NodeId n, double p_edge, Rng& rng) {
  GraphBuilder b(n);
  add_bernoulli_pairs(b, 0, n, 0, n, p_edge, rng);
  return std::move(b).build();
}

Graph erdos_renyi_streaming(NodeId n, double p_edge, Rng& rng) {
  GraphBuilder b(n);
  b.reserve(expected_edges(0.5 * static_cast<double>(n) *
                               (static_cast<double>(n) - 1.0),
                           p_edge));
  stream_triangle(b, 0, n, p_edge, rng);
  return std::move(b).build();
}

Graph erdos_renyi(NodeId n, double p_edge, Rng& rng) {
  return n <= kStreamingCutoffN ? erdos_renyi_reference(n, p_edge, rng)
                                : erdos_renyi_streaming(n, p_edge, rng);
}

Instance permute_instance(const Graph& g, const std::vector<NodeId>& tracked,
                          Rng& rng) {
  const NodeId n = g.n();
  std::vector<NodeId> perm(n);
  for (NodeId v = 0; v < n; ++v) perm[v] = v;
  rng.shuffle(perm);

  // Permute the CSR arrays directly: place old row v at new row perm[v] with
  // every neighbor relabelled, then restore per-row sort order.
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) offsets[perm[v] + 1] = g.degree(v);
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<NodeId> adj(offsets.back());
  for (NodeId v = 0; v < n; ++v) {
    std::size_t cursor = offsets[perm[v]];
    for (const NodeId u : g.neighbors(v)) adj[cursor++] = perm[u];
  }
  for (NodeId v = 0; v < n; ++v) {
    std::sort(adj.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              adj.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
  }

  std::vector<NodeId> mapped;
  mapped.reserve(tracked.size());
  for (const NodeId v : tracked) mapped.push_back(perm[v]);
  std::sort(mapped.begin(), mapped.end());
  return {Graph::from_csr(n, std::move(offsets), std::move(adj)),
          std::move(mapped)};
}

Instance planted_near_clique(const PlantedNearCliqueParams& params, Rng& rng) {
  assert(params.clique_size <= params.n);
  const NodeId d = params.clique_size;
  const NodeId n = params.n;
  GraphBuilder b(n);

  if (n <= kStreamingCutoffN) {
    // Exact reference path (bit-for-bit the original implementation).
    // Enumerate all undirected pairs inside D = [0, d) and knock out exactly
    // floor(eps_missing * d * (d-1)) / 2 of them (ordered-pair accounting per
    // Definition 1: each removed undirected pair removes two ordered pairs).
    std::vector<std::pair<NodeId, NodeId>> d_pairs;
    d_pairs.reserve(static_cast<std::size_t>(d) * (d - 1) / 2);
    for (NodeId u = 0; u < d; ++u) {
      for (NodeId v = u + 1; v < d; ++v) d_pairs.emplace_back(u, v);
    }
    const auto ordered_total = static_cast<std::size_t>(d) * (d - 1);
    const auto ordered_missing = static_cast<std::size_t>(
        std::floor(params.eps_missing * static_cast<double>(ordered_total)));
    const std::size_t pairs_to_remove = ordered_missing / 2;
    rng.shuffle(d_pairs);
    for (std::size_t i = pairs_to_remove; i < d_pairs.size(); ++i) {
      b.add_edge(d_pairs[i].first, d_pairs[i].second);
    }
    // Background among non-D nodes, halo between D and the rest.
    add_bernoulli_pairs(b, d, n, d, n, params.background_p, rng);
    add_bernoulli_pairs(b, 0, d, d, n, params.halo_p, rng);
  } else {
    // Streaming path: knock out a sampled pair set instead of shuffling the
    // full pair enumeration, and skip-sample background and halo.
    const double rest = static_cast<double>(n - d);
    b.reserve(static_cast<std::size_t>(d) * (d - 1) / 2 +
              expected_edges(0.5 * rest * (rest - 1.0), params.background_p) +
              expected_edges(static_cast<double>(d) * rest, params.halo_p));
    add_knocked_out_clique(b, 0, d, knockout_count(d, params.eps_missing),
                           rng);
    stream_triangle(b, d, n, params.background_p, rng);
    stream_rectangle(b, 0, d, d, n, params.halo_p, rng);
  }

  const Graph g = std::move(b).build();
  auto planted = iota_range(0, d);
  if (!params.permute_ids) return {g, std::move(planted)};
  return permute_instance(g, planted, rng);
}

Instance shingles_counterexample(NodeId n, double delta, Rng& rng,
                                 bool permute) {
  // Block sizes: |C1| = |C2| = delta*n/2, |I1| = |I2| = (1-delta)*n/2.
  // Rounding: make C1, C2 equal, then split the remainder across I1, I2.
  const auto c_half = static_cast<NodeId>(
      std::llround(delta * static_cast<double>(n) / 2.0));
  const NodeId c_total = 2 * c_half;
  assert(c_total <= n);
  const NodeId i_total = n - c_total;
  const NodeId i1 = i_total / 2;

  // Layout: [C1 | C2 | I1 | I2].
  const NodeId c1_lo = 0, c1_hi = c_half;
  const NodeId c2_lo = c_half, c2_hi = c_total;
  const NodeId i1_lo = c_total, i1_hi = c_total + i1;
  const NodeId i2_lo = i1_hi, i2_hi = n;

  GraphBuilder b(n);
  b.add_clique(iota_range(c1_lo, c1_hi));
  b.add_clique(iota_range(c2_lo, c2_hi));
  b.add_biclique(iota_range(i1_lo, i1_hi), iota_range(c1_lo, c1_hi));
  b.add_biclique(iota_range(c1_lo, c1_hi), iota_range(c2_lo, c2_hi));
  b.add_biclique(iota_range(c2_lo, c2_hi), iota_range(i2_lo, i2_hi));

  const Graph g = std::move(b).build();
  const auto planted = iota_range(0, c_total);  // C = C1 ∪ C2
  if (!permute) return {g, planted};
  return permute_instance(g, planted, rng);
}

BarbellLayout barbell_layout(NodeId n) {
  const NodeId a = n / 2;
  const NodeId b = n / 4;
  const NodeId p = n - a - b;
  return {a, p, b, static_cast<NodeId>(a + p)};
}

Instance barbell_gadget(NodeId n, bool delete_a_edges) {
  const auto lay = barbell_layout(n);
  GraphBuilder b(n);
  if (!delete_a_edges) b.add_clique(iota_range(0, lay.a_size));
  // Path from A through P to B. Node a_size-1 is A's port; b_first is B's.
  std::vector<NodeId> path;
  path.push_back(lay.a_size - 1);
  for (NodeId i = 0; i < lay.path_len; ++i) path.push_back(lay.a_size + i);
  path.push_back(lay.b_first);
  b.add_path(path);
  b.add_clique(iota_range(lay.b_first, n));
  return {std::move(b).build(), iota_range(lay.b_first, n)};
}

Instance sublinear_clique(NodeId n, double alpha, double background_p,
                          Rng& rng) {
  const double loglog = std::log2(std::max(4.0, std::log2(std::max(4.0, static_cast<double>(n)))));
  auto size = static_cast<NodeId>(
      std::floor(static_cast<double>(n) / std::pow(loglog, alpha)));
  size = std::max<NodeId>(2, std::min(size, n));
  PlantedNearCliqueParams params;
  params.n = n;
  params.clique_size = size;
  params.eps_missing = 0.0;  // strict clique, as Corollary 2.3 requires
  params.background_p = background_p;
  params.halo_p = background_p;
  return planted_near_clique(params, rng);
}

Graph random_geometric(NodeId n, double radius, Rng& rng) {
  std::vector<std::pair<double, double>> pts(n);
  for (auto& [x, y] : pts) {
    x = rng.next_double();
    y = rng.next_double();
  }
  GraphBuilder b(n);
  if (n == 0 || radius <= 0.0) return std::move(b).build();

  // Uniform grid with cell width >= radius: any edge lies within a 3x3 cell
  // neighborhood, so the scan is O(n + output) expected for uniform points.
  // The edge set equals the all-pairs scan's exactly — the points alone
  // determine the graph.
  std::size_t dim =
      radius >= 1.0 ? 1 : static_cast<std::size_t>(1.0 / radius);
  const auto cap =
      static_cast<std::size_t>(std::sqrt(static_cast<double>(n))) + 1;
  dim = std::max<std::size_t>(1, std::min(dim, cap));
  const std::size_t cells = dim * dim;
  const auto cell_coord = [&](double x) {
    return std::min(dim - 1,
                    static_cast<std::size_t>(x * static_cast<double>(dim)));
  };

  // Counting-sort the points into cells.
  std::vector<std::size_t> off(cells + 1, 0);
  for (const auto& [x, y] : pts) ++off[cell_coord(y) * dim + cell_coord(x) + 1];
  for (std::size_t i = 1; i <= cells; ++i) off[i] += off[i - 1];
  std::vector<NodeId> order(n);
  {
    std::vector<std::size_t> cursor(off.begin(), off.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      order[cursor[cell_coord(pts[v].second) * dim + cell_coord(pts[v].first)]++] = v;
    }
  }

  const double r2 = radius * radius;
  const auto test_pair = [&](NodeId a, NodeId c) {
    const double dx = pts[a].first - pts[c].first;
    const double dy = pts[a].second - pts[c].second;
    if (dx * dx + dy * dy <= r2) b.add_edge(a, c);
  };
  // Forward half of the 8-neighborhood: each unordered cell pair visited once.
  constexpr std::array<std::pair<int, int>, 4> kForward{
      {{1, 0}, {-1, 1}, {0, 1}, {1, 1}}};
  for (std::size_t cy = 0; cy < dim; ++cy) {
    for (std::size_t cx = 0; cx < dim; ++cx) {
      const std::size_t c = cy * dim + cx;
      for (std::size_t i = off[c]; i < off[c + 1]; ++i) {
        for (std::size_t j = i + 1; j < off[c + 1]; ++j) {
          test_pair(order[i], order[j]);
        }
      }
      for (const auto& [dx, dy] : kForward) {
        const auto nx = static_cast<std::ptrdiff_t>(cx) + dx;
        const auto ny = static_cast<std::ptrdiff_t>(cy) + dy;
        if (nx < 0 || ny < 0 || nx >= static_cast<std::ptrdiff_t>(dim) ||
            ny >= static_cast<std::ptrdiff_t>(dim)) {
          continue;
        }
        const auto c2 = static_cast<std::size_t>(ny) * dim +
                        static_cast<std::size_t>(nx);
        for (std::size_t i = off[c]; i < off[c + 1]; ++i) {
          for (std::size_t j = off[c2]; j < off[c2 + 1]; ++j) {
            test_pair(order[i], order[j]);
          }
        }
      }
    }
  }
  return std::move(b).build();
}

Instance planted_partition(NodeId n, unsigned k, double p_in, double p_out,
                           Rng& rng) {
  assert(k >= 1);
  GraphBuilder b(n);
  const NodeId group_size = n / k;
  assert(group_size >= 1);
  auto group_of = [&](NodeId v) { return std::min(v / group_size, k - 1); };

  if (n <= kStreamingCutoffN) {
    // Exact reference path (bit-for-bit the original implementation).
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        const double p = group_of(u) == group_of(v) ? p_in : p_out;
        if (rng.next_bernoulli(p)) b.add_edge(u, v);
      }
    }
  } else {
    // Streaming path: each row splits into an in-group and an out-group
    // segment (groups are contiguous before permutation), each skip-sampled.
    const double nn = static_cast<double>(n);
    b.reserve(expected_edges(0.5 * nn * static_cast<double>(group_size), p_in) +
              expected_edges(0.5 * nn * nn, p_out));
    for (NodeId u = 0; u < n; ++u) {
      const unsigned g = group_of(u);
      const NodeId group_end =
          g + 1 < k ? (g + 1) * group_size : n;
      stream_row(b, u, u + 1, group_end, p_in, rng);
      stream_row(b, u, group_end, n, p_out, rng);
    }
  }
  const Graph g = std::move(b).build();
  return permute_instance(g, iota_range(0, group_size), rng);
}

Instance power_law_web(NodeId n, double gamma, double avg_deg,
                       NodeId community, double eps_missing, Rng& rng) {
  assert(community <= n);
  // Chung-Lu: P[edge uv] = min(1, w_u * w_v / W).
  std::vector<double> w(n);
  double total = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i + 1), -1.0 / (gamma - 1.0));
    total += w[i];
  }
  const double scale = avg_deg * static_cast<double>(n) / total;
  for (auto& x : w) x *= scale;
  const double big_w = avg_deg * static_cast<double>(n);
  // avg_deg = 0 asks for no background edges; every weight is 0 then, and
  // w_u w_v / W would be 0 / 0.
  const bool background = big_w > 0.0;

  GraphBuilder b(n);
  if (n <= kStreamingCutoffN) {
    // Exact reference path (bit-for-bit the original implementation).
    for (NodeId u = 0; u < n && background; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        const double p = std::min(1.0, w[u] * w[v] / big_w);
        if (rng.next_bernoulli(p)) b.add_edge(u, v);
      }
    }
    // Overlay a dense community on the last `community` nodes (low-degree
    // tail, so the community is invisible to degree-based heuristics).
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId u = n - community; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
    }
    const auto ordered_total =
        static_cast<std::size_t>(community) * (community - 1);
    const auto remove =
        static_cast<std::size_t>(std::floor(
            eps_missing * static_cast<double>(ordered_total))) /
        2;
    rng.shuffle(pairs);
    for (std::size_t i = remove; i < pairs.size(); ++i) {
      b.add_edge(pairs[i].first, pairs[i].second);
    }
  } else {
    // Streaming path: expected-degree (Chung-Lu) sampling via an alias
    // table. ~W/2 endpoint pairs are drawn proportionally to the weights;
    // a pair (u, v) then appears with probability ≈ w_u w_v / W (duplicates
    // collapse at CSR build), which matches the per-pair model whenever
    // w_u w_v << W — the sparse regime this path exists for.
    const auto draws = static_cast<std::uint64_t>(std::llround(big_w / 2.0));
    b.reserve(static_cast<std::size_t>(draws) +
              static_cast<std::size_t>(community) * community / 2);
    if (background) {
      const AliasTable endpoints(w);
      for (std::uint64_t t = 0; t < draws; ++t) {
        const auto u = static_cast<NodeId>(endpoints.sample(rng));
        const auto v = static_cast<NodeId>(endpoints.sample(rng));
        if (u != v) b.add_edge(u, v);
      }
    }
    add_knocked_out_clique(b, n - community, community,
                           knockout_count(community, eps_missing), rng);
  }
  const Graph g = std::move(b).build();
  return permute_instance(g, iota_range(n - community, n), rng);
}

}  // namespace nc
