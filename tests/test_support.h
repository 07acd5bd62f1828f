// Shared test scaffolding: random graph builders, the graph-family matrix,
// and brute-force reference implementations (oracles) that the property
// tests compare the real algorithms against. The oracles read only the
// graph classes' own adjacency (HasEdge, NodeData, SortedNodeIds): no
// library kernel, NodeIndex or AlgoView, so a bug there cannot cancel out.
#ifndef RINGO_TESTS_TEST_SUPPORT_H_
#define RINGO_TESTS_TEST_SUPPORT_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algo/algo_defs.h"
#include "gen/graph_gen.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"
#include "table/table.h"
#include "util/rng.h"

namespace ringo {
namespace testing {

// Random simple directed graph: n nodes (ids 0..n-1 all present) and
// exactly m distinct edges sampled uniformly (self_loops optional).
// Samples that duplicate an existing edge or form a disallowed self-loop
// are retried, so NumEdges() == m; m is clamped to the densest achievable
// graph. Deterministic for a given seed.
inline DirectedGraph RandomDirected(int64_t n, int64_t m, uint64_t seed,
                                    bool self_loops = false) {
  DirectedGraph g;
  for (NodeId i = 0; i < n; ++i) g.AddNode(i);
  Rng rng(seed);
  const int64_t max_m = n * (n - 1) + (self_loops ? n : 0);
  m = std::min(m, max_m);
  int64_t added = 0;
  while (added < m) {
    const NodeId u = rng.UniformInt(0, n - 1);
    const NodeId v = rng.UniformInt(0, n - 1);
    if (u == v && !self_loops) continue;
    if (g.AddEdge(u, v)) ++added;
  }
  return g;
}

// Random simple undirected graph with exactly m distinct edges (no
// self-loops); duplicates are retried as above.
inline UndirectedGraph RandomUndirected(int64_t n, int64_t m, uint64_t seed) {
  UndirectedGraph g;
  for (NodeId i = 0; i < n; ++i) g.AddNode(i);
  Rng rng(seed);
  m = std::min(m, n * (n - 1) / 2);
  int64_t added = 0;
  while (added < m) {
    const NodeId u = rng.UniformInt(0, n - 1);
    const NodeId v = rng.UniformInt(0, n - 1);
    if (u == v) continue;
    if (g.AddEdge(u, v)) ++added;
  }
  return g;
}

// All directed edges as a sorted set (for structural comparisons).
inline std::set<Edge> EdgeSet(const DirectedGraph& g) {
  std::set<Edge> edges;
  g.ForEachEdge([&](NodeId u, NodeId v) { edges.insert({u, v}); });
  return edges;
}

inline std::set<Edge> EdgeSet(const UndirectedGraph& g) {
  std::set<Edge> edges;
  g.ForEachEdge([&](NodeId u, NodeId v) { edges.insert({u, v}); });
  return edges;
}

// O(n^3) brute-force triangle count.
inline int64_t BruteTriangles(const UndirectedGraph& g) {
  const std::vector<NodeId> ids = g.SortedNodeIds();
  int64_t count = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      if (!g.HasEdge(ids[i], ids[j])) continue;
      for (size_t k = j + 1; k < ids.size(); ++k) {
        if (g.HasEdge(ids[i], ids[k]) && g.HasEdge(ids[j], ids[k])) ++count;
      }
    }
  }
  return count;
}

// Edge-iterator triangle count over the graph's own sorted adjacency
// vectors: for each edge u < v, std::set_intersection of the two neighbor
// lists counts the w > v adjacent to both, so each triangle u < v < w is
// counted once and self-loops never qualify. Linear per edge instead of
// BruteTriangles' O(n^3), so it serves as the reference on large graphs;
// it uses no AlgoView and no library kernel.
inline int64_t EdgeIteratorTriangles(const UndirectedGraph& g) {
  // Output iterator that only counts what set_intersection writes.
  struct Counter {
    int64_t* n;
    Counter& operator*() { return *this; }
    Counter& operator=(NodeId) {
      ++*n;
      return *this;
    }
    Counter& operator++() { return *this; }
    Counter operator++(int) { return *this; }
  };
  int64_t count = 0;
  g.ForEachNode([&](NodeId u, const UndirectedGraph::NodeData& nd) {
    const std::vector<NodeId>& nu = nd.nbrs;
    for (auto v = std::upper_bound(nu.begin(), nu.end(), u); v != nu.end();
         ++v) {
      const std::vector<NodeId>& nv = g.GetNode(*v)->nbrs;
      std::set_intersection(v + 1, nu.end(),
                            std::upper_bound(nv.begin(), nv.end(), *v),
                            nv.end(), Counter{&count});
    }
  });
  return count;
}

// Brute-force BFS distances via Floyd–Warshall over SortedNodeIds()
// positions; kInfDist marks an unreachable pair. On a DirectedGraph,
// paths follow out-edges only. Self-loops never shorten a path.
constexpr int64_t kInfDist = INT64_MAX / 4;

template <typename Graph>
std::vector<std::vector<int64_t>> BruteAllPairs(const Graph& g) {
  const std::vector<NodeId> ids = g.SortedNodeIds();
  const int64_t n = static_cast<int64_t>(ids.size());
  std::vector<std::vector<int64_t>> d(n);
  for (int64_t i = 0; i < n; ++i) {
    d[i].assign(n, kInfDist);
    d[i][i] = 0;
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (i != j && g.HasEdge(ids[i], ids[j])) d[i][j] = 1;
    }
  }
  for (int64_t k = 0; k < n; ++k) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

// ------------------------------------------------------ graph-family matrix

// Seven shapes per direction that together reach every adjacency corner
// case an algorithm can trip on: random, R-MAT (skewed degrees), star,
// chain, two components with an id gap, self-loops, and isolated nodes.
template <typename Graph>
struct GraphFamily {
  std::string name;
  Graph g;
};

inline std::vector<GraphFamily<UndirectedGraph>> UndirectedFamilies() {
  std::vector<GraphFamily<UndirectedGraph>> fams;
  fams.push_back({"random", RandomUndirected(300, 900, 0xC0FFEE)});
  fams.push_back(
      {"rmat",
       gen::BuildUndirected(gen::RMatEdges(7, 1500, 0xBEEF).ValueOrDie())});
  fams.push_back({"star", gen::Star(64)});
  {
    UndirectedGraph chain;
    for (NodeId i = 0; i < 50; ++i) chain.AddNode(i);
    for (NodeId i = 0; i + 1 < 50; ++i) chain.AddEdge(i, i + 1);
    fams.push_back({"chain", std::move(chain)});
  }
  {
    // Two components with an id gap between them.
    UndirectedGraph disc = RandomUndirected(120, 300, 0xD15C);
    for (NodeId i = 0; i < 40; ++i) disc.AddNode(1000 + i);
    for (NodeId i = 0; i + 1 < 40; ++i) disc.AddEdge(1000 + i, 1000 + i + 1);
    disc.AddEdge(1039, 1000);
    fams.push_back({"disconnected", std::move(disc)});
  }
  {
    UndirectedGraph loops = RandomUndirected(100, 250, 0x100F);
    for (NodeId i = 0; i < 100; i += 7) loops.AddEdge(i, i);
    fams.push_back({"self_loops", std::move(loops)});
  }
  {
    UndirectedGraph iso = RandomUndirected(80, 160, 0x150);
    for (NodeId i = 500; i < 510; ++i) iso.AddNode(i);
    fams.push_back({"isolated", std::move(iso)});
  }
  return fams;
}

inline std::vector<GraphFamily<DirectedGraph>> DirectedFamilies() {
  std::vector<GraphFamily<DirectedGraph>> fams;
  fams.push_back({"random", RandomDirected(300, 1200, 0xFEED)});
  fams.push_back(
      {"rmat",
       gen::BuildDirected(gen::RMatEdges(7, 1500, 0xACE).ValueOrDie())});
  {
    DirectedGraph star;  // Leaves point at the hub; hub points at leaf 1.
    for (NodeId i = 0; i <= 32; ++i) star.AddNode(i);
    for (NodeId i = 1; i <= 32; ++i) star.AddEdge(i, 0);
    star.AddEdge(0, 1);
    fams.push_back({"star", std::move(star)});
  }
  {
    DirectedGraph chain;
    for (NodeId i = 0; i < 50; ++i) chain.AddNode(i);
    for (NodeId i = 0; i + 1 < 50; ++i) chain.AddEdge(i, i + 1);
    fams.push_back({"chain", std::move(chain)});
  }
  {
    DirectedGraph disc = RandomDirected(120, 400, 0xD00D);
    for (NodeId i = 0; i < 40; ++i) disc.AddNode(1000 + i);
    for (NodeId i = 0; i + 1 < 40; ++i) disc.AddEdge(1000 + i, 1000 + i + 1);
    fams.push_back({"disconnected", std::move(disc)});
  }
  fams.push_back({"self_loops", RandomDirected(100, 300, 0x5E1F,
                                               /*self_loops=*/true)});
  {
    DirectedGraph iso = RandomDirected(80, 200, 0x1507);
    for (NodeId i = 500; i < 510; ++i) iso.AddNode(i);
    fams.push_back({"isolated", std::move(iso)});
  }
  return fams;
}

// ----------------------------------------------------------------- oracles
//
// Every oracle works on positions in SortedNodeIds() (the i-th smallest
// id), which is also the order the library returns (id, value) pairs in,
// and returns its result in that same (id, value) form.

template <typename T>
std::vector<std::pair<NodeId, T>> ZipIds(const std::vector<NodeId>& ids,
                                         const std::vector<T>& values) {
  std::vector<std::pair<NodeId, T>> out;
  for (size_t i = 0; i < ids.size(); ++i) out.emplace_back(ids[i], values[i]);
  return out;
}

// Dense 0/1 adjacency matrix: a[i][j] = 1 when HasEdge(ids[i], ids[j]).
// Undirected graphs give a symmetric matrix; a self-loop sets a[i][i].
template <typename Graph>
std::vector<std::vector<double>> DenseAdjacency(const Graph& g) {
  const std::vector<NodeId> ids = g.SortedNodeIds();
  const size_t n = ids.size();
  std::vector<std::vector<double>> a(n);
  for (size_t i = 0; i < n; ++i) {
    a[i].assign(n, 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (g.HasEdge(ids[i], ids[j])) a[i][j] = 1.0;
    }
  }
  return a;
}

// degree / (n - 1) from the dense matrix's row sums (`in` = column sums).
template <typename Graph>
NodeValues OracleDegreeCentrality(const Graph& g, bool in) {
  const std::vector<std::vector<double>> a = DenseAdjacency(g);
  const size_t n = a.size();
  const double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
  std::vector<double> c(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) c[i] += in ? a[j][i] : a[i][j];
    c[i] /= denom;
  }
  return ZipIds(g.SortedNodeIds(), c);
}

// Dense power-iteration PageRank with teleport vector `t` (by position,
// summing to 1), run for exactly `iters` iterations:
//   next_i = (1 - d) t_i + d (sum_u a[u][i] pr_u / outdeg_u + dangling t_i)
// where dangling is the rank held by nodes with no out-edge.
inline NodeValues DensePageRank(const DirectedGraph& g,
                                const std::vector<double>& t, double d,
                                int iters) {
  const std::vector<std::vector<double>> a = DenseAdjacency(g);
  const size_t n = a.size();
  std::vector<double> outdeg(n, 0.0);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v) outdeg[u] += a[u][v];
  }
  std::vector<double> pr = t, next(n);
  for (int it = 0; it < iters; ++it) {
    double dangling = 0.0;
    for (size_t u = 0; u < n; ++u) {
      if (outdeg[u] == 0.0) dangling += pr[u];
    }
    for (size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (size_t u = 0; u < n; ++u) {
        if (a[u][i] != 0.0) acc += pr[u] / outdeg[u];
      }
      next[i] = (1.0 - d) * t[i] + d * (acc + dangling * t[i]);
    }
    pr.swap(next);
  }
  return ZipIds(g.SortedNodeIds(), pr);
}

inline void NormalizeL2(std::vector<double>* v) {
  double norm = 0.0;
  for (const double x : *v) norm += x * x;
  norm = std::sqrt(norm);
  if (norm > 0) {
    for (double& x : *v) x /= norm;
  }
}

// Dense HITS for exactly `iters` iterations from all-ones vectors:
// auth = Aᵀ hub, then hub = A auth, each L2-normalized. Returns
// (hubs, authorities).
inline std::pair<NodeValues, NodeValues> DenseHits(const DirectedGraph& g,
                                                   int iters) {
  const std::vector<std::vector<double>> a = DenseAdjacency(g);
  const size_t n = a.size();
  std::vector<double> hub(n, 1.0), auth(n, 1.0);
  NormalizeL2(&hub);
  NormalizeL2(&auth);
  for (int it = 0; it < iters; ++it) {
    std::vector<double> auth_next(n, 0.0), hub_next(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t u = 0; u < n; ++u) auth_next[i] += a[u][i] * hub[u];
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t v = 0; v < n; ++v) hub_next[i] += a[i][v] * auth_next[v];
    }
    NormalizeL2(&auth_next);
    NormalizeL2(&hub_next);
    auth = std::move(auth_next);
    hub = std::move(hub_next);
  }
  const std::vector<NodeId> ids = g.SortedNodeIds();
  return {ZipIds(ids, hub), ZipIds(ids, auth)};
}

// Eigenvector centrality by dense iteration on A + I (A with a zero
// diagonal: self-loops ignored) for exactly `iters` iterations from the
// uniform unit vector, L2-normalized each step.
inline NodeValues DenseEigenvector(const UndirectedGraph& g, int iters) {
  std::vector<std::vector<double>> a = DenseAdjacency(g);
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) a[i][i] = 1.0;  // A + I.
  std::vector<double> x(n, 1.0 / std::sqrt(static_cast<double>(n)));
  for (int it = 0; it < iters; ++it) {
    std::vector<double> next(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) next[i] += a[i][j] * x[j];
    }
    NormalizeL2(&next);
    x = std::move(next);
  }
  return ZipIds(g.SortedNodeIds(), x);
}

// Neighbors of u other than u itself, from the graph's own adjacency.
inline std::vector<NodeId> NeighborsNoSelf(const UndirectedGraph& g,
                                           NodeId u) {
  std::vector<NodeId> out;
  for (const NodeId v : g.GetNode(u)->nbrs) {
    if (v != u) out.push_back(v);
  }
  return out;
}

// Per-node triangles by brute force: pairs of distinct (non-self)
// neighbors that are themselves adjacent.
inline NodeInts BruteNodeTriangles(const UndirectedGraph& g) {
  NodeInts out;
  for (const NodeId u : g.SortedNodeIds()) {
    const std::vector<NodeId> nu = NeighborsNoSelf(g, u);
    int64_t t = 0;
    for (size_t a = 0; a < nu.size(); ++a) {
      for (size_t b = a + 1; b < nu.size(); ++b) {
        if (g.HasEdge(nu[a], nu[b])) ++t;
      }
    }
    out.emplace_back(u, t);
  }
  return out;
}

// Local clustering t(u) / C(deg(u), 2) with self-loops excluded from the
// degree (0 when deg < 2).
inline NodeValues BruteLocalClustering(const UndirectedGraph& g) {
  NodeValues out;
  for (const auto& [u, t] : BruteNodeTriangles(g)) {
    const double deg = static_cast<double>(NeighborsNoSelf(g, u).size());
    const double pairs = deg * (deg - 1) / 2.0;
    out.emplace_back(u, pairs > 0 ? static_cast<double>(t) / pairs : 0.0);
  }
  return out;
}

// Global clustering: closed wedges (3 per triangle) over all wedges.
inline double BruteGlobalClustering(const UndirectedGraph& g) {
  int64_t closed = 0, wedges = 0;
  for (const auto& [u, t] : BruteNodeTriangles(g)) {
    const int64_t deg = static_cast<int64_t>(NeighborsNoSelf(g, u).size());
    closed += t;
    wedges += deg * (deg - 1) / 2;
  }
  return wedges > 0 ? static_cast<double>(closed) / wedges : 0.0;
}

// The k-core by naive peeling: delete any node of degree < k until none is
// left. A self-loop counts 1 toward its node's degree.
inline UndirectedGraph NaiveKCore(UndirectedGraph g, int64_t k) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id : g.SortedNodeIds()) {
      if (g.Degree(id) < k) {
        g.DelNode(id);
        changed = true;
      }
    }
  }
  return g;
}

// Core number of every node: the largest k whose NaiveKCore keeps it.
inline NodeInts NaiveCoreNumbers(const UndirectedGraph& g) {
  std::map<NodeId, int64_t> core;
  for (const NodeId id : g.SortedNodeIds()) core[id] = 0;
  UndirectedGraph h = g;
  for (int64_t k = 1; h.NumNodes() > 0; ++k) {
    h = NaiveKCore(std::move(h), k);  // The k-core lies inside the (k-1)-core.
    for (const NodeId id : h.SortedNodeIds()) core[id] = k;
  }
  return NodeInts(core.begin(), core.end());
}

// Closeness (Wasserman–Faust: ((r-1)/sum) · ((r-1)/(n-1)) over the r
// nodes u reaches), harmonic (sum of 1/dist over reached v != u, over
// n-1) and eccentricity (largest finite distance) from a distance matrix.
inline NodeValues OracleCloseness(const std::vector<NodeId>& ids,
                                  const std::vector<std::vector<int64_t>>& d) {
  const size_t n = ids.size();
  std::vector<double> c(n, 0.0);
  for (size_t u = 0; u < n; ++u) {
    int64_t total = 0, r = 0;
    for (size_t v = 0; v < n; ++v) {
      if (d[u][v] == kInfDist) continue;
      total += d[u][v];
      ++r;
    }
    if (total > 0 && n > 1) {
      c[u] = (static_cast<double>(r - 1) / total) *
             (static_cast<double>(r - 1) / static_cast<double>(n - 1));
    }
  }
  return ZipIds(ids, c);
}

inline NodeValues OracleHarmonic(const std::vector<NodeId>& ids,
                                 const std::vector<std::vector<int64_t>>& d) {
  const size_t n = ids.size();
  std::vector<double> c(n, 0.0);
  for (size_t u = 0; u < n && n > 1; ++u) {
    for (size_t v = 0; v < n; ++v) {
      if (v != u && d[u][v] != kInfDist) c[u] += 1.0 / d[u][v];
    }
    c[u] /= static_cast<double>(n - 1);
  }
  return ZipIds(ids, c);
}

inline NodeInts OracleEccentricity(const std::vector<NodeId>& ids,
                                   const std::vector<std::vector<int64_t>>& d) {
  std::vector<int64_t> e(ids.size(), 0);
  for (size_t u = 0; u < ids.size(); ++u) {
    for (const int64_t x : d[u]) {
      if (x != kInfDist) e[u] = std::max(e[u], x);
    }
  }
  return ZipIds(ids, e);
}

// Betweenness from shortest-path counts: sigma[s][t] counts shortest s→t
// paths (summed over the predecessors u of t with d[s][u] + 1 = d[s][t]),
// and bc(v) = sum over s != v != t of sigma[s][v] · sigma[v][t] /
// sigma[s][t] whenever v lies on a shortest s→t path. `halve` counts each
// unordered pair once (undirected graphs).
template <typename Graph>
NodeValues OracleBetweenness(const Graph& g, bool halve) {
  const std::vector<NodeId> ids = g.SortedNodeIds();
  const std::vector<std::vector<int64_t>> d = BruteAllPairs(g);
  const std::vector<std::vector<double>> a = DenseAdjacency(g);
  const size_t n = ids.size();
  std::vector<std::vector<double>> sigma(n, std::vector<double>(n, 0.0));
  for (size_t s = 0; s < n; ++s) {
    // Targets by ascending distance, so every predecessor is final first.
    std::vector<size_t> order;
    for (size_t t = 0; t < n; ++t) {
      if (d[s][t] != kInfDist) order.push_back(t);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t x, size_t y) { return d[s][x] < d[s][y]; });
    sigma[s][s] = 1.0;
    for (const size_t t : order) {
      for (size_t u = 0; u < n && t != s; ++u) {
        if (u != t && a[u][t] != 0.0 && d[s][u] + 1 == d[s][t]) {
          sigma[s][t] += sigma[s][u];
        }
      }
    }
  }
  std::vector<double> bc(n, 0.0);
  for (size_t v = 0; v < n; ++v) {
    for (size_t s = 0; s < n; ++s) {
      if (s == v || d[s][v] == kInfDist) continue;
      for (size_t t = 0; t < n; ++t) {
        if (t == v || t == s || d[v][t] == kInfDist) continue;
        if (d[s][v] + d[v][t] == d[s][t]) {
          bc[v] += sigma[s][v] * sigma[v][t] / sigma[s][t];
        }
      }
    }
    if (halve) bc[v] /= 2.0;
  }
  return ZipIds(ids, bc);
}

// Newman modularity straight from its definition,
//   Q = 1/(2m) · sum_ij [A_ij − k_i k_j / (2m)] · [c_i = c_j],
// with A_uu = 2 for a self-loop and k_i = sum_j A_ij. A node missing from
// `labels` gets label 0.
inline double OracleModularity(const UndirectedGraph& g,
                               const NodeInts& labels) {
  const double m2 = 2.0 * static_cast<double>(g.NumEdges());
  if (m2 == 0) return 0.0;
  const std::vector<NodeId> ids = g.SortedNodeIds();
  const size_t n = ids.size();
  std::map<NodeId, int64_t> label_of(labels.begin(), labels.end());
  std::vector<int64_t> c(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const auto it = label_of.find(ids[i]);
    if (it != label_of.end()) c[i] = it->second;
  }
  std::vector<std::vector<double>> a = DenseAdjacency(g);
  for (size_t i = 0; i < n; ++i) a[i][i] *= 2.0;
  std::vector<double> k(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) k[i] += a[i][j];
  }
  double q = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (c[i] == c[j]) q += a[i][j] - k[i] * k[j] / m2;
    }
  }
  return q / m2;
}

// Builds a small int-columned table from rows.
inline TablePtr MakeIntTable(const std::vector<std::string>& col_names,
                             const std::vector<std::vector<int64_t>>& rows) {
  Schema schema;
  for (const std::string& n : col_names) {
    schema.AddColumn(n, ColumnType::kInt).Abort("MakeIntTable");
  }
  TablePtr t = Table::Create(std::move(schema));
  for (const auto& r : rows) {
    std::vector<Value> vals(r.begin(), r.end());
    t->AppendRow(vals).Abort("MakeIntTable");
  }
  return t;
}

// What a TSV text should load to: an error (code and message) or rows of
// cells.
struct ReferenceTsv {
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::vector<std::vector<Value>> rows;
};

// Line-by-line reference for LoadTableTSV's contract, sharing no code with
// table_io. Lines end at '\n' and lose one trailing '\r'; with
// `has_header` the first non-blank line is the header, '#'-prefixed or
// not; after it, blank lines and '#' lines carry no row. Each data line is
// split on every tab, then its fields are parsed left to right; the first
// bad line in file order (1-based physical line N) is the error.
inline ReferenceTsv ReferenceParseTsv(const Schema& schema,
                                      std::string_view text,
                                      bool has_header) {
  ReferenceTsv out;
  bool header_pending = has_header;
  int64_t lineno = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (header_pending) {
      header_pending = false;
      continue;
    }
    if (line.front() == '#') continue;
    std::vector<std::string_view> fields;
    size_t start = 0;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == '\t') {
        fields.push_back(line.substr(start, i - start));
        start = i + 1;
      }
    }
    const std::string where = "line " + std::to_string(lineno);
    if (static_cast<int>(fields.size()) != schema.num_columns()) {
      out.code = StatusCode::kInvalidArgument;
      out.message = where + ": expected " +
                    std::to_string(schema.num_columns()) + " fields, got " +
                    std::to_string(fields.size());
      out.rows.clear();
      return out;
    }
    std::vector<Value> row;
    for (int c = 0; c < schema.num_columns(); ++c) {
      const std::string_view f = fields[c];
      const char* end = f.data() + f.size();
      const ColumnType type = schema.column(c).type;
      bool ok = true;
      if (type == ColumnType::kInt) {
        int64_t v = 0;
        const auto [ptr, ec] = std::from_chars(f.data(), end, v);
        ok = !f.empty() && ec == std::errc() && ptr == end;
        row.emplace_back(v);
      } else if (type == ColumnType::kFloat) {
        double v = 0;
        const auto [ptr, ec] = std::from_chars(f.data(), end, v);
        ok = !f.empty() && ec == std::errc() && ptr == end;
        row.emplace_back(v);
      } else {
        row.emplace_back(std::string(f));
      }
      if (!ok) {
        out.code = StatusCode::kInvalidArgument;
        out.message = where + ", column '" + schema.column(c).name +
                      "': cannot parse " +
                      (type == ColumnType::kInt ? "integer" : "float") +
                      ": '" + std::string(f) + "'";
        out.rows.clear();
        return out;
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

// One column of reference cells, held as plain typed vectors (strings as
// bytes). Tests generate their data into these and load it into a Table,
// so the select oracle below reads no table code. Only the vector of
// `type` is used.
struct RefColumn {
  std::string name;
  ColumnType type = ColumnType::kInt;
  std::vector<int64_t> ints;
  std::vector<double> floats;
  std::vector<std::string> strs;
};

// Whether `a <op> b` holds, with the operators of T.
template <typename T>
bool RefCompare(const T& a, CmpOp op, const T& b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

// Select's contract for one row of one leaf: ints compare with an int
// literal; floats with a float or int literal, as double (so NaN matches
// only `!=`); strings compare bytes with a string literal. Literals of any
// other type are a contract violation here (Select rejects them).
inline bool RefLeafHolds(const RefColumn& c, int64_t row, CmpOp op,
                         const Value& rhs) {
  switch (c.type) {
    case ColumnType::kInt:
      return RefCompare(c.ints[row], op, std::get<int64_t>(rhs));
    case ColumnType::kFloat: {
      const double r = std::holds_alternative<double>(rhs)
                           ? std::get<double>(rhs)
                           : static_cast<double>(std::get<int64_t>(rhs));
      return RefCompare(c.floats[row], op, r);
    }
    case ColumnType::kString:
      return RefCompare(c.strs[row], op, std::get<std::string>(rhs));
  }
  return false;
}

// The ascending rows where the DNF predicate holds — some AND-group has
// every leaf true — evaluated row by row over the reference columns.
inline std::vector<int64_t> ReferenceSelect(const std::vector<RefColumn>& cols,
                                            const PredicateExpr& pred) {
  auto find = [&](const std::string& name) -> const RefColumn& {
    for (const RefColumn& c : cols) {
      if (c.name == name) return c;
    }
    RINGO_CHECK(false) << "no reference column '" << name << "'";
    return cols.front();
  };
  const int64_t n = cols.empty() ? 0
                                 : static_cast<int64_t>(std::max(
                                       {cols[0].ints.size(),
                                        cols[0].floats.size(),
                                        cols[0].strs.size()}));
  std::vector<int64_t> keep;
  for (int64_t r = 0; r < n; ++r) {
    bool any = false;
    for (const auto& conj : pred.disjuncts) {
      bool all = true;
      for (const ParsedPredicate& l : conj) {
        all = all && RefLeafHolds(find(l.column), r, l.op, l.value);
      }
      any = any || all;
    }
    if (any) keep.push_back(r);
  }
  return keep;
}

}  // namespace testing
}  // namespace ringo

#endif  // RINGO_TESTS_TEST_SUPPORT_H_
