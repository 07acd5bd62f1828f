// Shared test scaffolding: random graph builders and brute-force reference
// implementations that the property tests compare the real algorithms
// against.
#ifndef RINGO_TESTS_TEST_SUPPORT_H_
#define RINGO_TESTS_TEST_SUPPORT_H_

#include <algorithm>
#include <set>
#include <vector>

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

// Brute-force BFS distances via Floyd–Warshall-free repeated relaxation.
inline std::vector<std::vector<int64_t>> BruteAllPairs(
    const UndirectedGraph& g) {
  const std::vector<NodeId> ids = g.SortedNodeIds();
  const int64_t n = static_cast<int64_t>(ids.size());
  constexpr int64_t kInf = INT64_MAX / 4;
  std::vector<std::vector<int64_t>> d(n, std::vector<int64_t>(n, kInf));
  for (int64_t i = 0; i < n; ++i) d[i][i] = 0;
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

}  // namespace testing
}  // namespace ringo

#endif  // RINGO_TESTS_TEST_SUPPORT_H_
