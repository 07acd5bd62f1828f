#include "graph/csr_graph.h"

#include <algorithm>

#include "graph/directed_graph.h"
#include "util/parallel.h"
#include "util/radix_sort.h"

namespace ringo {

CsrGraph CsrGraph::FromEdges(std::vector<Edge> edges) {
  CsrGraph g;
  // Node id universe = endpoints of all edges, densely renumbered in
  // ascending id order.
  std::vector<NodeId> ids;
  ids.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    ids.push_back(e.first);
    ids.push_back(e.second);
  }
  ParallelSort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  g.ids_ = std::move(ids);
  const int64_t n = g.NumNodes();
  g.index_.Reserve(n);
  for (int64_t i = 0; i < n; ++i) g.index_.Insert(g.ids_[i], i);

  // Translate edges to dense indices, sort, dedupe.
  std::vector<Edge> dense(edges.size());
  ParallelFor(0, static_cast<int64_t>(edges.size()), [&](int64_t i) {
    dense[i] = {*g.index_.Find(edges[i].first), *g.index_.Find(edges[i].second)};
  });
  ParallelSort(dense.begin(), dense.end());
  dense.erase(std::unique(dense.begin(), dense.end()), dense.end());
  const int64_t m = static_cast<int64_t>(dense.size());

  // Out-CSR from (src, dst) order.
  std::vector<int64_t> out_deg(n, 0);
  for (const Edge& e : dense) ++out_deg[e.first];
  g.out_offsets_.assign(n + 1, 0);
  for (int64_t i = 0; i < n; ++i) g.out_offsets_[i + 1] = g.out_offsets_[i] + out_deg[i];
  g.out_nbrs_.resize(m);
  ParallelFor(0, m, [&](int64_t i) { g.out_nbrs_[i] = dense[i].second; });

  // In-CSR from (dst, src) order.
  std::vector<Edge> rev(dense.size());
  ParallelFor(0, m, [&](int64_t i) { rev[i] = {dense[i].second, dense[i].first}; });
  ParallelSort(rev.begin(), rev.end());
  std::vector<int64_t> in_deg(n, 0);
  for (const Edge& e : rev) ++in_deg[e.first];
  g.in_offsets_.assign(n + 1, 0);
  for (int64_t i = 0; i < n; ++i) g.in_offsets_[i + 1] = g.in_offsets_[i] + in_deg[i];
  g.in_nbrs_.resize(m);
  ParallelFor(0, m, [&](int64_t i) { g.in_nbrs_[i] = rev[i].second; });
  return g;
}

CsrGraph CsrGraph::FromGraph(const DirectedGraph& src) {
  // Degree count + exclusive prefix sum + parallel translated fill straight
  // from the sorted adjacency runs — the dynamic graph already has
  // unique sorted edges, so the materialize/sort/dedupe path of FromEdges
  // is unnecessary, and translation through the monotone id->index map
  // keeps each neighbor run sorted.
  CsrGraph g;
  g.ids_ = src.NodeIds();
  RadixSortI64(g.ids_);
  const int64_t n = g.NumNodes();
  g.index_.Reserve(n);
  for (int64_t i = 0; i < n; ++i) g.index_.Insert(g.ids_[i], i);

  std::vector<DirectedGraph::NodeView> nodes(n);
  g.out_offsets_.assign(n + 1, 0);
  g.in_offsets_.assign(n + 1, 0);
  ParallelFor(0, n, [&](int64_t i) {
    nodes[i] = *src.GetNode(g.ids_[i]);
    g.out_offsets_[i] = static_cast<int64_t>(nodes[i].out.size());
    g.in_offsets_[i] = static_cast<int64_t>(nodes[i].in.size());
  });
  const int64_t m_out = ExclusivePrefixSum(g.out_offsets_.data(),
                                           g.out_offsets_.data(), n + 1);
  const int64_t m_in = ExclusivePrefixSum(g.in_offsets_.data(),
                                          g.in_offsets_.data(), n + 1);
  g.out_nbrs_.resize(m_out);
  g.in_nbrs_.resize(m_in);
  ParallelForDynamic(0, n, [&](int64_t i) {
    int64_t pos = g.out_offsets_[i];
    for (NodeId v : nodes[i].out) g.out_nbrs_[pos++] = *g.index_.Find(v);
    pos = g.in_offsets_[i];
    for (NodeId v : nodes[i].in) g.in_nbrs_[pos++] = *g.index_.Find(v);
  });
  return g;
}

bool CsrGraph::HasEdge(NodeId src, NodeId dst) const {
  const int64_t s = IndexOf(src);
  const int64_t d = IndexOf(dst);
  if (s < 0 || d < 0) return false;
  const auto nbrs = OutNeighbors(s);
  return std::binary_search(nbrs.begin(), nbrs.end(), d);
}

bool CsrGraph::DelEdge(NodeId src, NodeId dst) {
  const int64_t s = IndexOf(src);
  const int64_t d = IndexOf(dst);
  if (s < 0 || d < 0) return false;
  const int64_t n = NumNodes();

  // Locate in the out array.
  const auto out = OutNeighbors(s);
  auto out_it = std::lower_bound(out.begin(), out.end(), d);
  if (out_it == out.end() || *out_it != d) return false;
  const int64_t out_pos = out_offsets_[s] + (out_it - out.begin());
  // Compact: every element after out_pos shifts left — the O(|E|) cost.
  out_nbrs_.erase(out_nbrs_.begin() + out_pos);
  for (int64_t i = s + 1; i <= n; ++i) --out_offsets_[i];

  const auto in = InNeighbors(d);
  auto in_it = std::lower_bound(in.begin(), in.end(), s);
  const int64_t in_pos = in_offsets_[d] + (in_it - in.begin());
  in_nbrs_.erase(in_nbrs_.begin() + in_pos);
  for (int64_t i = d + 1; i <= n; ++i) --in_offsets_[i];
  return true;
}

int64_t CsrGraph::MemoryUsageBytes() const {
  return static_cast<int64_t>(
      ids_.capacity() * sizeof(NodeId) + index_.MemoryUsageBytes() +
      (out_offsets_.capacity() + in_offsets_.capacity() +
       out_nbrs_.capacity() + in_nbrs_.capacity()) *
          sizeof(int64_t));
}

}  // namespace ringo
