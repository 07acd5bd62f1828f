#include "algo/similarity.h"

#include <cmath>
#include <vector>

namespace ringo {

namespace {

// Sorted neighbor list of u excluding u and `other`.
std::vector<NodeId> CleanNbrs(const UndirectedGraph& g, NodeId u,
                              NodeId other) {
  std::vector<NodeId> out;
  const auto nd = g.GetNode(u);
  if (!nd) return out;
  out.reserve(nd->nbrs.size());
  for (NodeId w : nd->nbrs) {
    if (w != u && w != other) out.push_back(w);
  }
  return out;
}

template <typename Fn>
void ForEachCommon(const std::vector<NodeId>& a, const std::vector<NodeId>& b,
                   const Fn& fn) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      fn(a[i]);
      ++i;
      ++j;
    }
  }
}

}  // namespace

int64_t CommonNeighbors(const UndirectedGraph& g, NodeId u, NodeId v) {
  const std::vector<NodeId> nu = CleanNbrs(g, u, v);
  const std::vector<NodeId> nv = CleanNbrs(g, v, u);
  int64_t count = 0;
  ForEachCommon(nu, nv, [&](NodeId) { ++count; });
  return count;
}

double JaccardSimilarity(const UndirectedGraph& g, NodeId u, NodeId v) {
  const std::vector<NodeId> nu = CleanNbrs(g, u, v);
  const std::vector<NodeId> nv = CleanNbrs(g, v, u);
  int64_t common = 0;
  ForEachCommon(nu, nv, [&](NodeId) { ++common; });
  const int64_t uni =
      static_cast<int64_t>(nu.size() + nv.size()) - common;
  return uni > 0 ? static_cast<double>(common) / static_cast<double>(uni)
                 : 0.0;
}

double AdamicAdar(const UndirectedGraph& g, NodeId u, NodeId v) {
  const std::vector<NodeId> nu = CleanNbrs(g, u, v);
  const std::vector<NodeId> nv = CleanNbrs(g, v, u);
  double score = 0.0;
  ForEachCommon(nu, nv, [&](NodeId w) {
    const int64_t d = g.Degree(w);
    if (d >= 2) score += 1.0 / std::log(static_cast<double>(d));
  });
  return score;
}

}  // namespace ringo
