// Compressed-vs-plain CSR parity suite (DESIGN.md §14). Two identical
// graphs build their base AlgoView under opposite compactcsr settings —
// one stores delta+varint-compressed neighbor arrays decoded block-wise
// through NbrSpan, the other the plain int64 arrays (the parity oracle).
// Every span must match element-for-element, degrees must agree, and
// algorithm results computed over the two layouts must be identical, at
// every thread count. Delta overlays then stack on top of each base
// (ApplyEdgeBatch + Of()), proving DirPatch composition is
// layout-oblivious.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs.h"
#include "algo/compact_csr.h"
#include "algo/connectivity.h"
#include "algo/kcore.h"
#include "algo/pagerank.h"
#include "algo/triangles.h"
#include "gen/graph_gen.h"
#include "stress/stress_support.h"
#include "test_support.h"
#include "util/rng.h"

namespace ringo {
namespace {

// ------------------------------------------------------------ family matrix
// Family builders are deterministic, so calling one twice yields two
// structurally identical graphs — one per arm.

DirectedGraph MakeDirectedFamily(const std::string& name) {
  if (name == "random") return testing::RandomDirected(300, 1200, 0xFEED);
  if (name == "rmat") {
    return gen::BuildDirected(gen::RMatEdges(7, 1500, 0xACE).ValueOrDie());
  }
  if (name == "star") {
    DirectedGraph star;
    for (NodeId i = 0; i <= 32; ++i) star.AddNode(i);
    for (NodeId i = 1; i <= 32; ++i) star.AddEdge(i, 0);
    star.AddEdge(0, 1);
    return star;
  }
  if (name == "chain") {
    DirectedGraph chain;
    for (NodeId i = 0; i < 50; ++i) chain.AddNode(i);
    for (NodeId i = 0; i + 1 < 50; ++i) chain.AddEdge(i, i + 1);
    return chain;
  }
  if (name == "self_loops") {
    return testing::RandomDirected(100, 300, 0x5E1F, /*self_loops=*/true);
  }
  // "isolated": random plus id-gapped silent nodes.
  DirectedGraph iso = testing::RandomDirected(80, 200, 0x1507);
  for (NodeId i = 500; i < 510; ++i) iso.AddNode(i);
  return iso;
}

UndirectedGraph MakeUndirectedFamily(const std::string& name) {
  if (name == "random") return testing::RandomUndirected(300, 900, 0xC0FFEE);
  if (name == "rmat") {
    return gen::BuildUndirected(gen::RMatEdges(7, 1500, 0xBEEF).ValueOrDie());
  }
  if (name == "star") return gen::Star(64);
  // "isolated"
  UndirectedGraph iso = testing::RandomUndirected(80, 160, 0x150);
  for (NodeId i = 500; i < 510; ++i) iso.AddNode(i);
  return iso;
}

const char* kDirectedFamilies[] = {"random", "rmat",       "star",
                                   "chain",  "self_loops", "isolated"};
const char* kUndirectedFamilies[] = {"random", "rmat", "star", "isolated"};

// ----------------------------------------------------------------- helpers

// Spans and degrees must match element-for-element (bit-identical node
// indices; the compressed arm decodes through NbrSpan scratch).
void ExpectViewParity(const AlgoView& compact, const AlgoView& plain,
                      const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(compact.NumNodes(), plain.NumNodes());
  ASSERT_EQ(compact.directed(), plain.directed());
  ASSERT_EQ(compact.NumOutArcs(), plain.NumOutArcs());
  ASSERT_EQ(compact.NumInArcs(), plain.NumInArcs());
  for (int64_t i = 0; i < compact.NumNodes(); ++i) {
    ASSERT_EQ(compact.IdOf(i), plain.IdOf(i));
    ASSERT_EQ(compact.OutDegree(i), plain.OutDegree(i)) << "node " << i;
    ASSERT_EQ(compact.InDegree(i), plain.InDegree(i)) << "node " << i;
    const auto co = compact.Out(i);
    const auto po = plain.Out(i);
    ASSERT_EQ(co.size(), po.size()) << "out run of dense index " << i;
    for (size_t k = 0; k < co.size(); ++k) ASSERT_EQ(co[k], po[k]);
    const auto ci = compact.In(i);
    const auto pi = plain.In(i);
    ASSERT_EQ(ci.size(), pi.size()) << "in run of dense index " << i;
    for (size_t k = 0; k < ci.size(); ++k) ASSERT_EQ(ci[k], pi[k]);
    // The fused visitor (ForEachOut/ForEachIn) must yield exactly the span
    // values in order on both layouts — it is a second decode path.
    std::vector<int64_t> visited;
    compact.ForEachOut(i, [&](int64_t u) { visited.push_back(u); });
    ASSERT_EQ(visited.size(), po.size()) << "ForEachOut of dense index " << i;
    for (size_t k = 0; k < visited.size(); ++k) ASSERT_EQ(visited[k], po[k]);
    visited.clear();
    compact.ForEachIn(i, [&](int64_t u) { visited.push_back(u); });
    ASSERT_EQ(visited.size(), pi.size()) << "ForEachIn of dense index " << i;
    for (size_t k = 0; k < visited.size(); ++k) ASSERT_EQ(visited[k], pi[k]);
  }
}

template <typename T>
void ExpectExactEqual(const std::vector<std::pair<NodeId, T>>& a,
                      const std::vector<std::pair<NodeId, T>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].first, b[i].first);
    ASSERT_EQ(a[i].second, b[i].second);
  }
}

// Reads both arms and compares spans + algorithm outputs. The base layout
// is frozen at build time, so each arm's switch scope only needs to cover
// the Of() that builds it.
void ReadAndCompareDirected(const DirectedGraph& gc, const DirectedGraph& gp,
                            const std::string& what) {
  std::shared_ptr<const AlgoView> vc, vp;
  NodeValues pr_c, pr_p;
  ComponentLabels scc_c, scc_p;
  NodeInts bfs_c, bfs_p;
  PageRankConfig cfg;
  cfg.max_iters = 25;
  cfg.tol = 0;
  const NodeId src =
      gc.NumNodes() > 0 ? gc.SortedNodeIds().front() : NodeId{0};
  {
    compactcsr::ScopedEnable on(true);
    vc = AlgoView::Of(gc);
    pr_c = ParallelPageRank(gc, cfg).ValueOrDie();
    scc_c = StronglyConnectedComponents(gc);
    if (gc.NumNodes() > 0) bfs_c = BfsDistances(gc, src);
  }
  {
    compactcsr::ScopedEnable off(false);
    vp = AlgoView::Of(gp);
    pr_p = ParallelPageRank(gp, cfg).ValueOrDie();
    scc_p = StronglyConnectedComponents(gp);
    if (gp.NumNodes() > 0) bfs_p = BfsDistances(gp, src);
  }
  ExpectViewParity(*vc, *vp, what);
  SCOPED_TRACE(what);
  // Same kernels, same snapshot content, same thread count → the float
  // outputs are bit-identical, not merely close.
  ExpectExactEqual(pr_c, pr_p);
  ExpectExactEqual(scc_c, scc_p);
  ExpectExactEqual(bfs_c, bfs_p);
}

void ReadAndCompareUndirected(const UndirectedGraph& gc,
                              const UndirectedGraph& gp,
                              const std::string& what) {
  std::shared_ptr<const AlgoView> vc, vp;
  int64_t tri_c = 0, tri_p = 0;
  ComponentLabels cc_c, cc_p;
  NodeInts core_c, core_p;
  {
    compactcsr::ScopedEnable on(true);
    vc = AlgoView::Of(gc);
    tri_c = ParallelTriangleCount(gc);
    cc_c = ConnectedComponents(gc);
    core_c = CoreNumbers(gc);
  }
  {
    compactcsr::ScopedEnable off(false);
    vp = AlgoView::Of(gp);
    tri_p = ParallelTriangleCount(gp);
    cc_p = ConnectedComponents(gp);
    core_p = CoreNumbers(gp);
  }
  ExpectViewParity(*vc, *vp, what);
  SCOPED_TRACE(what);
  EXPECT_EQ(tri_c, tri_p);
  ExpectExactEqual(cc_c, cc_p);
  ExpectExactEqual(core_c, core_p);
}

// Random mixed batch over the existing node set.
template <typename Graph>
void MutateBoth(Graph* a, Graph* b, uint64_t seed) {
  const std::vector<NodeId> ids = a->SortedNodeIds();
  if (ids.size() < 2) return;
  Rng rng(seed);
  std::vector<Edge> inserts, deletes;
  for (int k = 0; k < 40; ++k) {
    const NodeId u = ids[rng.UniformInt(0, ids.size() - 1)];
    const NodeId v = ids[rng.UniformInt(0, ids.size() - 1)];
    if (u == v) continue;
    if (k % 3 == 0) {
      deletes.push_back({u, v});
    } else {
      inserts.push_back({u, v});
    }
  }
  a->ApplyEdgeBatch(inserts, deletes);
  b->ApplyEdgeBatch(inserts, deletes);
}

// ------------------------------------------------------------------- tests

TEST(CompactCsrParityTest, DirectedFamilies) {
  for (const char* fam : kDirectedFamilies) {
    const DirectedGraph gc = MakeDirectedFamily(fam);
    const DirectedGraph gp = MakeDirectedFamily(fam);
    for (int threads : testing::StressThreadCounts()) {
      testing::ScopedNumThreads scoped(threads);
      ReadAndCompareDirected(
          gc, gp, std::string(fam) + " threads=" + std::to_string(threads));
    }
    // The compact arm really is compact (plain arm really is not).
    compactcsr::ScopedEnable on(true);
    EXPECT_TRUE(AlgoView::Of(gc)->compressed()) << fam;
    compactcsr::ScopedEnable off(false);
    EXPECT_FALSE(AlgoView::Of(gp)->compressed()) << fam;
  }
}

TEST(CompactCsrParityTest, UndirectedFamilies) {
  for (const char* fam : kUndirectedFamilies) {
    const UndirectedGraph gc = MakeUndirectedFamily(fam);
    const UndirectedGraph gp = MakeUndirectedFamily(fam);
    for (int threads : testing::StressThreadCounts()) {
      testing::ScopedNumThreads scoped(threads);
      ReadAndCompareUndirected(
          gc, gp, std::string(fam) + " threads=" + std::to_string(threads));
    }
  }
}

// Delta overlays compose identically over both base layouts: the patch
// stores plain runs either way, and span reads merge patch + (decoded)
// base behind the same NbrSpan interface.
TEST(CompactCsrParityTest, DeltaOverlaysOnBothLayouts) {
  DirectedGraph gc = MakeDirectedFamily("random");
  DirectedGraph gp = MakeDirectedFamily("random");
  // Freeze opposite base layouts first.
  {
    compactcsr::ScopedEnable on(true);
    ASSERT_TRUE(AlgoView::Of(gc)->compressed());
  }
  {
    compactcsr::ScopedEnable off(false);
    ASSERT_FALSE(AlgoView::Of(gp)->compressed());
  }
  for (int round = 0; round < 4; ++round) {
    MutateBoth(&gc, &gp, 0xDE17A + round);
    for (int threads : testing::StressThreadCounts()) {
      testing::ScopedNumThreads scoped(threads);
      ReadAndCompareDirected(gc, gp,
                             "delta round " + std::to_string(round) +
                                 " threads=" + std::to_string(threads));
    }
  }
}

TEST(CompactCsrParityTest, MemoryFootprintActuallyShrinks) {
  const DirectedGraph gc = MakeDirectedFamily("rmat");
  const DirectedGraph gp = MakeDirectedFamily("rmat");
  std::shared_ptr<const AlgoView> vc, vp;
  {
    compactcsr::ScopedEnable on(true);
    vc = AlgoView::Of(gc);
  }
  {
    compactcsr::ScopedEnable off(false);
    vp = AlgoView::Of(gp);
  }
  ASSERT_TRUE(vc->compressed());
  ASSERT_FALSE(vp->compressed());
  EXPECT_LT(vc->MemoryUsageBytes(), vp->MemoryUsageBytes());
}

}  // namespace
}  // namespace ringo
