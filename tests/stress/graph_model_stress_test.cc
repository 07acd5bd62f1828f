// Stress: the adjacency core (graph/adjacency_core.h) against a std::set
// model. Seeded streams of node and edge mutations — single ops, hub and
// self-loop node deletes, and edge batches with overlapping inserts and
// deletes, duplicates, self-loops, node-creating pairs and ids next to
// INT64_MIN / INT64_MAX — run on both graph classes at 1 and 4 threads.
// After every operation each touched node's runs must equal the model's
// neighbour sets exactly (so ascending, with no repeats), along with its
// degrees, HasEdge, NumNodes and NumEdges; after every batch the cached
// snapshot (delta-patched or rebuilt) must equal a full AlgoView::Build
// run for run. The streams are long enough to move runs and compact each
// class's arenas, which the arena counters must show.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <type_traits>
#include <vector>

#include "algo/algo_view.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"
#include "stress/stress_support.h"
#include "util/rng.h"

namespace ringo {
namespace {

using testing::ScopedNumThreads;

// Ids near both ends of the range, next to the small ids most ops use.
constexpr std::array<NodeId, 4> kExtremeIds = {INT64_MIN, INT64_MIN + 1,
                                               INT64_MAX - 1, INT64_MAX};

template <typename Graph>
constexpr bool kDirected = std::is_same_v<Graph, DirectedGraph>;

// The reference: every node's neighbour sets per run (out and in for a
// directed graph, one for an undirected one) and the edge count.
template <typename Graph>
struct Model {
  static constexpr int kRuns = kDirected<Graph> ? 2 : 1;
  std::map<NodeId, std::array<std::set<NodeId>, kRuns>> adj;
  int64_t edges = 0;

  bool HasEdge(NodeId u, NodeId v) const {
    const auto it = adj.find(u);
    return it != adj.end() && it->second[0].count(v) > 0;
  }
  void AddNode(NodeId u) { adj[u]; }
  bool AddEdge(NodeId u, NodeId v) {
    AddNode(u);
    AddNode(v);
    if (!adj[u][0].insert(v).second) return false;
    adj[v][kRuns - 1].insert(u);
    ++edges;
    return true;
  }
  bool DelEdge(NodeId u, NodeId v) {
    if (!HasEdge(u, v)) return false;
    adj[u][0].erase(v);
    adj[v][kRuns - 1].erase(u);
    --edges;
    return true;
  }
  // Returns the former neighbours (touched nodes), or nothing if absent.
  std::set<NodeId> DelNode(NodeId u) {
    std::set<NodeId> touched;
    const auto it = adj.find(u);
    if (it == adj.end()) return touched;
    for (int r = 0; r < kRuns; ++r) {
      touched.insert(it->second[r].begin(), it->second[r].end());
    }
    for (const NodeId v : std::vector<NodeId>(it->second[0].begin(),
                                              it->second[0].end())) {
      DelEdge(u, v);
    }
    if constexpr (kRuns == 2) {
      for (const NodeId w : std::vector<NodeId>(it->second[1].begin(),
                                                it->second[1].end())) {
        DelEdge(w, u);
      }
    }
    adj.erase(u);
    touched.erase(u);
    return touched;
  }
};

template <typename Graph>
std::array<std::span<const NodeId>, Model<Graph>::kRuns> Runs(
    const typename Graph::NodeView& nd) {
  if constexpr (kDirected<Graph>) {
    return {nd.out, nd.in};
  } else {
    return {nd.nbrs};
  }
}

template <typename Graph>
void CheckNode(const Graph& g, const Model<Graph>& m, NodeId u) {
  const auto it = m.adj.find(u);
  const auto nd = g.GetNode(u);
  ASSERT_EQ(nd.has_value(), it != m.adj.end()) << "node " << u;
  ASSERT_EQ(g.HasNode(u), nd.has_value()) << "node " << u;
  if (!nd) return;
  const auto runs = Runs<Graph>(*nd);
  for (int r = 0; r < Model<Graph>::kRuns; ++r) {
    const std::set<NodeId>& want = it->second[r];
    ASSERT_TRUE(std::equal(runs[r].begin(), runs[r].end(), want.begin(),
                           want.end()))
        << "node " << u << " run " << r;
  }
  if constexpr (kDirected<Graph>) {
    ASSERT_EQ(g.OutDegree(u), static_cast<int64_t>(it->second[0].size()));
    ASSERT_EQ(g.InDegree(u), static_cast<int64_t>(it->second[1].size()));
  } else {
    ASSERT_EQ(g.Degree(u), static_cast<int64_t>(it->second[0].size()));
  }
  for (const NodeId v : it->second[0]) ASSERT_TRUE(g.HasEdge(u, v));
}

template <typename Graph>
void CheckCounts(const Graph& g, const Model<Graph>& m) {
  ASSERT_EQ(g.NumNodes(), static_cast<int64_t>(m.adj.size()));
  ASSERT_EQ(g.NumEdges(), m.edges);
}

template <typename Graph>
void CheckAll(const Graph& g, const Model<Graph>& m) {
  CheckCounts(g, m);
  for (const auto& [u, runs] : m.adj) CheckNode(g, m, u);
}

void ExpectSameView(const AlgoView& a, const AlgoView& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumOutArcs(), b.NumOutArcs());
  ASSERT_EQ(a.NumInArcs(), b.NumInArcs());
  for (int64_t i = 0; i < a.NumNodes(); ++i) {
    ASSERT_EQ(a.IdOf(i), b.IdOf(i));
    const NbrSpan ao = a.Out(i), bo = b.Out(i);
    const NbrSpan ai = a.In(i), bi = b.In(i);
    ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()))
        << "out run " << i;
    ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()))
        << "in run " << i;
  }
}

// Draws node ids: a few hubs most of the time (long runs that outgrow
// their capacity), a small id space otherwise, and now and then an
// extreme id.
NodeId DrawId(Rng& rng) {
  const int64_t r = rng.UniformInt(0, 99);
  if (r < 30) return rng.UniformInt(0, 3);
  if (r < 33) return kExtremeIds[rng.UniformInt(0, 3)];
  return rng.UniformInt(0, 299);
}

template <typename Graph>
void RunStream(uint64_t seed, int64_t steps) {
  Rng rng(seed);
  Graph g;
  Model<Graph> m;
  bool copied = false;
  for (int64_t step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    const int64_t kind = rng.UniformInt(0, 99);
    std::set<NodeId> touched;
    if (kind < 4) {
      const NodeId u = DrawId(rng);
      const bool was = m.adj.count(u) > 0;
      ASSERT_EQ(g.AddNode(u), !was);
      m.AddNode(u);
      touched.insert(u);
    } else if (kind < 6) {
      const NodeId u = g.AddNode();
      ASSERT_EQ(m.adj.count(u), 0u) << "AddNode() reused id " << u;
      m.AddNode(u);
      touched.insert(u);
    } else if (kind < 40) {
      const NodeId u = DrawId(rng);
      const NodeId v = rng.UniformInt(0, 9) == 0 ? u : DrawId(rng);
      ASSERT_EQ(g.AddEdge(u, v), m.AddEdge(u, v)) << u << "->" << v;
      touched = {u, v};
    } else if (kind < 55) {
      const NodeId u = DrawId(rng);
      const NodeId v = DrawId(rng);
      ASSERT_EQ(g.DelEdge(u, v), m.DelEdge(u, v)) << u << "->" << v;
      touched = {u, v};
    } else if (kind < 60) {
      // A hub, or a node holding a self-loop when one exists.
      NodeId u = rng.UniformInt(0, 3);
      if (rng.UniformInt(0, 1) == 0) {
        for (const auto& [id, runs] : m.adj) {
          if (runs[0].count(id) > 0) {
            u = id;
            break;
          }
        }
      }
      const bool was = m.adj.count(u) > 0;
      ASSERT_EQ(g.DelNode(u), was);
      touched = m.DelNode(u);
      touched.insert(u);
    } else {
      // A batch: inserts and deletes drawn from overlapping id sets, with
      // repeated pairs, self-loops and fresh (node-creating) ids.
      std::vector<Edge> ins, del;
      const int64_t n_ins = rng.UniformInt(0, 40);
      const int64_t n_del = rng.UniformInt(0, 30);
      for (int64_t i = 0; i < n_ins; ++i) {
        const NodeId u = DrawId(rng);
        const NodeId v = rng.UniformInt(0, 9) == 0 ? u : DrawId(rng);
        ins.push_back({u, v});
        if (rng.UniformInt(0, 9) == 0) ins.push_back({u, v});
      }
      for (int64_t i = 0; i < n_del; ++i) {
        if (!ins.empty() && rng.UniformInt(0, 3) == 0) {
          const Edge e = ins[rng.UniformInt(0, int64_t(ins.size()) - 1)];
          del.push_back(rng.UniformInt(0, 1) == 0 ? e
                                                  : Edge{e.second, e.first});
        } else {
          del.push_back({DrawId(rng), DrawId(rng)});
        }
      }
      // Cache a snapshot at the pre-batch stamp, so the refresh below can
      // take the delta path.
      AlgoView::Of(g);
      const EdgeBatchStats st = g.ApplyEdgeBatch(ins, del);
      // Model: inserts first (creating endpoints), then deletes.
      const int64_t edges_before = m.edges;
      const size_t nodes_before = m.adj.size();
      for (const Edge& e : ins) {
        m.AddEdge(e.first, e.second);
        touched.insert(e.first);
        touched.insert(e.second);
      }
      for (const Edge& e : del) {
        m.DelEdge(e.first, e.second);
        touched.insert(e.first);
        touched.insert(e.second);
      }
      ASSERT_EQ(st.new_nodes,
                static_cast<int64_t>(m.adj.size() - nodes_before));
      ASSERT_EQ(st.inserted - st.deleted, m.edges - edges_before);
      const std::shared_ptr<const AlgoView> cached = AlgoView::Of(g);
      const std::shared_ptr<const AlgoView> built = AlgoView::Build(g);
      ExpectSameView(*cached, *built);
    }
    CheckCounts(g, m);
    for (const NodeId u : touched) CheckNode(g, m, u);
    if (::testing::Test::HasFatalFailure()) return;

    // Once the arenas hold dead words, a copy must equal the graph and
    // carry none; so must a copy-assigned graph.
    if (!copied && g.arena_stats().dead_words > 0) {
      copied = true;
      const Graph copy = g;
      ASSERT_TRUE(copy.SameStructure(g));
      ASSERT_EQ(copy.arena_stats().dead_words, 0);
      CheckAll(copy, m);
      Graph assigned;
      assigned.AddEdge(-5, -6);
      assigned = g;
      ASSERT_TRUE(assigned.SameStructure(g));
      CheckAll(assigned, m);
    }
  }
  CheckAll(g, m);
  const ArenaStats st = g.arena_stats();
  EXPECT_TRUE(copied);
  EXPECT_GT(st.relocations, 0);
  EXPECT_GE(st.compactions, 1);
}

template <typename Graph>
void RunAtThreadCounts() {
  for (const int threads : {1, 4}) {
    ScopedNumThreads tc(threads);
    for (const uint64_t seed : {11u, 12u}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads);
      RunStream<Graph>(seed, 2000);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(GraphModelStress, DirectedMatchesSetModel) {
  RunAtThreadCounts<DirectedGraph>();
}

TEST(GraphModelStress, UndirectedMatchesSetModel) {
  RunAtThreadCounts<UndirectedGraph>();
}

}  // namespace
}  // namespace ringo
