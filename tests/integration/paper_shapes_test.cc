// Integration tests for the *shape* claims of the paper's evaluation
// (DESIGN.md §4): not absolute numbers — which depend on hardware — but
// the orderings and large ratios that make the paper's argument. Each
// measurement takes the median of several runs and asserts with a margin
// far below the observed ratio, so the suite is robust to machine noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algo/algo_view.h"
#include "algo/connectivity.h"
#include "algo/kcore.h"
#include "algo/pagerank.h"
#include "algo/sssp.h"
#include "algo/transform.h"
#include "algo/triangles.h"
#include "core/conversion.h"
#include "gen/graph_gen.h"
#include "table/table.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ringo {
namespace {

template <typename Fn>
double MedianSeconds(int reps, const Fn& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    times.push_back(t.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

class PaperShapesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto edges = gen::RMatEdges(14, 200000, 7).ValueOrDie();
    TablePtr t = Table::Create(
        Schema{{"src", ColumnType::kInt}, {"dst", ColumnType::kInt}});
    t->ReserveRows(static_cast<int64_t>(edges.size()));
    for (const auto& [u, v] : edges) {
      t->mutable_column(0).AppendInt(u);
      t->mutable_column(1).AppendInt(v);
    }
    RINGO_CHECK_OK(t->SealAppendedRows(static_cast<int64_t>(edges.size())));
    table_ = t;
    graph_ = std::make_shared<DirectedGraph>(
        TableToGraph(*t, "src", "dst").ValueOrDie());
    undirected_ = std::make_shared<UndirectedGraph>(ToUndirected(*graph_));
  }

  static TablePtr table_;
  static std::shared_ptr<DirectedGraph> graph_;
  static std::shared_ptr<UndirectedGraph> undirected_;
};

TablePtr PaperShapesTest::table_;
std::shared_ptr<DirectedGraph> PaperShapesTest::graph_;
std::shared_ptr<UndirectedGraph> PaperShapesTest::undirected_;

// Table 3 shape: triangle counting costs more than 10 PageRank iterations
// on the same graph (paper: 2.2x on LiveJournal, 4.4x on Twitter2010).
TEST_F(PaperShapesTest, TrianglesCostMoreThanTenPageRankIterations) {
  PageRankConfig cfg;
  cfg.max_iters = 10;
  cfg.tol = 0;
  const double pr = MedianSeconds(3, [&] {
    (void)ParallelPageRank(*graph_, cfg).ValueOrDie();
  });
  const double tri =
      MedianSeconds(3, [&] { (void)ParallelTriangleCount(*undirected_); });
  EXPECT_GT(tri, 1.5 * pr) << "pagerank " << pr << "s, triangles " << tri
                           << "s";
}

// Table 4 shape: selects run much faster than joins over the same input
// (paper rates: 405-935M rows/s select vs 45-350M rows/s join).
TEST_F(PaperShapesTest, SelectFasterThanJoin) {
  // Key table covering half the node id space.
  TablePtr keys = Table::Create(Schema{{"k", ColumnType::kInt}});
  for (int64_t i = 0; i < (1 << 13); ++i) {
    RINGO_CHECK_OK(keys->AppendRow({i * 2}));
  }
  const double select_s = MedianSeconds(3, [&] {
    (void)table_->Select("src", CmpOp::kLt, int64_t{1 << 13}).ValueOrDie();
  });
  const double join_s = MedianSeconds(3, [&] {
    (void)Table::Join(*table_, *keys, "src", "k").ValueOrDie();
  });
  EXPECT_GT(join_s, 2.0 * select_s)
      << "select " << select_s << "s, join " << join_s << "s";
}

// Table 5 shape: graph→table is several times faster than table→graph
// (paper: ~3x; single-threaded the gap is larger).
TEST_F(PaperShapesTest, GraphToTableFasterThanTableToGraph) {
  const double to_graph = MedianSeconds(3, [&] {
    (void)TableToGraph(*table_, "src", "dst").ValueOrDie();
  });
  const double to_table = MedianSeconds(3, [&] {
    (void)GraphToEdgeTable(*graph_, table_->pool());
  });
  EXPECT_GT(to_graph, 2.0 * to_table)
      << "to_graph " << to_graph << "s, to_table " << to_table << "s";
}

// Table 6 shape: sequential SSSP < SCC < 3-core (paper: 7.4 < 18 < 31s).
TEST_F(PaperShapesTest, SequentialAlgorithmOrdering) {
  const NodeId src = graph_->SortedNodeIds().front();
  const double sssp =
      MedianSeconds(5, [&] { (void)SsspUnweighted(*graph_, src); });
  const double scc = MedianSeconds(3, [&] {
    (void)StronglyConnectedComponents(*graph_);
  });
  const double core3 =
      MedianSeconds(3, [&] { (void)KCoreSubgraph(*undirected_, 3); });
  EXPECT_LT(sssp, scc) << "sssp " << sssp << "s, scc " << scc << "s";
  EXPECT_LT(scc, core3) << "scc " << scc << "s, 3-core " << core3 << "s";
}

// §2.2 ablation shape: a single edge delete is orders of magnitude cheaper
// on the dynamic representation than on CSR (paper's central argument for
// the hash-of-nodes design; measured ratio ~100-300x, asserted at 5x).
TEST_F(PaperShapesTest, DynamicDeleteBeatsCsrDelete) {
  std::vector<Edge> edges;
  graph_->ForEachEdge([&](NodeId u, NodeId v) { edges.emplace_back(u, v); });
  Rng rng(3);
  const Edge victim =
      edges[rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1)];

  DirectedGraph dynamic = *graph_;
  const double dyn = MedianSeconds(5, [&] {
    dynamic.DelEdge(victim.first, victim.second);
    dynamic.AddEdge(victim.first, victim.second);
  });
  // The CSR (AlgoView) is immutable: deleting an edge from it means one
  // build of the graph without that edge.
  DirectedGraph without = *graph_;
  without.DelEdge(victim.first, victim.second);
  Timer t;
  const std::shared_ptr<const AlgoView> csr = AlgoView::Build(without);
  const double csr_s = t.ElapsedSeconds();
  EXPECT_GT(csr_s, 5.0 * (dyn / 2.0))
      << "dynamic del+add " << dyn << "s, csr del " << csr_s << "s";
}

// §2.4 shape: the sort-first conversion's throughput holds roughly flat
// with input size (paper: 13→18M edges/s going from 69M to 1.5B rows).
TEST_F(PaperShapesTest, ConversionRateFlatAcrossSizes) {
  auto build_rate = [&](int64_t m) {
    const auto edges = gen::RMatEdges(14, m, 11).ValueOrDie();
    TablePtr t = Table::Create(
        Schema{{"src", ColumnType::kInt}, {"dst", ColumnType::kInt}});
    for (const auto& [u, v] : edges) {
      t->mutable_column(0).AppendInt(u);
      t->mutable_column(1).AppendInt(v);
    }
    RINGO_CHECK_OK(t->SealAppendedRows(m));
    const double s = MedianSeconds(3, [&] {
      (void)TableToGraph(*t, "src", "dst").ValueOrDie();
    });
    return static_cast<double>(m) / s;
  };
  const double small_rate = build_rate(50000);
  const double large_rate = build_rate(400000);
  // "Scales well": the rate must not collapse with an 8x size increase.
  EXPECT_GT(large_rate, 0.4 * small_rate)
      << "small " << small_rate << " edges/s, large " << large_rate;
}

}  // namespace
}  // namespace ringo
