// Algorithm-vs-oracle suite (DESIGN.md §10). Every graph algorithm that
// runs over the AlgoView CSR is checked against an independent reference
// in tests/test_support.h — dense power iteration, brute-force triangles,
// naive peeling, BFS components, all-pairs distances, shortest-path counts,
// the modularity formula — that reads only the graph's own adjacency,
// across a matrix of graph families: random, R-MAT, star, chain,
// disconnected, self-loops and isolated nodes, directed and undirected,
// plus planted core blocks for the peeling and component kernels.
// Discrete outputs compare exactly; floating-point outputs within
// 1e-9 · max(1, |oracle|), with both sides running a fixed iteration count
// (tol = 0). Label propagation, Louvain and ANF have no small oracle and
// keep invariants instead. Each algorithm also pins a hand-computed golden
// value on a small graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "algo/anf.h"
#include "algo/centrality.h"
#include "algo/community.h"
#include "algo/connectivity.h"
#include "algo/hits.h"
#include "algo/kcore.h"
#include "algo/louvain.h"
#include "algo/pagerank.h"
#include "algo/triangles.h"
#include "gen/graph_gen.h"
#include "test_support.h"

namespace ringo {
namespace {

constexpr double kRelTol = 1e-9;
constexpr double kTol = 1e-12;  // Goldens that are exact up to rounding.

// Largest |got - want| / max(1, |want|) any float comparison saw; printed
// once after the suite so the tolerance's headroom stays visible.
double g_max_deviation = 0.0;

class DeviationReport : public ::testing::Environment {
 public:
  void TearDown() override {
    std::printf("algo_oracle_test: largest float deviation %.3g\n",
                g_max_deviation);
  }
};
const ::testing::Environment* const kDeviationReport =
    ::testing::AddGlobalTestEnvironment(new DeviationReport);

void ExpectNearOracle(double got, double want, const char* what,
                      NodeId id = 0) {
  const double scale = std::max(1.0, std::abs(want));
  g_max_deviation = std::max(g_max_deviation, std::abs(got - want) / scale);
  EXPECT_NEAR(got, want, kRelTol * scale) << what << " node " << id;
}

void ExpectMatchesOracle(const NodeValues& got, const NodeValues& want,
                         const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << what << " slot " << i;
    ExpectNearOracle(got[i].second, want[i].second, what, want[i].first);
  }
}

double ValueOf(const NodeValues& vals, NodeId id) {
  for (const auto& [vid, v] : vals) {
    if (vid == id) return v;
  }
  ADD_FAILURE() << "node " << id << " missing";
  return 0;
}

int64_t IntOf(const NodeInts& vals, NodeId id) {
  for (const auto& [vid, v] : vals) {
    if (vid == id) return v;
  }
  ADD_FAILURE() << "node " << id << " missing";
  return 0;
}

UndirectedGraph WithoutSelfLoops(UndirectedGraph g) {
  for (const NodeId id : g.SortedNodeIds()) g.DelEdge(id, id);
  return g;
}

// -------------------------------------------------------------- PageRank

TEST(AlgoOracle, PageRank) {
  PageRankConfig config;
  config.max_iters = 40;
  config.tol = 0.0;
  for (const auto& fam : testing::DirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const int64_t n = fam.g.NumNodes();
    const NodeValues want = testing::DensePageRank(
        fam.g, std::vector<double>(n, 1.0 / static_cast<double>(n)),
        config.damping, config.max_iters);
    ExpectMatchesOracle(PageRank(fam.g, config).ValueOrDie(), want,
                        "PageRank");
    ExpectMatchesOracle(ParallelPageRank(fam.g, config).ValueOrDie(), want,
                        "ParallelPageRank");
    // Personalized: all teleport mass on the smallest id.
    std::vector<double> teleport(n, 0.0);
    teleport[0] = 1.0;
    ExpectMatchesOracle(
        PersonalizedPageRank(fam.g, {fam.g.SortedNodeIds().front()}, config)
            .ValueOrDie(),
        testing::DensePageRank(fam.g, teleport, config.damping,
                               config.max_iters),
        "PersonalizedPageRank");
  }
}

TEST(AlgoOracle, PageRankGoldenCycle) {
  // Directed 4-cycle: by symmetry every node has rank exactly 1/4.
  DirectedGraph g;
  for (NodeId i = 0; i < 4; ++i) g.AddNode(i);
  for (NodeId i = 0; i < 4; ++i) g.AddEdge(i, (i + 1) % 4);
  const NodeValues pr = PageRank(g, {}).ValueOrDie();
  ASSERT_EQ(pr.size(), 4u);
  for (const auto& [id, v] : pr) EXPECT_NEAR(v, 0.25, 1e-9) << id;
}

// Named regression: rank mass parked on dangling (out-degree-0) nodes is
// redistributed, so total rank stays exactly 1.
TEST(AlgoOracle, PageRankDanglingMassConserved) {
  DirectedGraph g = testing::RandomDirected(200, 500, 0xDA41);
  for (NodeId i = 900; i < 910; ++i) g.AddNode(i);  // Dangling sinks.
  for (NodeId i = 0; i < 10; ++i) g.AddEdge(i, 900 + i);
  PageRankConfig config;
  config.max_iters = 60;
  config.tol = 0.0;
  const NodeValues pr = PageRank(g, config).ValueOrDie();
  double sum = 0;
  for (const auto& [id, v] : pr) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// ------------------------------------------------------------------ HITS

TEST(AlgoOracle, Hits) {
  HitsConfig config;
  config.max_iters = 40;
  config.tol = 0.0;
  for (const auto& fam : testing::DirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const HitsScores got = Hits(fam.g, config).ValueOrDie();
    const auto [hubs, auths] = testing::DenseHits(fam.g, config.max_iters);
    ExpectMatchesOracle(got.hubs, hubs, "hubs");
    ExpectMatchesOracle(got.authorities, auths, "authorities");
  }
}

TEST(AlgoOracle, HitsGoldenStar) {
  // Hub 0 points at 4 leaves: hub(0) = 1, auth(leaf) = 1/2 under L2 norm.
  DirectedGraph g;
  for (NodeId i = 0; i <= 4; ++i) g.AddNode(i);
  for (NodeId i = 1; i <= 4; ++i) g.AddEdge(0, i);
  const HitsScores s = Hits(g, {}).ValueOrDie();
  EXPECT_NEAR(ValueOf(s.hubs, 0), 1.0, 1e-9);
  for (NodeId i = 1; i <= 4; ++i) {
    EXPECT_NEAR(ValueOf(s.authorities, i), 0.5, 1e-9) << i;
    EXPECT_NEAR(ValueOf(s.hubs, i), 0.0, 1e-9) << i;
  }
  EXPECT_NEAR(ValueOf(s.authorities, 0), 0.0, 1e-9);
}

// ------------------------------------------------------------- triangles

TEST(AlgoOracle, Triangles) {
  for (const auto& fam : testing::UndirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const int64_t total = testing::BruteTriangles(fam.g);
    EXPECT_EQ(TriangleCount(fam.g), total);
    EXPECT_EQ(ParallelTriangleCount(fam.g), total);
    EXPECT_EQ(NodeTriangles(fam.g), testing::BruteNodeTriangles(fam.g));
    const NodeValues local = testing::BruteLocalClustering(fam.g);
    ExpectMatchesOracle(LocalClusteringCoefficients(fam.g), local,
                        "LocalClustering");
    ExpectNearOracle(GlobalClusteringCoefficient(fam.g),
                     testing::BruteGlobalClustering(fam.g),
                     "GlobalClustering");
    double sum = 0.0;
    for (const auto& [id, c] : local) sum += c;
    ExpectNearOracle(AverageClusteringCoefficient(fam.g),
                     sum / static_cast<double>(local.size()),
                     "AverageClustering");
  }
}

// Named regression: self-loops are not wedges and close no triangles.
TEST(AlgoOracle, TrianglesGoldenSelfLoops) {
  UndirectedGraph k5 = gen::Complete(5);
  EXPECT_EQ(TriangleCount(k5), 10);
  for (NodeId i = 0; i < 5; ++i) k5.AddEdge(i, i);
  EXPECT_EQ(TriangleCount(k5), 10);
  EXPECT_EQ(ParallelTriangleCount(k5), 10);
  const NodeInts nt = NodeTriangles(k5);
  for (const auto& [id, t] : nt) EXPECT_EQ(t, 6) << id;  // C(4,2).
  // Self-loops are excluded from the degree, so K5's coefficient is 1.
  for (const auto& [id, c] : LocalClusteringCoefficients(k5)) {
    EXPECT_NEAR(c, 1.0, kTol) << id;
  }
  EXPECT_NEAR(GlobalClusteringCoefficient(k5), 1.0, kTol);
}

// ---------------------------------------------------------------- k-core

// The undirected matrix plus the planted core blocks.
std::vector<testing::GraphFamily<UndirectedGraph>> PeelingFamilies() {
  std::vector<testing::GraphFamily<UndirectedGraph>> fams =
      testing::UndirectedFamilies();
  fams.push_back(testing::PlantedBlocks());
  return fams;
}

TEST(AlgoOracle, KCore) {
  for (const auto& fam : PeelingFamilies()) {
    SCOPED_TRACE(fam.name);
    const NodeInts want = testing::NaiveCoreNumbers(fam.g);
    EXPECT_EQ(CoreNumbers(fam.g), want);
    int64_t degeneracy = 0;
    for (const auto& [id, c] : want) degeneracy = std::max(degeneracy, c);
    EXPECT_EQ(Degeneracy(fam.g), degeneracy);
    for (const int64_t k : {1, 2, 3}) {
      const UndirectedGraph got = KCoreSubgraph(fam.g, k);
      const UndirectedGraph ref = testing::NaiveKCore(fam.g, k);
      EXPECT_EQ(got.SortedNodeIds(), ref.SortedNodeIds()) << "k=" << k;
      EXPECT_EQ(testing::EdgeSet(got), testing::EdgeSet(ref)) << "k=" << k;
    }
  }
}

// Named regression: isolated nodes have core number 0 and a pendant keeps
// core 1 while the clique keeps 3.
TEST(AlgoOracle, KCoreGoldenPendantAndIsolated) {
  UndirectedGraph g = gen::Complete(4);  // Nodes 0..3.
  g.AddNode(4);
  g.AddEdge(3, 4);  // Pendant.
  g.AddNode(5);     // Isolated.
  const NodeInts cores = CoreNumbers(g);
  for (NodeId i = 0; i < 4; ++i) EXPECT_EQ(IntOf(cores, i), 3) << i;
  EXPECT_EQ(IntOf(cores, 4), 1);
  EXPECT_EQ(IntOf(cores, 5), 0);
  EXPECT_EQ(Degeneracy(g), 3);
  const UndirectedGraph three_core = KCoreSubgraph(g, 3);
  EXPECT_EQ(three_core.NumNodes(), 4);
  EXPECT_EQ(three_core.NumEdges(), 6);
}

// Named regression: the planted blocks' core numbers by hand. Levels 3-4
// and 6-7 hold no node, the pendant chain peels in one level-1 cascade,
// and the self-loop closing the second chain lifts it to core 2.
TEST(AlgoOracle, KCoreGoldenPlantedBlocks) {
  const UndirectedGraph g = testing::PlantedBlocks().g;
  const NodeInts cores = CoreNumbers(g);
  for (NodeId i = 0; i < 6; ++i) EXPECT_EQ(IntOf(cores, i), 5) << i;
  for (NodeId i = 10; i < 19; ++i) EXPECT_EQ(IntOf(cores, i), 8) << i;
  EXPECT_EQ(IntOf(cores, 40), 2);
  for (NodeId i = 100; i < 120; ++i) EXPECT_EQ(IntOf(cores, i), 1) << i;
  for (NodeId i = 200; i < 205; ++i) EXPECT_EQ(IntOf(cores, i), 2) << i;
  EXPECT_EQ(IntOf(cores, 300), 1);
  EXPECT_EQ(IntOf(cores, 400), 0);
  EXPECT_EQ(Degeneracy(g), 8);
  const UndirectedGraph five_core = KCoreSubgraph(g, 5);
  EXPECT_EQ(five_core.NumNodes(), 15);
  EXPECT_EQ(five_core.NumEdges(), 15 + 36);
  EXPECT_EQ(KCoreSubgraph(g, 6).SortedNodeIds(),
            KCoreSubgraph(g, 8).SortedNodeIds());
}

// ------------------------------------------------------------ components

TEST(AlgoOracle, Components) {
  for (const auto& fam : testing::DirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    EXPECT_EQ(WeaklyConnectedComponents(fam.g),
              testing::ReferenceComponents(fam.g));
  }
  for (const auto& fam : PeelingFamilies()) {
    SCOPED_TRACE(fam.name);
    EXPECT_EQ(ConnectedComponents(fam.g), testing::ReferenceComponents(fam.g));
  }
}

// Named regression: labels number components by their smallest id, so
// the self-loop-only node 300 and the isolated node 400 take labels 1
// and 2 behind the main block.
TEST(AlgoOracle, ComponentsGoldenPlantedBlocks) {
  const UndirectedGraph g = testing::PlantedBlocks().g;
  const ComponentLabels labels = ConnectedComponents(g);
  ASSERT_EQ(static_cast<int64_t>(labels.size()), g.NumNodes());
  for (const auto& [id, c] : labels) {
    EXPECT_EQ(c, id == 300 ? 1 : id == 400 ? 2 : 0) << id;
  }
}

// ------------------------------------------------------------ centrality

TEST(AlgoOracle, UndirectedCentrality) {
  for (const auto& fam : testing::UndirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const int64_t n = fam.g.NumNodes();
    const std::vector<NodeId> ids = fam.g.SortedNodeIds();
    const auto dist = testing::BruteAllPairs(fam.g);
    ExpectMatchesOracle(DegreeCentrality(fam.g),
                        testing::OracleDegreeCentrality(fam.g, false),
                        "Degree");
    const NodeValues closeness = testing::OracleCloseness(ids, dist);
    ExpectMatchesOracle(ClosenessCentrality(fam.g), closeness, "Closeness");
    ExpectMatchesOracle(ApproxClosenessCentrality(fam.g, n, 0x5EED),
                        closeness, "ApproxCloseness");
    ExpectMatchesOracle(HarmonicCentrality(fam.g),
                        testing::OracleHarmonic(ids, dist), "Harmonic");
    const NodeValues bc = testing::OracleBetweenness(fam.g, /*halve=*/true);
    ExpectMatchesOracle(BetweennessCentrality(fam.g), bc, "Betweenness");
    ExpectMatchesOracle(ApproxBetweennessCentrality(fam.g, n, 0x5EED), bc,
                        "ApproxBetweenness");
    ExpectMatchesOracle(EigenvectorCentrality(fam.g, 100, 0.0).ValueOrDie(),
                        testing::DenseEigenvector(fam.g, 100), "Eigenvector");
    EXPECT_EQ(Eccentricities(fam.g), testing::OracleEccentricity(ids, dist));
  }
}

TEST(AlgoOracle, DirectedCentrality) {
  for (const auto& fam : testing::DirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    ExpectMatchesOracle(InDegreeCentrality(fam.g),
                        testing::OracleDegreeCentrality(fam.g, true),
                        "InDegree");
    ExpectMatchesOracle(OutDegreeCentrality(fam.g),
                        testing::OracleDegreeCentrality(fam.g, false),
                        "OutDegree");
    ExpectMatchesOracle(ClosenessCentralityDirected(fam.g),
                        testing::OracleCloseness(fam.g.SortedNodeIds(),
                                                 testing::BruteAllPairs(fam.g)),
                        "ClosenessDirected");
    ExpectMatchesOracle(BetweennessCentralityDirected(fam.g),
                        testing::OracleBetweenness(fam.g, /*halve=*/false),
                        "BetweennessDirected");
  }
}

TEST(AlgoOracle, CentralityGoldenPath) {
  // Path 0-1-2-3-4: betweenness {0,3,4,3,0}; closeness(2) = 2/3.
  UndirectedGraph g;
  for (NodeId i = 0; i < 5; ++i) g.AddNode(i);
  for (NodeId i = 0; i + 1 < 5; ++i) g.AddEdge(i, i + 1);
  const double want_bc[] = {0, 3, 4, 3, 0};
  const NodeValues bc = BetweennessCentrality(g);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_NEAR(ValueOf(bc, i), want_bc[i], 1e-9) << i;
  }
  EXPECT_NEAR(ValueOf(ClosenessCentrality(g), 2), 2.0 / 3.0, 1e-9);
  const NodeInts ecc = Eccentricities(g);
  EXPECT_EQ(IntOf(ecc, 0), 4);
  EXPECT_EQ(IntOf(ecc, 2), 2);
}

// ------------------------------------------------------------- community

TEST(AlgoOracle, Community) {
  for (const auto& fam : testing::UndirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    // A self-loop never votes, so stripping self-loops changes nothing:
    // after one round, where a stray vote shows, and at convergence.
    const UndirectedGraph stripped = WithoutSelfLoops(fam.g);
    for (const int rounds : {1, 50}) {
      EXPECT_EQ(LabelPropagation(stripped, rounds, 0x1A8E1),
                LabelPropagation(fam.g, rounds, 0x1A8E1))
          << "rounds=" << rounds;
    }
    const NodeInts labels = LabelPropagation(fam.g, 50, 0x1A8E1);
    ExpectNearOracle(Modularity(fam.g, labels),
                     testing::OracleModularity(fam.g, labels), "Modularity");
  }
}

TEST(AlgoOracle, CommunityGoldenTwoTriangles) {
  UndirectedGraph g;
  for (NodeId i = 0; i < 6; ++i) g.AddNode(i);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(3, 5);
  const NodeInts labels = LabelPropagation(g);
  EXPECT_EQ(IntOf(labels, 0), IntOf(labels, 1));
  EXPECT_EQ(IntOf(labels, 1), IntOf(labels, 2));
  EXPECT_EQ(IntOf(labels, 3), IntOf(labels, 4));
  EXPECT_EQ(IntOf(labels, 4), IntOf(labels, 5));
  EXPECT_NE(IntOf(labels, 0), IntOf(labels, 3));
  // Perfect split of two disjoint triangles: Q = 1/2.
  EXPECT_NEAR(Modularity(g, labels), 0.5, 1e-9);
}

// Named regression: a self-loop counts 2 in both degree and internal sum
// (A_uu = 2), so a single node with a self-loop scores Q = 0, not 0.25.
TEST(AlgoOracle, ModularityGoldenSelfLoop) {
  UndirectedGraph g;
  g.AddNode(0);
  g.AddEdge(0, 0);
  EXPECT_NEAR(Modularity(g, {{0, 0}}), 0.0, kTol);
  // And a self-loop on a clique node must not change the perfect-split
  // optimum's ordering: Q(two K4 split) stays the maximum.
  UndirectedGraph two;
  for (NodeId i = 0; i < 8; ++i) two.AddNode(i);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = i + 1; j < 4; ++j) {
      two.AddEdge(i, j);
      two.AddEdge(i + 4, j + 4);
    }
  }
  NodeInts split;
  for (NodeId i = 0; i < 8; ++i) split.push_back({i, i < 4 ? 0 : 1});
  EXPECT_NEAR(Modularity(two, split), 0.5, 1e-9);
}

// --------------------------------------------------------------- Louvain

TEST(AlgoOracle, Louvain) {
  LouvainConfig config;
  config.seed = 0xBADA55;
  for (const auto& fam : testing::UndirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const LouvainResult r = Louvain(fam.g, config).ValueOrDie();
    ASSERT_EQ(r.communities.size(), static_cast<size_t>(fam.g.NumNodes()));
    ExpectNearOracle(r.modularity,
                     testing::OracleModularity(fam.g, r.communities),
                     "Louvain modularity");
  }
}

TEST(AlgoOracle, LouvainGoldenTwoCliques) {
  UndirectedGraph g;
  for (NodeId i = 0; i < 8; ++i) g.AddNode(i);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = i + 1; j < 4; ++j) {
      g.AddEdge(i, j);
      g.AddEdge(i + 4, j + 4);
    }
  }
  const LouvainResult r = Louvain(g, {}).ValueOrDie();
  EXPECT_NEAR(r.modularity, 0.5, 1e-9);
  EXPECT_EQ(IntOf(r.communities, 0), IntOf(r.communities, 3));
  EXPECT_EQ(IntOf(r.communities, 4), IntOf(r.communities, 7));
  EXPECT_NE(IntOf(r.communities, 0), IntOf(r.communities, 4));
}

// ------------------------------------------------------------------- ANF

TEST(AlgoOracle, Anf) {
  for (const auto& fam : testing::UndirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const AnfResult a =
        ApproxNeighborhoodFunction(fam.g, 4, 32, 0xA11F).ValueOrDie();
    // OR-ing a node's own sketch is idempotent, so stripping self-loops
    // changes nothing.
    const AnfResult b =
        ApproxNeighborhoodFunction(WithoutSelfLoops(fam.g), 4, 32, 0xA11F)
            .ValueOrDie();
    EXPECT_EQ(a.neighborhood, b.neighborhood);
    EXPECT_EQ(a.effective_diameter, b.effective_diameter);
  }
}

// Named regression ("ANF seed stability"): a fixed seed gives a single,
// reproducible estimate — run twice, get bit-identical results — and on a
// complete graph the neighborhood plateaus at h = 1 (effective diameter in
// (0, 1]) with a monotone curve.
TEST(AlgoOracle, AnfGoldenCompleteGraphSeedStable) {
  const UndirectedGraph k8 = gen::Complete(8);
  const AnfResult once =
      ApproxNeighborhoodFunction(k8, 3, 64, 0x5EED).ValueOrDie();
  const AnfResult twice =
      ApproxNeighborhoodFunction(k8, 3, 64, 0x5EED).ValueOrDie();
  ASSERT_EQ(once.neighborhood, twice.neighborhood);
  ASSERT_EQ(once.effective_diameter, twice.effective_diameter);
  for (size_t h = 1; h < once.neighborhood.size(); ++h) {
    EXPECT_GE(once.neighborhood[h], once.neighborhood[h - 1]) << h;
  }
  // Diameter 1: every pair is reached at the first hop.
  EXPECT_EQ(once.neighborhood[1], once.neighborhood[2]);
  EXPECT_GT(once.effective_diameter, 0.0);
  EXPECT_LE(once.effective_diameter, 1.0);
}

}  // namespace
}  // namespace ringo
