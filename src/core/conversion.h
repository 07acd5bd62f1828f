// Table ↔ graph conversions (§2.4) — the heart of Ringo's integration of
// relational and graph processing.
//
// Table → graph runs the paper's "sort-first" algorithm partition-first
// (DESIGN.md §7):
//   1. extract: read the source and destination columns in place (no
//      copy) and scatter every row's arcs once into partitions by the top
//      bits of the head's id offset: the forward arcs u→v (out-adjacency)
//      and the reversed arcs v→u (in-adjacency), or for the undirected
//      build both orientations in one array. An arc is one packed 64-bit
//      key when the id span fits in 32 bits per endpoint, a 128-bit
//      (u, v) pair otherwise;
//   2. sort: each worker sorts one partition at a time while it sits in
//      cache, drops repeated arcs, notes every head's run and writes the
//      distinct tails in place; finished partitions move down back to
//      back, so each arc array becomes its direction's arena;
//   3. count: prefix sums over the partitions give the ascending node
//      list and every node's run bounds — the node table and the arenas
//      are sized exactly, with no dynamic growth on the hot path;
//   4. fill: the graph takes the arenas as they are, every run at exact
//      capacity, and only inserts its node table
//      (graph/adjacency_core.h, DESIGN.md §18).
//
// Graph → table pre-allocates the output and assigns each thread a disjoint
// slice of nodes and output rows; a node's rows are one fill of its id and
// one copy of its out-run.
//
// Node ids come from int columns directly; string columns are allowed and
// use their interned pool ids as node ids (GraphToTable can resolve them
// back). Float columns are rejected.
#ifndef RINGO_CORE_CONVERSION_H_
#define RINGO_CORE_CONVERSION_H_

#include <string>

#include "graph/directed_graph.h"
#include "graph/edge_weights.h"
#include "graph/undirected_graph.h"
#include "table/table.h"
#include "util/result.h"

namespace ringo {

// Sort-first conversion (parallel, partition-first). Duplicate (src, dst)
// rows collapse to one edge.
Result<DirectedGraph> TableToGraph(const Table& t, std::string_view src_col,
                                   std::string_view dst_col);

// Sort-first conversion restricted to the given ascending physical row
// subset (from Table::MatchingRows): the extract phase reads only the
// kept rows, so a Select feeding a graph build never materializes the
// filtered table. Produces exactly TableToGraph(select(t), ...).
Result<DirectedGraph> TableToGraphFiltered(const Table& t,
                                           std::string_view src_col,
                                           std::string_view dst_col,
                                           const std::vector<int64_t>& keep);

// Same pipeline, undirected result ({u, v} stored on both endpoints).
Result<UndirectedGraph> TableToUndirectedGraph(const Table& t,
                                               std::string_view src_col,
                                               std::string_view dst_col);

// Baseline for bench_ablation_conversion: row-at-a-time AddEdge insertion
// (what a naive implementation — or CSR with incremental updates — would
// pay). Produces an identical graph.
Result<DirectedGraph> TableToGraphNaive(const Table& t,
                                        std::string_view src_col,
                                        std::string_view dst_col);

// A graph bundled with per-edge weights (for Dijkstra, MST,
// WeightedPageRank, cascade probabilities, ...).
struct WeightedGraphResult {
  DirectedGraph graph;
  EdgeWeights weights;
};

// Sort-first conversion that additionally aggregates a numeric weight
// column: duplicate (src, dst) rows sum their weights into one edge.
Result<WeightedGraphResult> TableToWeightedGraph(const Table& t,
                                                 std::string_view src_col,
                                                 std::string_view dst_col,
                                                 std::string_view weight_col);

// Graph → edge table with int columns (src_name, dst_name); partitioned
// parallel write. Edges are emitted grouped by source node (ascending), and
// by destination within a source.
TablePtr GraphToEdgeTable(const DirectedGraph& g,
                          std::shared_ptr<StringPool> pool,
                          const std::string& src_name = "SrcId",
                          const std::string& dst_name = "DstId");

// Graph → node table: NodeId, InDeg, OutDeg (ascending by id).
TablePtr GraphToNodeTable(const DirectedGraph& g,
                          std::shared_ptr<StringPool> pool,
                          const std::string& id_name = "NodeId");

}  // namespace ringo

#endif  // RINGO_CORE_CONVERSION_H_
