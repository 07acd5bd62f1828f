// Table ↔ graph conversions (§2.4) — the heart of Ringo's integration of
// relational and graph processing.
//
// Table → graph uses the paper's "sort-first" algorithm:
//   1. copy the source and destination columns;
//   2. turn every row into arc records and parallel-sort them: the forward
//      arcs u→v (out-adjacency order) and the reversed arcs v→u
//      (in-adjacency order), or for the undirected build both orientations
//      in one array. An arc is one packed uint64 key when the id span fits
//      in 32 bits per endpoint, a 128-bit (u, v) pair otherwise;
//   3. walk the sorted arcs once for the ascending node list and every
//      node's runs — so the node hash table and all adjacency vectors are
//      sized exactly, with no dynamic growth on the hot path;
//   4. fill each node's sorted adjacency vectors from its runs in parallel
//      — threads own disjoint nodes, so concurrent access is contention-
//      and lock-free.
//
// Graph → table pre-allocates the output and assigns each thread a disjoint
// slice of nodes and output rows.
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

// Sort-first conversion (parallel). Duplicate (src, dst) rows collapse to
// one edge.
Result<DirectedGraph> TableToGraph(const Table& t, std::string_view src_col,
                                   std::string_view dst_col);

// Sort-first conversion restricted to the given ascending physical row
// subset (from Table::MatchingRows): the extract phase gathers only the
// kept rows, so a Select feeding a graph build never materializes the
// filtered table. Produces exactly TableToGraph(select(t), ...) — the kept
// (src, dst) pairs enter the sort in the same relative order a gathered
// table would give them.
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
