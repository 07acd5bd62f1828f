// Ringo engine: the C++ equivalent of the paper's Python front-end module.
// One Ringo instance owns a StringPool shared by every table it creates, so
// string columns join and compare by interned id across the whole session.
//
// The method set mirrors the paper's demo (§4.1):
//
//   Ringo ringo;
//   auto posts = ringo.LoadTableTSV(schema, "posts.tsv");
//   auto jp    = ringo.Select(posts, "Tag = Java");
//   auto q     = ringo.Select(jp, "Type = question");
//   auto a     = ringo.Select(jp, "Type = answer");
//   auto qa    = ringo.Join(q, a, "AcceptedAnswerId", "PostId");
//   auto g     = ringo.ToGraph(qa, "UserId-1", "UserId-2");
//   auto pr    = ringo.GetPageRank(g);
//   auto s     = ringo.TableFromMap(pr, "User", "Scr");
#ifndef RINGO_CORE_ENGINE_H_
#define RINGO_CORE_ENGINE_H_

#include <memory>
#include <string>

#include "algo/algo_defs.h"
#include "algo/hits.h"
#include "algo/stats.h"
#include "core/conversion.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"
#include "table/table.h"
#include "table/table_io.h"
#include "util/result.h"
#include "util/trace.h"

namespace ringo {

class Ringo {
 public:
  Ringo();

  const std::shared_ptr<StringPool>& pool() const { return pool_; }

  // ------------------------------------------------------------- tables
  TablePtr NewTable(Schema schema) const;
  Result<TablePtr> LoadTableTSV(const Schema& schema, const std::string& path,
                                bool has_header = false) const;
  Status SaveTableTSV(const Table& t, const std::string& path,
                      bool write_header = false) const;

  // Runs a whole declarative query script (parse → plan → fused execution;
  // language in src/query/ast.h) against this engine's string pool and
  // returns the final statement's table. Defined in the query library
  // (src/query/run_query.cc): callers must link ringo_query or the
  // umbrella `ringo` target.
  //
  //   auto top = ringo.RunQuery(R"(
  //     posts = load("posts.tsv", "UserId:int,Tag:string,Score:int", true)
  //     java  = select(posts, "Tag = java")
  //     g     = graph(java, "UserId", "Score")
  //     top_k(pagerank(g, 10), "Score", 25)
  //   )");
  Result<TablePtr> RunQuery(std::string_view script) const;

  // Select with a textual predicate; ops: = != < <= > >=. The literal
  // parses as int, then float, then string (quotes optional). Leaf
  // comparisons compose with `and` / `or` (`and` binds tighter):
  //   ringo.Select(posts, "Tag = Java and Score >= 10 or Tag = C++")
  Result<TablePtr> Select(const TablePtr& t, std::string_view expr) const;
  // In-place variant (the paper's select benchmark operates in place).
  Status SelectInPlace(const TablePtr& t, std::string_view expr) const;

  Result<TablePtr> Join(const TablePtr& left, const TablePtr& right,
                        std::string_view left_col,
                        std::string_view right_col) const;

  // ------------------------------------------------------------- graphs
  Result<DirectedGraph> ToGraph(const TablePtr& t, std::string_view src_col,
                                std::string_view dst_col) const;
  Result<UndirectedGraph> ToUndirectedGraph(const TablePtr& t,
                                            std::string_view src_col,
                                            std::string_view dst_col) const;
  Result<WeightedGraphResult> ToWeightedGraph(
      const TablePtr& t, std::string_view src_col, std::string_view dst_col,
      std::string_view weight_col) const;
  TablePtr ToEdgeTable(const DirectedGraph& g,
                       const std::string& src_name = "SrcId",
                       const std::string& dst_name = "DstId") const;
  TablePtr ToNodeTable(const DirectedGraph& g,
                       const std::string& id_name = "NodeId") const;

  // ---------------------------------------------------------- analytics
  // PageRank with default parameters (parallel implementation).
  Result<NodeValues> GetPageRank(const DirectedGraph& g) const;

  // HITS hub/authority scores with default parameters.
  Result<HitsScores> GetHits(const DirectedGraph& g) const;

  // Structural summary rendered as a (Stat:string, Value:float) table —
  // handy for the interactive exploration loop.
  TablePtr SummaryTable(const DirectedGraph& g) const;

  // (id, value) pairs → two-column table.
  TablePtr TableFromMap(const NodeValues& values, const std::string& id_name,
                        const std::string& value_name) const;
  TablePtr TableFromMap(const NodeInts& values, const std::string& id_name,
                        const std::string& value_name) const;

  // ------------------------------------------------------ observability
  // Wall time, resident-memory delta, minor page faults, and the recorded
  // attributes (rows, edges, radix passes, ...) of the most recent engine
  // entry point, from the trace layer's last completed root span. `valid`
  // is false when tracing is disabled (RINGO_METRICS=off) or nothing ran
  // yet.
  trace::QueryStats LastQueryStats() const;

  // Flat per-span aggregate (Span, Count, TotalMs, MaxMs, MinFlt: minor
  // page faults summed over the spans) of everything traced so far in this
  // process, as a table for the interactive loop. Rows for the block
  // pool's counters and gauges (mem/pool_hit, mem/pool_map,
  // mem/pool_unmap, mem/pool_live_bytes, mem/pool_idle_bytes) follow, each
  // value in Count.
  TablePtr StatsTable() const;

 private:
  std::shared_ptr<StringPool> pool_;
};

// Parses "col <op> literal" into its pieces (ParsedPredicate lives in
// table/table.h); shared with tests.
Result<ParsedPredicate> ParsePredicate(std::string_view expr);

// Parses a compound predicate: leaf comparisons joined by `and` / `or`
// (case-insensitive, whitespace-delimited keywords; occurrences inside
// quoted literals are left alone). `and` binds tighter than `or`, so
// "a = 1 and b > 2 or c = 3" is (a=1 ∧ b>2) ∨ (c=3); there are no
// parentheses. A single comparison yields a one-leaf expression.
Result<PredicateExpr> ParsePredicateExpr(std::string_view expr);

}  // namespace ringo

#endif  // RINGO_CORE_ENGINE_H_
