#include "query/executor.h"

#include <tuple>
#include <utility>
#include <vector>

#include "algo/pagerank.h"
#include "core/conversion.h"
#include "table/join_build.h"
#include "table/table_io.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ringo {
namespace query {

namespace {

Status ExecError(const PlanNode& n, const Status& st) {
  return Status(st.code(), "line " + std::to_string(n.pos.line) + ", col " +
                               std::to_string(n.pos.col) + " (" +
                               OpKindName(n.op) + "): " + st.message());
}

// Trace-span names per op (span names must be string literals).
const char* SpanName(OpKind op) {
  switch (op) {
    case OpKind::kBind: return "Query/exec/bind";
    case OpKind::kLoad: return "Query/exec/load";
    case OpKind::kSelect: return "Query/exec/select";
    case OpKind::kProject: return "Query/exec/project";
    case OpKind::kJoin: return "Query/exec/join";
    case OpKind::kOrderBy: return "Query/exec/order_by";
    case OpKind::kGroupBy: return "Query/exec/group_by";
    case OpKind::kTopK: return "Query/exec/top_k";
    case OpKind::kUnique: return "Query/exec/unique";
    case OpKind::kGraph: return "Query/exec/graph";
    case OpKind::kFilteredGraph: return "Query/exec/filtered_graph";
    case OpKind::kPageRank: return "Query/exec/pagerank";
    case OpKind::kNodes: return "Query/exec/nodes";
    case OpKind::kEdges: return "Query/exec/edges";
  }
  return "Query/exec/op";
}

// (NodeId, Score) table from PageRank output, matching the planner's
// inferred schema.
TablePtr ScoresToTable(const NodeValues& values,
                       std::shared_ptr<StringPool> pool) {
  Schema schema{{"NodeId", ColumnType::kInt}, {"Score", ColumnType::kFloat}};
  TablePtr out = Table::Create(std::move(schema), std::move(pool));
  const int64_t n = static_cast<int64_t>(values.size());
  Column& c_id = out->mutable_column(0);
  Column& c_val = out->mutable_column(1);
  c_id.ResizeForOverwrite(n);
  c_val.ResizeForOverwrite(n);
  for (int64_t i = 0; i < n; ++i) {
    c_id.SetInt(i, values[i].first);
    c_val.SetFloat(i, values[i].second);
  }
  out->SealAppendedRows(n).Abort("Query/pagerank");
  return out;
}

class Executor {
 public:
  Executor(const Plan& plan, const ExecOptions& opts)
      : plan_(plan), opts_(opts) {}

  Result<QueryValue> Run() {
    // Nodes the root needs; fusion can orphan a select node, and orphans
    // are exactly the work fusion eliminated — they must not run.
    std::vector<uint8_t> needed(plan_.nodes.size(), 0);
    MarkNeeded(plan_.root, &needed);

    pool_ = opts_.pool;
    if (pool_ == nullptr) {
      for (const auto& [name, t] : opts_.bindings) {
        if (t != nullptr) {
          pool_ = t->pool();
          break;
        }
      }
      if (pool_ == nullptr) pool_ = std::make_shared<StringPool>();
    }

    values_.resize(plan_.nodes.size());
    for (size_t i = 0; i < plan_.nodes.size(); ++i) {
      if (!needed[i]) continue;
      // Deadline/cancel checkpoint between plan nodes: a scripted query
      // under the serving engine stops at the next node boundary.
      if (cancel::Checkpoint()) {
        return Status::DeadlineExceeded(
            "query canceled between plan nodes");
      }
      const PlanNode& n = plan_.nodes[i];
      trace::Span span(SpanName(n.op));
      RINGO_COUNTER_ADD("query/exec_nodes", 1);
      Status st = Exec(n, &values_[i]);
      if (!st.ok()) return ExecError(n, st);
      if (values_[i].table != nullptr) {
        span.AddAttr("rows", values_[i].table->NumRows());
      } else if (values_[i].graph != nullptr) {
        span.AddAttr("nodes", values_[i].graph->NumNodes());
        span.AddAttr("edges", values_[i].graph->NumEdges());
      }
    }
    return std::move(values_[plan_.root]);
  }

 private:
  void MarkNeeded(int id, std::vector<uint8_t>* needed) const {
    if (id < 0 || (*needed)[id]) return;
    (*needed)[id] = 1;
    for (int in : plan_.nodes[id].inputs) MarkNeeded(in, needed);
  }

  const TablePtr& TableIn(const PlanNode& n, int i = 0) const {
    return values_[n.inputs[i]].table;
  }
  const std::shared_ptr<const DirectedGraph>& GraphIn(const PlanNode& n,
                                                      int i = 0) const {
    return values_[n.inputs[i]].graph;
  }

  Status Exec(const PlanNode& n, QueryValue* out) {
    switch (n.op) {
      case OpKind::kBind: {
        const auto it = opts_.bindings.find(n.name);
        if (it == opts_.bindings.end() || it->second == nullptr) {
          return Status::NotFound("no table bound to '" + n.name + "'");
        }
        out->table = it->second;
        return Status::OK();
      }
      case OpKind::kLoad: {
        if (opts_.load == LoadPolicy::kRefuse) {
          return Status::PermissionDenied("load('" + n.name +
                                          "') refused: this caller does "
                                          "not let scripts read files");
        }
        // Extension dispatch: ".rtb" maps the binary format (checksummed,
        // zero-copy for encoded columns) and checks the declared schema;
        // everything else parses as TSV.
        RINGO_ASSIGN_OR_RETURN(
            out->table, LoadTableAuto(n.load_schema, n.name, pool_, n.header));
        return Status::OK();
      }
      case OpKind::kSelect: {
        RINGO_ASSIGN_OR_RETURN(out->table, TableIn(n)->Select(n.pred));
        return Status::OK();
      }
      case OpKind::kProject: {
        RINGO_ASSIGN_OR_RETURN(out->table, TableIn(n)->Project(n.cols));
        return Status::OK();
      }
      case OpKind::kJoin: {
        const TablePtr& left = TableIn(n, 0);
        const TablePtr& right = TableIn(n, 1);
        // Build-side reuse: probes against one (right node, key column,
        // key pool) share a single JoinBuild.
        const auto key = std::make_tuple(n.inputs[1], n.dst_col,
                                         static_cast<const void*>(
                                             left->pool().get()));
        auto it = join_builds_.find(key);
        if (it == join_builds_.end()) {
          RINGO_ASSIGN_OR_RETURN(
              JoinBuildPtr build,
              Table::BuildJoin(right, {n.dst_col}, left->pool()));
          it = join_builds_.emplace(key, std::move(build)).first;
        } else {
          RINGO_COUNTER_ADD("query/join_build_reuse", 1);
        }
        RINGO_ASSIGN_OR_RETURN(
            out->table,
            Table::JoinWithBuild(*left, {n.src_col}, *it->second));
        return Status::OK();
      }
      case OpKind::kOrderBy: {
        RINGO_ASSIGN_OR_RETURN(out->table,
                               TableIn(n)->OrderBy(n.cols, n.ascending));
        return Status::OK();
      }
      case OpKind::kGroupBy: {
        RINGO_ASSIGN_OR_RETURN(
            out->table, TableIn(n)->GroupByAggregate(n.cols, n.aggs));
        return Status::OK();
      }
      case OpKind::kTopK: {
        RINGO_ASSIGN_OR_RETURN(out->table, TableIn(n)->TopK(n.src_col, n.k));
        return Status::OK();
      }
      case OpKind::kUnique: {
        RINGO_ASSIGN_OR_RETURN(out->table, TableIn(n)->Unique(n.cols));
        return Status::OK();
      }
      case OpKind::kGraph: {
        RINGO_ASSIGN_OR_RETURN(
            DirectedGraph g,
            TableToGraph(*TableIn(n), n.src_col, n.dst_col));
        out->graph = std::make_shared<DirectedGraph>(std::move(g));
        return Status::OK();
      }
      case OpKind::kFilteredGraph: {
        // The fused Select→ToGraph path: evaluate the predicate to a row
        // set and extract only those rows — no filtered table exists.
        const TablePtr& t = TableIn(n);
        RINGO_ASSIGN_OR_RETURN(const std::vector<int64_t> keep,
                               t->MatchingRows(n.pred));
        RINGO_ASSIGN_OR_RETURN(
            DirectedGraph g,
            TableToGraphFiltered(*t, n.src_col, n.dst_col, keep));
        out->graph = std::make_shared<DirectedGraph>(std::move(g));
        return Status::OK();
      }
      case OpKind::kPageRank: {
        PageRankConfig cfg;
        cfg.max_iters = n.iters;
        cfg.tol = 0;  // Fixed round count: deterministic across runs.
        RINGO_ASSIGN_OR_RETURN(NodeValues scores,
                               ParallelPageRank(*GraphIn(n), cfg));
        out->table = ScoresToTable(scores, pool_);
        return Status::OK();
      }
      case OpKind::kNodes: {
        out->table = GraphToNodeTable(*GraphIn(n), pool_);
        return Status::OK();
      }
      case OpKind::kEdges: {
        out->table = GraphToEdgeTable(*GraphIn(n), pool_);
        return Status::OK();
      }
    }
    return Status::Internal("unhandled plan op");
  }

  const Plan& plan_;
  const ExecOptions& opts_;
  std::shared_ptr<StringPool> pool_;
  std::vector<QueryValue> values_;
  std::map<std::tuple<int, std::string, const void*>, JoinBuildPtr>
      join_builds_;
};

}  // namespace

Result<QueryValue> ExecutePlan(const Plan& plan, const ExecOptions& opts) {
  if (plan.root < 0 || plan.nodes.empty()) {
    return Status::InvalidArgument("empty plan");
  }
  trace::Span span("Query/exec");
  span.AddAttr("plan_nodes", static_cast<int64_t>(plan.nodes.size()));
  return Executor(plan, opts).Run();
}

}  // namespace query
}  // namespace ringo
