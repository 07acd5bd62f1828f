#include "core/engine.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "algo/pagerank.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace ringo {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

Result<ParsedPredicate> ParsePredicate(std::string_view expr) {
  // Two-char operators first so "<=" is not read as "<".
  static constexpr std::pair<const char*, CmpOp> kOps[] = {
      {"<=", CmpOp::kLe}, {">=", CmpOp::kGe}, {"!=", CmpOp::kNe},
      {"==", CmpOp::kEq}, {"<", CmpOp::kLt},  {">", CmpOp::kGt},
      {"=", CmpOp::kEq},
  };
  for (const auto& [tok, op] : kOps) {
    const size_t pos = expr.find(tok);
    if (pos == std::string_view::npos) continue;
    const std::string_view col = Trim(expr.substr(0, pos));
    std::string_view lit = Trim(expr.substr(pos + std::strlen(tok)));
    if (col.empty() || lit.empty()) {
      return Status::InvalidArgument("cannot parse predicate: '" +
                                     std::string(expr) + "'");
    }
    // Column names are single tokens; internal whitespace means a stray
    // connective or typo landed here ("or a = 1").
    if (col.find_first_of(" \t") != std::string_view::npos) {
      return Status::InvalidArgument("malformed column name '" +
                                     std::string(col) + "' in predicate: '" +
                                     std::string(expr) + "'");
    }
    ParsedPredicate out;
    out.column = std::string(col);
    out.op = op;
    // Literal: int, then float, then (optionally quoted) string.
    if (auto as_int = ParseInt64(lit); as_int.ok()) {
      out.value = as_int.value();
    } else if (auto as_float = ParseDouble(lit); as_float.ok()) {
      out.value = as_float.value();
    } else {
      if (lit.size() >= 2 &&
          ((lit.front() == '\'' && lit.back() == '\'') ||
           (lit.front() == '"' && lit.back() == '"'))) {
        lit = lit.substr(1, lit.size() - 2);
      }
      out.value = std::string(lit);
    }
    return out;
  }
  return Status::InvalidArgument("no comparison operator in predicate: '" +
                                 std::string(expr) + "'");
}

Result<PredicateExpr> ParsePredicateExpr(std::string_view expr) {
  PredicateExpr out;
  out.disjuncts.emplace_back();
  size_t leaf_start = 0;
  char quote = 0;

  auto close_leaf = [&](size_t end, bool start_disjunct) -> Status {
    const std::string_view leaf =
        Trim(expr.substr(leaf_start, end - leaf_start));
    if (leaf.empty()) {
      return Status::InvalidArgument("empty clause in predicate: '" +
                                     std::string(expr) + "'");
    }
    Result<ParsedPredicate> p = ParsePredicate(leaf);
    RINGO_RETURN_NOT_OK(p.status());
    out.disjuncts.back().push_back(std::move(*p));
    if (start_disjunct) out.disjuncts.emplace_back();
    return Status::OK();
  };

  for (size_t i = 0; i < expr.size();) {
    const char c = expr[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
      ++i;
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
      ++i;
      continue;
    }
    // A connective is a whole lowercase/uppercase word with whitespace on
    // both sides, outside quotes.
    const auto word_at = [&](std::string_view kw) {
      if (i == 0 ||
          !std::isspace(static_cast<unsigned char>(expr[i - 1]))) {
        return false;
      }
      if (expr.size() - i < kw.size()) return false;
      for (size_t k = 0; k < kw.size(); ++k) {
        if (std::tolower(static_cast<unsigned char>(expr[i + k])) != kw[k]) {
          return false;
        }
      }
      // A connective at the very end is still a connective — the empty
      // trailing clause is then diagnosed by close_leaf.
      return i + kw.size() == expr.size() ||
             std::isspace(static_cast<unsigned char>(expr[i + kw.size()]));
    };
    if (word_at("and")) {
      RINGO_RETURN_NOT_OK(close_leaf(i, /*start_disjunct=*/false));
      i += 3;
      leaf_start = i;
      continue;
    }
    if (word_at("or")) {
      RINGO_RETURN_NOT_OK(close_leaf(i, /*start_disjunct=*/true));
      i += 2;
      leaf_start = i;
      continue;
    }
    ++i;
  }
  if (quote != 0) {
    return Status::InvalidArgument("unterminated quote in predicate: '" +
                                   std::string(expr) + "'");
  }
  RINGO_RETURN_NOT_OK(close_leaf(expr.size(), /*start_disjunct=*/false));
  return out;
}

Ringo::Ringo() : pool_(std::make_shared<StringPool>()) {}

TablePtr Ringo::NewTable(Schema schema) const {
  return Table::Create(std::move(schema), pool_);
}

Result<TablePtr> Ringo::LoadTableTSV(const Schema& schema,
                                     const std::string& path,
                                     bool has_header) const {
  return ringo::LoadTableTSV(schema, path, pool_, has_header);
}

Status Ringo::SaveTableTSV(const Table& t, const std::string& path,
                           bool write_header) const {
  return ringo::SaveTableTSV(t, path, write_header);
}

Result<TablePtr> Ringo::Select(const TablePtr& t,
                               std::string_view expr) const {
  RINGO_TRACE_SPAN("Engine/Select");
  RINGO_ASSIGN_OR_RETURN(const PredicateExpr p, ParsePredicateExpr(expr));
  return t->Select(p);
}

Status Ringo::SelectInPlace(const TablePtr& t, std::string_view expr) const {
  RINGO_TRACE_SPAN("Engine/SelectInPlace");
  RINGO_ASSIGN_OR_RETURN(const PredicateExpr p, ParsePredicateExpr(expr));
  return t->SelectInPlace(p);
}

Result<TablePtr> Ringo::Join(const TablePtr& left, const TablePtr& right,
                             std::string_view left_col,
                             std::string_view right_col) const {
  RINGO_TRACE_SPAN("Engine/Join");
  return Table::Join(*left, *right, left_col, right_col);
}

Result<DirectedGraph> Ringo::ToGraph(const TablePtr& t,
                                     std::string_view src_col,
                                     std::string_view dst_col) const {
  RINGO_TRACE_SPAN("Engine/ToGraph");
  return TableToGraph(*t, src_col, dst_col);
}

Result<UndirectedGraph> Ringo::ToUndirectedGraph(
    const TablePtr& t, std::string_view src_col,
    std::string_view dst_col) const {
  RINGO_TRACE_SPAN("Engine/ToUndirectedGraph");
  return TableToUndirectedGraph(*t, src_col, dst_col);
}

Result<WeightedGraphResult> Ringo::ToWeightedGraph(
    const TablePtr& t, std::string_view src_col, std::string_view dst_col,
    std::string_view weight_col) const {
  RINGO_TRACE_SPAN("Engine/ToWeightedGraph");
  return TableToWeightedGraph(*t, src_col, dst_col, weight_col);
}

TablePtr Ringo::ToEdgeTable(const DirectedGraph& g,
                            const std::string& src_name,
                            const std::string& dst_name) const {
  RINGO_TRACE_SPAN("Engine/ToEdgeTable");
  return GraphToEdgeTable(g, pool_, src_name, dst_name);
}

TablePtr Ringo::ToNodeTable(const DirectedGraph& g,
                            const std::string& id_name) const {
  RINGO_TRACE_SPAN("Engine/ToNodeTable");
  return GraphToNodeTable(g, pool_, id_name);
}

Result<NodeValues> Ringo::GetPageRank(const DirectedGraph& g) const {
  RINGO_TRACE_SPAN("Engine/GetPageRank");
  return ParallelPageRank(g);
}

Result<HitsScores> Ringo::GetHits(const DirectedGraph& g) const {
  RINGO_TRACE_SPAN("Engine/GetHits");
  return Hits(g);
}

TablePtr Ringo::SummaryTable(const DirectedGraph& g) const {
  RINGO_TRACE_SPAN("Engine/SummaryTable");
  const GraphSummary s = Summarize(g);
  Schema schema{{"Stat", ColumnType::kString}, {"Value", ColumnType::kFloat}};
  TablePtr out = Table::Create(std::move(schema), pool_);
  const std::pair<const char*, double> rows[] = {
      {"nodes", static_cast<double>(s.nodes)},
      {"edges", static_cast<double>(s.edges)},
      {"self_loops", static_cast<double>(s.self_loops)},
      {"isolated_nodes", static_cast<double>(s.zero_deg_nodes)},
      {"avg_out_degree", s.avg_degree},
      {"max_out_degree", static_cast<double>(s.max_out_degree)},
      {"max_in_degree", static_cast<double>(s.max_in_degree)},
      {"density", s.density},
      {"reciprocity", s.reciprocity},
      {"wcc_count", static_cast<double>(s.wcc_count)},
      {"max_wcc_size", static_cast<double>(s.max_wcc_size)},
      {"scc_count", static_cast<double>(s.scc_count)},
      {"max_scc_size", static_cast<double>(s.max_scc_size)},
  };
  for (const auto& [name, value] : rows) {
    RINGO_CHECK_OK(out->AppendRow({std::string(name), value}));
  }
  return out;
}

namespace {

template <typename T>
TablePtr MapToTable(const std::vector<std::pair<NodeId, T>>& values,
                    ColumnType value_type, const std::string& id_name,
                    const std::string& value_name,
                    const std::shared_ptr<StringPool>& pool) {
  Schema schema;
  schema.AddColumn(id_name, ColumnType::kInt).Abort("TableFromMap");
  schema.AddColumn(value_name, value_type).Abort("TableFromMap");
  TablePtr out = Table::Create(std::move(schema), pool);
  const int64_t n = static_cast<int64_t>(values.size());
  Column& c_id = out->mutable_column(0);
  Column& c_val = out->mutable_column(1);
  c_id.ResizeForOverwrite(n);
  c_val.ResizeForOverwrite(n);
  ParallelFor(0, n, [&](int64_t i) {
    c_id.SetInt(i, values[i].first);
    if constexpr (std::is_same_v<T, double>) {
      c_val.SetFloat(i, values[i].second);
    } else {
      c_val.SetInt(i, values[i].second);
    }
  });
  out->SealAppendedRows(n).Abort("TableFromMap");
  return out;
}

}  // namespace

TablePtr Ringo::TableFromMap(const NodeValues& values,
                             const std::string& id_name,
                             const std::string& value_name) const {
  return MapToTable(values, ColumnType::kFloat, id_name, value_name, pool_);
}

TablePtr Ringo::TableFromMap(const NodeInts& values,
                             const std::string& id_name,
                             const std::string& value_name) const {
  return MapToTable(values, ColumnType::kInt, id_name, value_name, pool_);
}

trace::QueryStats Ringo::LastQueryStats() const {
  return trace::LastRootSpan();
}

TablePtr Ringo::StatsTable() const {
  Schema schema{{"Span", ColumnType::kString},
                {"Count", ColumnType::kInt},
                {"TotalMs", ColumnType::kFloat},
                {"MaxMs", ColumnType::kFloat}};
  TablePtr out = Table::Create(std::move(schema), pool_);
  for (const trace::FlatStat& s : trace::FlatStats()) {
    RINGO_CHECK_OK(out->AppendRow(
        {s.name, s.count, static_cast<double>(s.total_ns) / 1e6,
         static_cast<double>(s.max_ns) / 1e6}));
  }
  return out;
}

}  // namespace ringo
