#include "core/conversion.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/parallel.h"
#include "util/radix_sort.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Pulls a node-id column as int64 values (pool ids for string columns),
// restricted to the physical rows in `keep` when non-null.
Status ExtractNodeColumnRows(const Table& t, std::string_view name,
                             const std::vector<int64_t>* keep,
                             std::vector<NodeId>* out) {
  RINGO_ASSIGN_OR_RETURN(const int ci, t.FindColumn(name));
  const Column& c = t.column(ci);
  const int64_t n =
      keep != nullptr ? static_cast<int64_t>(keep->size()) : t.NumRows();
  const auto row = [&](int64_t i) { return keep != nullptr ? (*keep)[i] : i; };
  out->resize(n);
  switch (c.type()) {
    case ColumnType::kInt:
      ParallelFor(0, n, [&](int64_t i) { (*out)[i] = c.GetInt(row(i)); });
      return Status::OK();
    case ColumnType::kString:
      ParallelFor(0, n, [&](int64_t i) {
        (*out)[i] = static_cast<NodeId>(c.GetStr(row(i)));
      });
      return Status::OK();
    case ColumnType::kFloat:
      return Status::TypeMismatch("node id column '" + std::string(name) +
                                  "' must be int or string, not float");
  }
  return Status::Internal("unhandled column type");
}

Status ExtractNodeColumn(const Table& t, std::string_view name,
                         std::vector<NodeId>* out) {
  return ExtractNodeColumnRows(t, name, nullptr, out);
}

// [min, max] over both endpoint columns (non-empty).
std::pair<NodeId, NodeId> IdRange(const std::vector<NodeId>& src,
                                  const std::vector<NodeId>& dst) {
  const int parts = NumThreads();
  const std::vector<int64_t> bounds =
      PartitionRange(static_cast<int64_t>(src.size()), parts);
  std::vector<NodeId> los(parts), his(parts);
  ParallelFor(0, parts, [&](int64_t p) {
    NodeId lo = INT64_MAX, hi = INT64_MIN;
    for (int64_t i = bounds[p]; i < bounds[p + 1]; ++i) {
      lo = std::min({lo, src[i], dst[i]});
      hi = std::max({hi, src[i], dst[i]});
    }
    los[p] = lo;
    his[p] = hi;
  });
  return {*std::min_element(los.begin(), los.end()),
          *std::max_element(his.begin(), his.end())};
}

// Arc records. Every sort-first build sorts arcs (u, v) by (u, v) and reads
// node u's adjacency off its run of equal heads. When the endpoint ids span
// at most 2^32 values an arc packs into one uint64 key (u − lo) << bits |
// (v − lo), whose unsigned order is the (u, v) order; wider spans keep the
// 128-bit Edge record. Both sort on the radix kernel, or on ParallelSort
// when radix::SetEnabled(false).
struct PackedArcs {
  using Record = uint64_t;
  NodeId lo = 0;
  int bits = 0;  // Width of one endpoint offset, at most 32.

  Record Make(NodeId u, NodeId v) const {
    return (Offset(u) << bits) | Offset(v);
  }
  NodeId Head(Record r) const { return Id(r >> bits); }
  NodeId Tail(Record r) const {
    return Id(r & ((uint64_t{1} << bits) - 1));
  }
  static void Sort(std::vector<Record>& v) {
    if (radix::Enabled()) {
      RadixSortU64(v);
    } else {
      ParallelSort(v.begin(), v.end());
    }
  }

 private:
  uint64_t Offset(NodeId x) const {
    return static_cast<uint64_t>(x) - static_cast<uint64_t>(lo);
  }
  NodeId Id(uint64_t offset) const {
    return static_cast<NodeId>(static_cast<uint64_t>(lo) + offset);
  }
};

struct WideArcs {
  using Record = Edge;
  Record Make(NodeId u, NodeId v) const { return {u, v}; }
  NodeId Head(const Record& r) const { return r.first; }
  NodeId Tail(const Record& r) const { return r.second; }
  static void Sort(std::vector<Record>& v) {
    if (radix::Enabled()) {
      RadixSortI64Pairs(v.data(), static_cast<int64_t>(v.size()));
    } else {
      ParallelSort(v.begin(), v.end());
    }
  }
};

// How each graph class lays out its arcs and names its trace phases.
template <typename Graph>
struct Layout;

// Directed: the forward arcs u→v give the out-runs and the reversed arcs
// v→u the in-runs, sorted as two arrays.
template <>
struct Layout<DirectedGraph> {
  static constexpr size_t kArrays = 2;
  static constexpr const char* kSortSpan = "TableToGraph/sort";
  static constexpr const char* kCountSpan = "TableToGraph/count";
  static constexpr const char* kFillSpan = "TableToGraph/fill";

  template <typename Arcs>
  static std::array<std::vector<typename Arcs::Record>, 2> MakeArcs(
      const Arcs& arcs, const std::vector<NodeId>& src,
      const std::vector<NodeId>& dst) {
    const int64_t n = static_cast<int64_t>(src.size());
    std::array<std::vector<typename Arcs::Record>, 2> out;
    out[0].resize(n);
    out[1].resize(n);
    ParallelFor(0, n, [&](int64_t i) {
      out[0][i] = arcs.Make(src[i], dst[i]);
      out[1][i] = arcs.Make(dst[i], src[i]);
    });
    return out;
  }
  static std::array<std::vector<NodeId>*, 2> RunVectors(
      DirectedGraph::NodeData* nd) {
    return {&nd->out, &nd->in};
  }
  // Each edge counts once, at its source.
  static int64_t OwnedEdges(NodeId, const DirectedGraph::NodeData& nd) {
    return static_cast<int64_t>(nd.out.size());
  }
};

// Undirected: both orientations of every row go into one array, so a
// node's single run is its whole adjacency.
template <>
struct Layout<UndirectedGraph> {
  static constexpr size_t kArrays = 1;
  static constexpr const char* kSortSpan = "TableToUndirectedGraph/sort";
  static constexpr const char* kCountSpan = "TableToUndirectedGraph/count";
  static constexpr const char* kFillSpan = "TableToUndirectedGraph/fill";

  template <typename Arcs>
  static std::array<std::vector<typename Arcs::Record>, 1> MakeArcs(
      const Arcs& arcs, const std::vector<NodeId>& src,
      const std::vector<NodeId>& dst) {
    const int64_t n = static_cast<int64_t>(src.size());
    std::array<std::vector<typename Arcs::Record>, 1> out;
    out[0].resize(2 * n);
    ParallelFor(0, n, [&](int64_t i) {
      out[0][2 * i] = arcs.Make(src[i], dst[i]);
      out[0][2 * i + 1] = arcs.Make(dst[i], src[i]);
    });
    return out;
  }
  static std::array<std::vector<NodeId>*, 1> RunVectors(
      UndirectedGraph::NodeData* nd) {
    return {&nd->nbrs};
  }
  // Each edge counts once, at its lower endpoint (a self-loop has one).
  static int64_t OwnedEdges(NodeId id, const UndirectedGraph::NodeData& nd) {
    return nd.nbrs.end() -
           std::lower_bound(nd.nbrs.begin(), nd.nbrs.end(), id);
  }
};

// The run walk over K sorted arc arrays: the ascending distinct heads, and
// for node nodes[i] its run arcs[k][begin[k][i], begin[k][i + 1]) in every
// array (empty where it heads no arc).
template <size_t K>
struct NodeRuns {
  std::vector<NodeId> nodes;
  std::array<std::vector<int64_t>, K> begin;
};

template <typename Arcs, size_t K>
NodeRuns<K> WalkRuns(
    const Arcs& arcs,
    const std::array<std::vector<typename Arcs::Record>, K>& sorted) {
  NodeRuns<K> runs;
  std::array<size_t, K> pos{};
  while (true) {
    bool found = false;
    NodeId id = 0;
    for (size_t k = 0; k < K; ++k) {
      if (pos[k] == sorted[k].size()) continue;
      const NodeId head = arcs.Head(sorted[k][pos[k]]);
      if (!found || head < id) id = head;
      found = true;
    }
    if (!found) break;
    runs.nodes.push_back(id);
    for (size_t k = 0; k < K; ++k) {
      runs.begin[k].push_back(static_cast<int64_t>(pos[k]));
      while (pos[k] < sorted[k].size() &&
             arcs.Head(sorted[k][pos[k]]) == id) {
        ++pos[k];
      }
    }
  }
  for (size_t k = 0; k < K; ++k) {
    runs.begin[k].push_back(static_cast<int64_t>(sorted[k].size()));
  }
  return runs;
}

// Sort + count + fill over already-extracted endpoint columns, with the
// arc record chosen by the caller. The columns are consumed: they are freed
// once the arcs are built, before the sort allocates its scratch.
template <typename Graph, typename Arcs>
Graph BuildWithArcs(const Arcs& arcs, std::vector<NodeId> src,
                    std::vector<NodeId> dst, trace::Span* span) {
  using L = Layout<Graph>;
  constexpr size_t K = L::kArrays;
  std::array<std::vector<typename Arcs::Record>, K> sorted;
  {
    trace::Span sort_span(L::kSortSpan);
    sort_span.AddAttr("rows", static_cast<int64_t>(src.size()));
    sorted = L::MakeArcs(arcs, src, dst);
    std::vector<NodeId>().swap(src);
    std::vector<NodeId>().swap(dst);
    for (auto& a : sorted) Arcs::Sort(a);
  }
  NodeRuns<K> runs;
  {
    trace::Span count_span(L::kCountSpan);
    runs = WalkRuns(arcs, sorted);
    count_span.AddAttr("distinct_nodes",
                       static_cast<int64_t>(runs.nodes.size()));
  }

  trace::Span fill_span(L::kFillSpan);
  Graph g;
  const int64_t nn = static_cast<int64_t>(runs.nodes.size());
  g.ReserveNodes(nn);
  // All nodes go in first, in one pass: the table never rehashes after
  // this, so the parallel fill below only reads it.
  auto& table = g.mutable_node_table();
  for (const NodeId id : runs.nodes) table.Insert(id, {});
  if (nn > 0) g.NoteMaxNodeId(runs.nodes.back());

  // Each node's vectors are copies of its runs' tails (sorted, since the
  // arcs are), minus duplicate arcs. Threads own disjoint nodes.
  std::vector<int64_t> owned(nn);
  ParallelForDynamic(0, nn, [&](int64_t i) {
    auto* nd = table.Find(runs.nodes[i]);
    const auto vectors = L::RunVectors(nd);
    for (size_t k = 0; k < K; ++k) {
      const auto* run = sorted[k].data();
      const int64_t lo = runs.begin[k][i], hi = runs.begin[k][i + 1];
      vectors[k]->reserve(hi - lo);
      for (int64_t j = lo; j < hi; ++j) {
        if (j == lo || run[j] != run[j - 1]) {
          vectors[k]->push_back(arcs.Tail(run[j]));
        }
      }
    }
    owned[i] = L::OwnedEdges(runs.nodes[i], *nd);
  });
  int64_t edges = 0;
  for (const int64_t c : owned) edges += c;
  g.BumpEdgeCount(edges);
  fill_span.AddAttr("nodes", nn);
  fill_span.AddAttr("edges", edges);
  span->AddAttr("nodes", nn);
  span->AddAttr("edges", edges);
  return g;
}

// The sort-first core behind every table→graph build: packed arc keys
// when the id span fits in 32 bits per endpoint, Edge records otherwise.
template <typename Graph>
Graph BuildGraph(std::vector<NodeId> src, std::vector<NodeId> dst,
                 trace::Span* span) {
  PackedArcs packed;
  if (!src.empty()) {
    const auto [lo, hi] = IdRange(src, dst);
    const uint64_t width =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (width > UINT32_MAX) {
      return BuildWithArcs<Graph>(WideArcs{}, std::move(src), std::move(dst),
                                  span);
    }
    packed = {lo, static_cast<int>(std::bit_width(width))};
  }
  return BuildWithArcs<Graph>(packed, std::move(src), std::move(dst), span);
}

}  // namespace

Result<DirectedGraph> TableToGraph(const Table& t, std::string_view src_col,
                                   std::string_view dst_col) {
  trace::Span span("TableToGraph");
  span.AddAttr("rows", t.NumRows());
  std::vector<NodeId> src, dst;
  {
    RINGO_TRACE_SPAN("TableToGraph/extract");
    RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, src_col, &src));
    RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, dst_col, &dst));
  }
  return BuildGraph<DirectedGraph>(std::move(src), std::move(dst), &span);
}

Result<DirectedGraph> TableToGraphFiltered(const Table& t,
                                           std::string_view src_col,
                                           std::string_view dst_col,
                                           const std::vector<int64_t>& keep) {
  trace::Span span("TableToGraphFiltered");
  span.AddAttr("rows", t.NumRows());
  span.AddAttr("kept", static_cast<int64_t>(keep.size()));
  std::vector<NodeId> src, dst;
  {
    RINGO_TRACE_SPAN("TableToGraph/extract");
    RINGO_RETURN_NOT_OK(ExtractNodeColumnRows(t, src_col, &keep, &src));
    RINGO_RETURN_NOT_OK(ExtractNodeColumnRows(t, dst_col, &keep, &dst));
  }
  // Kept rows enter the sort in ascending physical order — exactly the
  // order Select's GatherRows would give them — so the resulting graph is
  // bit-identical to TableToGraph over the materialized selection.
  return BuildGraph<DirectedGraph>(std::move(src), std::move(dst), &span);
}

Result<UndirectedGraph> TableToUndirectedGraph(const Table& t,
                                               std::string_view src_col,
                                               std::string_view dst_col) {
  trace::Span span("TableToUndirectedGraph");
  span.AddAttr("rows", t.NumRows());
  std::vector<NodeId> src, dst;
  {
    RINGO_TRACE_SPAN("TableToUndirectedGraph/extract");
    RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, src_col, &src));
    RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, dst_col, &dst));
  }
  return BuildGraph<UndirectedGraph>(std::move(src), std::move(dst), &span);
}

Result<WeightedGraphResult> TableToWeightedGraph(const Table& t,
                                                 std::string_view src_col,
                                                 std::string_view dst_col,
                                                 std::string_view weight_col) {
  RINGO_ASSIGN_OR_RETURN(const int wci, t.FindColumn(weight_col));
  const Column& wc = t.column(wci);
  if (wc.type() == ColumnType::kString) {
    return Status::TypeMismatch("weight column '" + std::string(weight_col) +
                                "' must be numeric");
  }
  trace::Span span("TableToWeightedGraph");
  span.AddAttr("rows", t.NumRows());
  WeightedGraphResult out;
  RINGO_ASSIGN_OR_RETURN(out.graph, TableToGraph(t, src_col, dst_col));

  std::vector<NodeId> src, dst;
  RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, src_col, &src));
  RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, dst_col, &dst));
  out.weights.Reserve(out.graph.NumEdges());
  const int64_t n = t.NumRows();
  auto weight_at = [&](int64_t i) {
    return wc.type() == ColumnType::kInt ? static_cast<double>(wc.GetInt(i))
                                         : wc.GetFloat(i);
  };
  if (radix::Enabled()) {
    // Sort (src, dst, row) records and accumulate each run. Stability keeps
    // rows of one edge in ascending row order, so the per-edge accumulation
    // order — hence the floating-point sum — is bit-identical to the
    // sequential row-order loop below.
    std::vector<KeyRow2> recs(n);
    ParallelFor(0, n, [&](int64_t i) {
      recs[i] = {radix::Int64Key(src[i]), radix::Int64Key(dst[i]), i};
    });
    RadixSortKeyRows2(recs.data(), n);
    for (int64_t i = 0; i < n;) {
      int64_t j = i;
      double acc = 0.0;
      while (j < n && recs[j].hi == recs[i].hi && recs[j].lo == recs[i].lo) {
        acc += weight_at(recs[j].row);
        ++j;
      }
      // Duplicate rows accumulate onto the single collapsed edge.
      out.weights.Set(src[recs[i].row], dst[recs[i].row], acc);
      i = j;
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      out.weights.Set(src[i], dst[i],
                      out.weights.Get(src[i], dst[i], 0.0) + weight_at(i));
    }
  }
  return out;
}

Result<DirectedGraph> TableToGraphNaive(const Table& t,
                                        std::string_view src_col,
                                        std::string_view dst_col) {
  std::vector<NodeId> src, dst;
  RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, src_col, &src));
  RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, dst_col, &dst));
  DirectedGraph g;
  for (int64_t i = 0; i < static_cast<int64_t>(src.size()); ++i) {
    g.AddEdge(src[i], dst[i]);
  }
  return g;
}

TablePtr GraphToEdgeTable(const DirectedGraph& g,
                          std::shared_ptr<StringPool> pool,
                          const std::string& src_name,
                          const std::string& dst_name) {
  trace::Span span("GraphToEdgeTable");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  Schema schema;
  schema.AddColumn(src_name, ColumnType::kInt).Abort("GraphToEdgeTable");
  schema.AddColumn(dst_name, ColumnType::kInt).Abort("GraphToEdgeTable");
  TablePtr out = Table::Create(std::move(schema), std::move(pool));

  // Partition nodes (ascending id) and pre-compute each node's slice of the
  // output table; threads then write disjoint ranges.
  std::vector<NodeId> ids = g.NodeIds();
  if (radix::Enabled()) {
    RadixSortI64(ids);
  } else {
    ParallelSort(ids.begin(), ids.end());
  }
  const int64_t nn = static_cast<int64_t>(ids.size());
  std::vector<int64_t> offsets(nn + 1, 0);
  ParallelFor(0, nn, [&](int64_t i) {
    offsets[i + 1] = static_cast<int64_t>(g.GetNode(ids[i])->out.size());
  });
  for (int64_t i = 0; i < nn; ++i) offsets[i + 1] += offsets[i];
  const int64_t m = offsets[nn];

  Column& src = out->mutable_column(0);
  Column& dst = out->mutable_column(1);
  src.ResizeForOverwrite(m);
  dst.ResizeForOverwrite(m);
  ParallelForDynamic(0, nn, [&](int64_t i) {
    int64_t row = offsets[i];
    const NodeId u = ids[i];
    for (NodeId v : g.GetNode(u)->out) {
      src.SetInt(row, u);
      dst.SetInt(row, v);
      ++row;
    }
  });
  out->SealAppendedRows(m).Abort("GraphToEdgeTable");
  return out;
}

TablePtr GraphToNodeTable(const DirectedGraph& g,
                          std::shared_ptr<StringPool> pool,
                          const std::string& id_name) {
  trace::Span span("GraphToNodeTable");
  span.AddAttr("nodes", g.NumNodes());
  Schema schema;
  schema.AddColumn(id_name, ColumnType::kInt).Abort("GraphToNodeTable");
  schema.AddColumn("InDeg", ColumnType::kInt).Abort("GraphToNodeTable");
  schema.AddColumn("OutDeg", ColumnType::kInt).Abort("GraphToNodeTable");
  TablePtr out = Table::Create(std::move(schema), std::move(pool));

  std::vector<NodeId> ids = g.NodeIds();
  if (radix::Enabled()) {
    RadixSortI64(ids);
  } else {
    ParallelSort(ids.begin(), ids.end());
  }
  const int64_t nn = static_cast<int64_t>(ids.size());
  Column& c_id = out->mutable_column(0);
  Column& c_in = out->mutable_column(1);
  Column& c_out = out->mutable_column(2);
  c_id.ResizeForOverwrite(nn);
  c_in.ResizeForOverwrite(nn);
  c_out.ResizeForOverwrite(nn);
  ParallelFor(0, nn, [&](int64_t i) {
    const DirectedGraph::NodeData* nd = g.GetNode(ids[i]);
    c_id.SetInt(i, ids[i]);
    c_in.SetInt(i, static_cast<int64_t>(nd->in.size()));
    c_out.SetInt(i, static_cast<int64_t>(nd->out.size()));
  });
  out->SealAppendedRows(nn).Abort("GraphToNodeTable");
  return out;
}

}  // namespace ringo
