// Hash equi-join (§2.3), single- and multi-column. Build side: the right
// table (chained hash table keyed by a normalized 64-bit key, composite
// keys mixed together and verified by exact comparison); probe side: the
// left table, partitioned across threads with per-thread match buffers,
// then materialized with parallel gathers. Output order is deterministic:
// left row order, matches within a left row in right row order.
//
// The build side is split out as JoinBuild (table/join_build.h):
// Table::BuildJoin constructs it once, Table::JoinWithBuild probes it any
// number of times, and JoinMulti composes the two for the one-shot case.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "storage/flat_hash_map.h"
#include "table/join_build.h"
#include "table/row_compare.h"
#include "table/table.h"
#include "table/table_build.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace {

using internal::AppendSuffixedColumns;
using internal::EmitColumns;

// Normalizes one join cell to a 64-bit key such that key equality is
// necessary (and for a single column, sufficient) for value equality.
// Strings are normalized to ids in `key_pool`. Rows whose key can never
// match (float NaN; a string absent from the key pool) are flagged.
class KeyExtractor {
 public:
  KeyExtractor(const Table& t, int col, const StringPool* key_pool)
      : col_(t.column(col)), pool_(t.pool().get()), key_pool_(key_pool) {}

  // Returns false when this row can never join.
  bool Key(int64_t row, uint64_t* out) const {
    switch (col_.type()) {
      case ColumnType::kInt:
        *out = static_cast<uint64_t>(col_.GetInt(row));
        return true;
      case ColumnType::kFloat: {
        double v = col_.GetFloat(row);
        if (std::isnan(v)) return false;  // NaN != NaN: never joins.
        if (v == 0.0) v = 0.0;            // Collapse -0.0 onto +0.0.
        std::memcpy(out, &v, sizeof(*out));
        return true;
      }
      case ColumnType::kString: {
        const StringPool::Id id = col_.GetStr(row);
        if (pool_ == key_pool_) {
          *out = static_cast<uint64_t>(id);
          return true;
        }
        const StringPool::Id mapped = key_pool_->Find(pool_->Get(id));
        if (mapped == StringPool::kInvalidId) return false;
        *out = static_cast<uint64_t>(mapped);
        return true;
      }
    }
    return false;
  }

 private:
  const Column& col_;
  const StringPool* pool_;
  const StringPool* key_pool_;
};

// Mixes one key into a running composite hash.
inline uint64_t MixKey(uint64_t h, uint64_t k) {
  h ^= k + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

// Composite key over all join columns of one row.
bool CompositeKey(const std::vector<KeyExtractor>& extractors, int64_t row,
                  uint64_t* out) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const KeyExtractor& e : extractors) {
    uint64_t k = 0;
    if (!e.Key(row, &k)) return false;
    h = MixKey(h, k);
  }
  *out = h;
  return true;
}

// Fills the chained hash table over `right`'s key columns. Build-side keys
// are extracted in parallel up front; the table is pre-sized for the row
// count (power-of-two buckets, one reservation, no growth rehashes) and
// filled sequentially. Inserting in reverse row order makes every chain
// come out ascending when walked from its head.
void BuildChains(const Table& right, const std::vector<int>& rci,
                 const StringPool* key_pool,
                 FlatHashMap<uint64_t, int64_t>* heads,
                 std::vector<int64_t>* next) {
  std::vector<KeyExtractor> rkeys;
  for (int c : rci) rkeys.emplace_back(right, c, key_pool);
  const int64_t nr = right.NumRows();
  std::vector<uint64_t> rkey(nr);
  std::vector<uint8_t> rkey_ok(nr);
  ParallelFor(0, nr, [&](int64_t r) {
    rkey_ok[r] = CompositeKey(rkeys, r, &rkey[r]) ? 1 : 0;
  });
  heads->Reserve(nr);
  next->assign(nr, -1);
  trace::Span build_span("Table/Join/build");
  for (int64_t r = nr - 1; r >= 0; --r) {
    if (!rkey_ok[r]) continue;
    auto [slot, inserted] = heads->Insert(rkey[r], r);
    if (!inserted) {
      (*next)[r] = *slot;
      *slot = r;
    }
  }
  // The pre-sized build side must never rehash (PR 2's claim); the
  // counter makes that checkable per query and in the aggregate.
  build_span.AddAttr("build_rehashes", heads->GrowRehashes());
  build_span.AddAttr("build_probe_steps", heads->stats().probe_steps);
  RINGO_COUNTER_ADD("join/build_rehashes", heads->GrowRehashes());
  RINGO_COUNTER_ADD("join/build_probe_steps", heads->stats().probe_steps);
}

// Probes `left` against prepared chains and materializes the joined table.
Result<TablePtr> ProbeAndEmit(const Table& left, const std::vector<int>& lci,
                              const Table& right,
                              const std::vector<int>& rci,
                              const StringPool* key_pool,
                              const FlatHashMap<uint64_t, int64_t>& heads,
                              const std::vector<int64_t>& next,
                              bool keep_provenance, trace::Span* span) {
  // Output schema: left columns then right columns, collisions suffixed.
  Schema out_schema;
  RINGO_RETURN_NOT_OK(
      AppendSuffixedColumns(left.schema(), right.schema(), "-1", &out_schema));
  RINGO_RETURN_NOT_OK(
      AppendSuffixedColumns(right.schema(), left.schema(), "-2", &out_schema));
  if (keep_provenance) {
    RINGO_RETURN_NOT_OK(out_schema.AddColumn("_lrow", ColumnType::kInt));
    RINGO_RETURN_NOT_OK(out_schema.AddColumn("_rrow", ColumnType::kInt));
  }

  const bool composite = lci.size() > 1;
  std::vector<KeyExtractor> lkeys;
  for (int c : lci) lkeys.emplace_back(left, c, key_pool);
  // Exact verification for composite keys (hash equality is not enough).
  const RowComparator verify(&left, &right, lci, rci);

  // Probe left rows in NumThreads() contiguous parts, each into its own
  // match buffers; the buffers then land at prefix offsets of the
  // presized match lists, so the output order (left row order, right rows
  // ascending) does not depend on the thread count.
  const int64_t nl = left.NumRows();
  const int parts = NumThreads();
  const std::vector<int64_t> bounds = PartitionRange(nl, parts);
  std::vector<std::vector<int64_t>> lbuf(parts), rbuf(parts);
  {
    RINGO_TRACE_SPAN("Table/Join/probe");
    ParallelFor(0, parts, [&](int64_t p) {
      std::vector<int64_t>& lo = lbuf[p];
      std::vector<int64_t>& ro = rbuf[p];
      for (int64_t l = bounds[p]; l < bounds[p + 1]; ++l) {
        uint64_t k = 0;
        if (!CompositeKey(lkeys, l, &k)) continue;
        const int64_t* head = heads.Find(k);
        if (head == nullptr) continue;
        for (int64_t r = *head; r >= 0; r = next[r]) {
          if (composite && !verify.Equal(l, r)) continue;
          lo.push_back(l);
          ro.push_back(r);
        }
      }
    });
  }
  std::vector<int64_t> offsets(parts);
  for (int p = 0; p < parts; ++p) {
    offsets[p] = static_cast<int64_t>(lbuf[p].size());
  }
  const int64_t matches = ExclusivePrefixSum(offsets);
  Column::IntVec lrows(matches), rrows(matches);
  ParallelFor(0, parts, [&](int64_t p) {
    std::copy(lbuf[p].begin(), lbuf[p].end(), lrows.begin() + offsets[p]);
    std::copy(rbuf[p].begin(), rbuf[p].end(), rrows.begin() + offsets[p]);
  });
  span->AddAttr("matches", matches);

  // Materialize: join always produces a new table object (paper §3).
  const std::shared_ptr<StringPool>& out_pool = left.pool();
  TablePtr out = Table::Create(std::move(out_schema), out_pool);
  EmitColumns(left, lrows, out_pool, out.get(), 0);
  EmitColumns(right, rrows, out_pool, out.get(), left.num_columns());
  if (keep_provenance) {
    Column& lprov =
        out->mutable_column(left.num_columns() + right.num_columns());
    Column& rprov =
        out->mutable_column(left.num_columns() + right.num_columns() + 1);
    lprov.ResizeForOverwrite(matches);
    rprov.ResizeForOverwrite(matches);
    ParallelFor(0, matches, [&](int64_t i) {
      lprov.SetInt(i, left.RowId(lrows[i]));
      rprov.SetInt(i, right.RowId(rrows[i]));
    });
  }
  RINGO_RETURN_NOT_OK(out->SealAppendedRows(matches));
  return out;
}

// Resolves both key column lists and checks their types agree pairwise.
Status ResolveJoinKeys(const Table& left, const Table& right,
                       const std::vector<std::string>& left_cols,
                       const std::vector<std::string>& right_cols,
                       std::vector<int>* lci, std::vector<int>* rci) {
  if (left_cols.empty() || left_cols.size() != right_cols.size()) {
    return Status::InvalidArgument(
        "join requires equally many (>=1) key columns on both sides");
  }
  RINGO_RETURN_NOT_OK(ResolveColumns(left, left_cols, lci));
  RINGO_RETURN_NOT_OK(ResolveColumns(right, right_cols, rci));
  for (size_t c = 0; c < lci->size(); ++c) {
    const ColumnType lt = left.schema().column((*lci)[c]).type;
    const ColumnType rt = right.schema().column((*rci)[c]).type;
    if (lt != rt) {
      return Status::TypeMismatch(
          std::string("join key types differ on '") + left_cols[c] + "': " +
          ColumnTypeToString(lt) + " vs " + ColumnTypeToString(rt));
    }
  }
  return Status::OK();
}

}  // namespace

Result<TablePtr> Table::Join(const Table& left, const Table& right,
                             std::string_view left_col,
                             std::string_view right_col,
                             bool keep_provenance) {
  return JoinMulti(left, right, {std::string(left_col)},
                   {std::string(right_col)}, keep_provenance);
}

Result<JoinBuildPtr> Table::BuildJoin(const TablePtr& right,
                                      const std::vector<std::string>& right_cols,
                                      std::shared_ptr<StringPool> key_pool) {
  if (right == nullptr) {
    return Status::InvalidArgument("BuildJoin: right table is null");
  }
  if (right_cols.empty()) {
    return Status::InvalidArgument("BuildJoin: no key columns");
  }
  if (key_pool == nullptr) key_pool = right->pool();
  auto build = std::make_shared<JoinBuild>();
  build->right_ = right;
  build->key_cols_ = right_cols;
  build->key_pool_ = std::move(key_pool);
  RINGO_RETURN_NOT_OK(
      ResolveColumns(*right, right_cols, &build->rci_));
  BuildChains(*right, build->rci_, build->key_pool_.get(), &build->heads_,
              &build->next_);
  return JoinBuildPtr(std::move(build));
}

Result<TablePtr> Table::JoinWithBuild(const Table& left,
                                      const std::vector<std::string>& left_cols,
                                      const JoinBuild& build,
                                      bool keep_provenance) {
  const Table& right = *build.right_;
  std::vector<int> lci, rci;
  RINGO_RETURN_NOT_OK(
      ResolveJoinKeys(left, right, left_cols, build.key_cols_, &lci, &rci));
  trace::Span span("Table/Join");
  span.AddAttr("left_rows", left.NumRows());
  span.AddAttr("right_rows", right.NumRows());
  span.AddAttr("key_columns", static_cast<int64_t>(lci.size()));
  span.AddAttr("build_rehashes", build.heads_.GrowRehashes());
  return ProbeAndEmit(left, lci, right, rci, build.key_pool_.get(),
                      build.heads_, build.next_, keep_provenance, &span);
}

Result<TablePtr> Table::JoinMulti(const Table& left, const Table& right,
                                  const std::vector<std::string>& left_cols,
                                  const std::vector<std::string>& right_cols,
                                  bool keep_provenance) {
  std::vector<int> lci, rci;
  RINGO_RETURN_NOT_OK(
      ResolveJoinKeys(left, right, left_cols, right_cols, &lci, &rci));

  trace::Span span("Table/Join");
  span.AddAttr("left_rows", left.NumRows());
  span.AddAttr("right_rows", right.NumRows());
  span.AddAttr("key_columns", static_cast<int64_t>(lci.size()));

  // One-shot build + probe. Strings normalize into the left pool — the
  // output pool — exactly as before the build/probe split.
  FlatHashMap<uint64_t, int64_t> heads;
  std::vector<int64_t> next;
  BuildChains(right, rci, left.pool().get(), &heads, &next);
  span.AddAttr("build_rehashes", heads.GrowRehashes());
  return ProbeAndEmit(left, lci, right, rci, left.pool().get(), heads, next,
                      keep_provenance, &span);
}

}  // namespace ringo
