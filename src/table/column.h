// Column: the typed column store behind Ringo tables (§2.3). A column is a
// dense vector of int64, double, or interned string ids. All table
// operations iterate over columns, so access paths are branch-free inner
// loops over one vector.
//
// Since §14 a column may instead hold an *encoded* payload (dictionary or
// frame-of-reference + bit-packing, column_encoding.h), chosen by
// Encode() from observed stats. Encoding is transparent: element accessors
// decode O(1) per element, and the raw-vector accessors lazily materialize
// the plain vector on first touch — so operators and key_normalize are
// untouched, and the memory win applies to data at rest (loaded or served
// tables), not mid-operator.
//
// Storage: the plain vectors (IntVec / FloatVec / StrVec) use
// DefaultInitAllocator (util/default_init.h), so sizing them does not
// zero-fill. Resize(n) still zero-fills the new cells (in parallel);
// ResizeForOverwrite(n) leaves them unspecified, for callers that write
// every new cell right after — the loaders and operator outputs, whose
// first touch of the memory then happens in their own parallel pass.
//
// Concurrency: encoded state is published through an acquire/release
// atomic. Any number of threads may read a const column concurrently, even
// while one of them triggers the (mutex-serialized, once-only) lazy
// decode: readers that still observe the encoded state read the immutable
// payload (kept alive until the column dies), and only readers that
// observe the cleared state touch the plain vector. Mutating methods
// require exclusive access, like any other vector mutation.
#ifndef RINGO_TABLE_COLUMN_H_
#define RINGO_TABLE_COLUMN_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "storage/string_pool.h"
#include "table/column_encoding.h"
#include "table/schema.h"
#include "util/default_init.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace ringo {

class Column {
 public:
  using IntVec = DefaultInitVector<int64_t>;
  using FloatVec = DefaultInitVector<double>;
  using StrVec = DefaultInitVector<StringPool::Id>;

  explicit Column(ColumnType type);
  // Wraps an already-encoded payload (the .rtb zero-copy load path).
  Column(ColumnType type, std::shared_ptr<const EncodedColumn> enc);

  Column(const Column& o);
  Column& operator=(const Column& o);
  Column(Column&& o) noexcept;
  Column& operator=(Column&& o) noexcept;

  ColumnType type() const { return type_; }
  int64_t size() const;
  void Reserve(int64_t n);
  // Sets the row count to n; cells added beyond the old size are zero
  // (0, 0.0, string id 0), filled in parallel.
  void Resize(int64_t n);
  // Sets the row count to n without initializing the added cells: their
  // values are unspecified until written. For callers that write every
  // new cell before anything reads it.
  void ResizeForOverwrite(int64_t n);
  void Clear();

  // Typed appends / accessors. Type agreement is a precondition (DCHECKed):
  // the table layer validates before dispatching to columns.
  void AppendInt(int64_t v) {
    RINGO_DCHECK(type_ == ColumnType::kInt);
    EnsureDecodedExclusive();
    std::get<IntVec>(data_).push_back(v);
  }
  void AppendFloat(double v) {
    RINGO_DCHECK(type_ == ColumnType::kFloat);
    EnsureDecodedExclusive();
    std::get<FloatVec>(data_).push_back(v);
  }
  void AppendStr(StringPool::Id v) {
    RINGO_DCHECK(type_ == ColumnType::kString);
    EnsureDecodedExclusive();
    std::get<StrVec>(data_).push_back(v);
  }

  int64_t GetInt(int64_t i) const {
    if (const EncodedColumn* e = active()) return e->DecodeInt(i);
    return std::get<IntVec>(data_)[i];
  }
  double GetFloat(int64_t i) const {
    if (const EncodedColumn* e = active()) return e->DecodeFloat(i);
    return std::get<FloatVec>(data_)[i];
  }
  StringPool::Id GetStr(int64_t i) const {
    if (const EncodedColumn* e = active()) return e->DecodeStr(i);
    return std::get<StrVec>(data_)[i];
  }

  void SetInt(int64_t i, int64_t v) {
    EnsureDecodedExclusive();
    std::get<IntVec>(data_)[i] = v;
  }
  void SetFloat(int64_t i, double v) {
    EnsureDecodedExclusive();
    std::get<FloatVec>(data_)[i] = v;
  }
  void SetStr(int64_t i, StringPool::Id v) {
    EnsureDecodedExclusive();
    std::get<StrVec>(data_)[i] = v;
  }

  // Raw vector access for hot loops (type checked in debug builds). Const
  // overloads materialize the plain vector from an encoded payload first
  // (safe under concurrent const readers); non-const ones require
  // exclusive access anyway.
  IntVec& ints() {
    EnsureDecodedExclusive();
    return std::get<IntVec>(data_);
  }
  const IntVec& ints() const {
    EnsureDecodedShared();
    return std::get<IntVec>(data_);
  }
  FloatVec& floats() {
    EnsureDecodedExclusive();
    return std::get<FloatVec>(data_);
  }
  const FloatVec& floats() const {
    EnsureDecodedShared();
    return std::get<FloatVec>(data_);
  }
  StrVec& strs() {
    EnsureDecodedExclusive();
    return std::get<StrVec>(data_);
  }
  const StrVec& strs() const {
    EnsureDecodedShared();
    return std::get<StrVec>(data_);
  }

  // Returns a new column with rows picked by `idx` (values are indices into
  // this column). Parallel for large gathers. An encoded source decodes
  // per element into a plain result without materializing itself.
  Column Gather(const std::vector<int64_t>& idx) const;

  // Keeps exactly the rows listed in `keep` (ascending), discarding the
  // rest. Backbone of in-place Select: a parallel gather into fresh
  // storage (internal::CompactCells), so the peak is this column plus the
  // kept rows. The result is plain (an encoded column decodes only the
  // kept rows).
  void CompactKeep(const std::vector<int64_t>& keep);

  // Appends all rows of `other` (same type) to this column.
  void AppendColumn(const Column& other);

  // ---- Encoding (DESIGN.md §14) ----
  // Replaces the plain vector with a dictionary / frame-of-reference
  // payload when the observed stats make it at least ~10% smaller; no-op
  // (returns false) otherwise or when already encoded. Requires exclusive
  // access.
  bool Encode();
  bool encoded() const { return active() != nullptr; }
  ColumnEncoding encoding() const {
    const EncodedColumn* e = active();
    return e != nullptr ? e->enc : ColumnEncoding::kPlain;
  }
  // The live encoded payload, or nullptr when plain (table_io serializes
  // straight from it).
  const EncodedColumn* encoded_state() const { return active(); }

  int64_t MemoryUsageBytes() const;

 private:
  const EncodedColumn* active() const {
    return active_.load(std::memory_order_acquire);
  }
  // Materializes data_ from the encoded payload (mutex-serialized, safe
  // under concurrent const readers); keeps enc_ alive for readers that
  // already observed it.
  void EnsureDecodedShared() const;
  // Exclusive-path variant: also drops the encoded payload.
  void EnsureDecodedExclusive() {
    if (active() == nullptr) return;
    EnsureDecodedShared();
    enc_.reset();
  }

  ColumnType type_;
  // mutable: the lazy decode fills it behind a const accessor; the
  // active_ fence makes that single transition safe (header comment).
  mutable std::variant<IntVec, FloatVec, StrVec> data_;
  mutable std::shared_ptr<const EncodedColumn> enc_;
  mutable std::atomic<const EncodedColumn*> active_{nullptr};
};

namespace internal {

// A vector of get(idx[0]), get(idx[1]), ...: sized without a zero fill,
// then written in parallel ranges.
template <typename Vec, typename Get>
Vec GatherCells(const std::vector<int64_t>& idx, const Get& get) {
  const int64_t n = static_cast<int64_t>(idx.size());
  Vec out(n);
  ParallelForRange(0, n, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = get(idx[i]);
  });
  return out;
}

// Makes v[keep[0]], v[keep[1]], ... (keep ascending) the contents of `v`
// by a parallel gather into fresh storage. Keeping at least half the
// cells, the fresh storage replaces the old, which is freed. Keeping
// fewer, the kept cells are copied back into the old storage, which keeps
// its capacity (as a shrinking resize would): freeing it would hand its
// pages back to the OS inside the select, at a cost per discarded page
// that outweighs a copy of the few kept cells.
template <typename Vec>
void CompactCells(Vec& v, const std::vector<int64_t>& keep) {
  const int64_t k = static_cast<int64_t>(keep.size());
  Vec kept = GatherCells<Vec>(keep, [&v](int64_t r) { return v[r]; });
  if (2 * k >= static_cast<int64_t>(v.size())) {
    v.swap(kept);
    return;
  }
  ParallelForRange(0, k, [&](int64_t lo, int64_t hi) {
    std::copy(kept.begin() + lo, kept.begin() + hi, v.begin() + lo);
  });
  v.resize(k);
}

}  // namespace internal
}  // namespace ringo

#endif  // RINGO_TABLE_COLUMN_H_
