#include "table/column.h"

#include <algorithm>
#include <mutex>

#include "util/parallel.h"

namespace ringo {

namespace {

// Serializes lazy decodes process-wide. Decodes are rare (once per encoded
// column, ever) so one mutex beats a per-column member.
std::mutex& DecodeMutex() {
  static std::mutex m;
  return m;
}

}  // namespace

Column::Column(ColumnType type) : type_(type) {
  switch (type) {
    case ColumnType::kInt: data_ = IntVec{}; break;
    case ColumnType::kFloat: data_ = FloatVec{}; break;
    case ColumnType::kString: data_ = StrVec{}; break;
  }
}

Column::Column(ColumnType type, std::shared_ptr<const EncodedColumn> enc)
    : Column(type) {
  RINGO_CHECK(enc != nullptr);
  enc_ = std::move(enc);
  active_.store(enc_.get(), std::memory_order_release);
}

Column::Column(const Column& o) : Column(o.type_) {
  // Snapshot the encoded state first: if o is concurrently mid-decode we
  // either copy the immutable payload or (after its release-store) the
  // fully materialized vector — never a half-written one.
  if (const EncodedColumn* e = o.active()) {
    enc_ = o.enc_;
    active_.store(e, std::memory_order_release);
  } else {
    std::visit(
        [this](const auto& src) {
          AppendCopy(std::get<std::decay_t<decltype(src)>>(data_), src);
        },
        o.data_);
  }
}

Column& Column::operator=(const Column& o) {
  if (this != &o) {
    Column tmp(o);
    *this = std::move(tmp);
  }
  return *this;
}

Column::Column(Column&& o) noexcept
    : type_(o.type_),
      data_(std::move(o.data_)),
      enc_(std::move(o.enc_)),
      active_(o.active_.load(std::memory_order_relaxed)) {
  o.active_.store(nullptr, std::memory_order_relaxed);
}

Column& Column::operator=(Column&& o) noexcept {
  if (this != &o) {
    type_ = o.type_;
    data_ = std::move(o.data_);
    enc_ = std::move(o.enc_);
    active_.store(o.active_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    o.active_.store(nullptr, std::memory_order_relaxed);
  }
  return *this;
}

int64_t Column::size() const {
  if (const EncodedColumn* e = active()) return e->n;
  return std::visit(
      [](const auto& v) { return static_cast<int64_t>(v.size()); }, data_);
}

void Column::Reserve(int64_t n) {
  EnsureDecodedExclusive();
  std::visit([n](auto& v) { v.reserve(n); }, data_);
}

void Column::Resize(int64_t n) {
  const int64_t old = size();
  ResizeForOverwrite(n);
  std::visit(
      [old, n](auto& v) {
        using T = typename std::decay_t<decltype(v)>::value_type;
        ParallelForRange(old, n, [&](int64_t lo, int64_t hi) {
          std::fill(v.begin() + lo, v.begin() + hi, T{});
        });
      },
      data_);
}

void Column::ResizeForOverwrite(int64_t n) {
  EnsureDecodedExclusive();
  std::visit([n](auto& v) { v.resize(n); }, data_);
}

void Column::Clear() {
  enc_.reset();
  active_.store(nullptr, std::memory_order_relaxed);
  std::visit([](auto& v) { v.clear(); }, data_);
}

void Column::EnsureDecodedShared() const {
  const EncodedColumn* e = active();
  if (e == nullptr) return;
  std::lock_guard<std::mutex> lock(DecodeMutex());
  e = active();
  if (e == nullptr) return;  // Another thread finished the decode.
  const int64_t n = e->n;
  switch (type_) {
    case ColumnType::kInt: {
      IntVec v(n);
      ParallelFor(0, n, [&](int64_t i) { v[i] = e->DecodeInt(i); });
      data_ = std::move(v);
      break;
    }
    case ColumnType::kFloat: {
      FloatVec v(n);
      ParallelFor(0, n, [&](int64_t i) { v[i] = e->DecodeFloat(i); });
      data_ = std::move(v);
      break;
    }
    case ColumnType::kString: {
      StrVec v(n);
      ParallelFor(0, n, [&](int64_t i) { v[i] = e->DecodeStr(i); });
      data_ = std::move(v);
      break;
    }
  }
  // Publish: readers that load null from here on see the filled vector.
  // enc_ stays alive so readers that already hold `e` keep a valid payload.
  active_.store(nullptr, std::memory_order_release);
}

bool Column::Encode() {
  if (active() != nullptr) return false;
  std::shared_ptr<const EncodedColumn> e;
  switch (type_) {
    case ColumnType::kInt: e = EncodeIntColumn(std::get<IntVec>(data_)); break;
    case ColumnType::kFloat:
      e = EncodeFloatColumn(std::get<FloatVec>(data_));
      break;
    case ColumnType::kString:
      e = EncodeStrColumn(std::get<StrVec>(data_));
      break;
  }
  if (e == nullptr) return false;
  // Reclaim the plain storage; the payload is now the source of truth.
  switch (type_) {
    case ColumnType::kInt: data_ = IntVec{}; break;
    case ColumnType::kFloat: data_ = FloatVec{}; break;
    case ColumnType::kString: data_ = StrVec{}; break;
  }
  enc_ = std::move(e);
  active_.store(enc_.get(), std::memory_order_release);
  return true;
}

Column Column::Gather(const std::vector<int64_t>& idx) const {
  Column out(type_);
  if (const EncodedColumn* e = active()) {
    // Decode per element straight into the plain result: the (usually
    // smaller) gathered column never forces this one to materialize.
    switch (type_) {
      case ColumnType::kInt:
        out.data_ = internal::GatherCells<IntVec>(
            idx, [e](int64_t r) { return e->DecodeInt(r); });
        break;
      case ColumnType::kFloat:
        out.data_ = internal::GatherCells<FloatVec>(
            idx, [e](int64_t r) { return e->DecodeFloat(r); });
        break;
      case ColumnType::kString:
        out.data_ = internal::GatherCells<StrVec>(
            idx, [e](int64_t r) { return e->DecodeStr(r); });
        break;
    }
    return out;
  }
  std::visit(
      [&](const auto& src) {
        out.data_ = internal::GatherCells<std::decay_t<decltype(src)>>(
            idx, [&src](int64_t r) { return src[r]; });
      },
      data_);
  return out;
}

void Column::CompactKeep(const std::vector<int64_t>& keep) {
  if (active() != nullptr) {
    *this = Gather(keep);  // Decodes only the kept rows.
    return;
  }
  std::visit([&](auto& v) { internal::CompactCells(v, keep); }, data_);
}

void Column::AppendColumn(const Column& other) {
  RINGO_CHECK(type_ == other.type_);
  EnsureDecodedExclusive();
  other.EnsureDecodedShared();
  std::visit(
      [&](auto& dst) {
        AppendCopy(dst, std::get<std::decay_t<decltype(dst)>>(other.data_));
      },
      data_);
}

int64_t Column::MemoryUsageBytes() const {
  if (const EncodedColumn* e = active()) return e->MemoryUsageBytes();
  return std::visit(
      [](const auto& v) {
        return static_cast<int64_t>(
            v.capacity() *
            sizeof(typename std::decay_t<decltype(v)>::value_type));
      },
      data_);
}

}  // namespace ringo
