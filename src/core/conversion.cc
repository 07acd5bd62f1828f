#include "core/conversion.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/default_init.h"
#include "util/parallel.h"
#include "util/radix_sort.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Endpoint ids, one per row: the weighted and naive builds' extraction.
using Ids = PooledVector<NodeId>;

// The node-id column `name`: int, or string (its pool ids are the node
// ids). Float columns are rejected.
Result<const Column*> NodeColumn(const Table& t, std::string_view name) {
  RINGO_ASSIGN_OR_RETURN(const int ci, t.FindColumn(name));
  const Column& c = t.column(ci);
  if (c.type() == ColumnType::kFloat) {
    return Status::TypeMismatch("node id column '" + std::string(name) +
                                "' must be int or string, not float");
  }
  return &c;
}

// Endpoint readers: row i's node id, read from the column in place. Plain
// int and string-id storage is indexed directly; an encoded column, or rows
// picked by a keep list, go through Column's element accessor.
template <typename T>
struct PlainIds {
  const T* v;
  NodeId operator()(int64_t i) const { return static_cast<NodeId>(v[i]); }
};

struct ColumnIds {
  const Column* c;
  const std::vector<int64_t>* keep;  // Physical rows; nullptr for all.
  NodeId operator()(int64_t i) const {
    const int64_t row = keep != nullptr ? (*keep)[i] : i;
    return c->type() == ColumnType::kInt ? c->GetInt(row)
                                         : static_cast<NodeId>(c->GetStr(row));
  }
};

// Calls fn(src, dst) with the cheapest readers the two columns allow.
template <typename Fn>
auto WithEndpoints(const Column& s, const Column& d,
                   const std::vector<int64_t>* keep, Fn&& fn) {
  if (keep == nullptr && s.type() == d.type() && !s.encoded() &&
      !d.encoded()) {
    if (s.type() == ColumnType::kInt) {
      return fn(PlainIds<int64_t>{s.ints().data()},
                PlainIds<int64_t>{d.ints().data()});
    }
    return fn(PlainIds<StringPool::Id>{s.strs().data()},
              PlainIds<StringPool::Id>{d.strs().data()});
  }
  return fn(ColumnIds{&s, keep}, ColumnIds{&d, keep});
}

Status ExtractNodeColumn(const Table& t, std::string_view name, Ids* out) {
  RINGO_ASSIGN_OR_RETURN(const Column* c, NodeColumn(t, name));
  const ColumnIds ids{c, nullptr};
  out->resize(t.NumRows());
  ParallelFor(0, t.NumRows(), [&](int64_t i) { (*out)[i] = ids(i); });
  return Status::OK();
}

// [min, max] over both endpoints of n > 0 rows.
template <typename Src, typename Dst>
std::pair<NodeId, NodeId> IdRange(const Src& src, const Dst& dst, int64_t n) {
  const int parts = RangeParts(n);
  const std::vector<int64_t> bounds = PartitionRange(n, parts);
  std::vector<NodeId> los(parts), his(parts);
  ParallelFor(0, parts, [&](int64_t p) {
    NodeId lo = INT64_MAX, hi = INT64_MIN;
    for (int64_t i = bounds[p]; i < bounds[p + 1]; ++i) {
      const NodeId u = src(i), v = dst(i);
      lo = std::min({lo, u, v});
      hi = std::max({hi, u, v});
    }
    los[p] = lo;
    his[p] = hi;
  });
  return {*std::min_element(los.begin(), los.end()),
          *std::max_element(his.begin(), his.end())};
}

// Sorts a[0, n): with `scratch` (room for n records) as one part on the
// calling thread, without it on every core. Radix off, std::sort and
// ParallelSort stand in for the two forms.
template <int W, typename R, typename KeyFn, typename Less>
void SortRecords(R* a, int64_t n, R* scratch, KeyFn key_of, Less less) {
  if (radix::Enabled()) {
    internal::LsdRadixSort<W>(a, n, key_of, scratch);
  } else if (scratch != nullptr) {
    std::sort(a, a + n, less);
  } else {
    ParallelSort(a, a + n, less);
  }
}

// Arc records. Every build sorts arcs (u, v) by (u, v) and reads node u's
// adjacency off its run of equal heads. When the endpoint ids span at most
// 2^32 values an arc packs into one 64-bit key (u − lo) << bits | (v − lo),
// whose unsigned order is the (u, v) order. It is held in a NodeId word, so
// the array the arcs are sorted in becomes the arena their tails are
// written to. Wider spans keep the 128-bit Edge record.
struct PackedArcs {
  using Record = NodeId;
  uint64_t lo = 0;
  int bits = 0;  // Width of one endpoint offset, at most 32.

  Record Make(NodeId u, NodeId v) const {
    return static_cast<Record>((Offset(u) << bits) | Offset(v));
  }
  // Orders records by head; equal exactly when they share one.
  uint64_t HeadKey(Record r) const { return Key(r) >> bits; }
  NodeId Head(Record r) const { return Id(HeadKey(r)); }
  NodeId Tail(Record r) const {
    return Id(Key(r) & ((uint64_t{1} << bits) - 1));
  }
  // What the run walk keeps of a distinct arc: its tail, an arena word.
  Record Kept(Record r) const { return Tail(r); }
  static void Sort(Record* a, int64_t n, Record* scratch) {
    SortRecords<1>(
        a, n, scratch, [](Record r, int) { return Key(r); },
        [](Record x, Record y) { return Key(x) < Key(y); });
  }

 private:
  static uint64_t Key(Record r) { return static_cast<uint64_t>(r); }
  uint64_t Offset(NodeId x) const { return static_cast<uint64_t>(x) - lo; }
  NodeId Id(uint64_t offset) const { return static_cast<NodeId>(lo + offset); }
};

struct WideArcs {
  using Record = Edge;
  Record Make(NodeId u, NodeId v) const { return {u, v}; }
  NodeId HeadKey(const Record& r) const { return r.first; }
  NodeId Head(const Record& r) const { return r.first; }
  NodeId Tail(const Record& r) const { return r.second; }
  // The whole record: its tail goes to a separate arena at fill.
  Record Kept(const Record& r) const { return r; }
  static void Sort(Record* a, int64_t n, Record* scratch) {
    SortRecords<2>(
        a, n, scratch,
        [](const Record& e, int w) {
          return radix::Int64Key(w == 0 ? e.second : e.first);
        },
        std::less<Record>());
  }
};

// Partitions. An arc goes to partition j by the top `digits` bits of its
// head's offset h − lo, out of the id span's width. The digit count grows
// with the arcs, so an average partition holds about kPartitionArcs of
// them and sorts within a core's cache; the span's width caps it.
constexpr int64_t kPartitionArcs = 2048;
constexpr int kMaxDigits = 16;

struct HeadDigit {
  uint64_t lo = 0;
  int shift = 0;
  int64_t count = 1;  // Partitions: 2^digits.
  int64_t operator()(NodeId h) const {
    return static_cast<int64_t>((static_cast<uint64_t>(h) - lo) >> shift);
  }
};

// `arcs` per array; offsets are `span_bits` wide. A partition's packed keys
// vary only in their low 2 * span_bits - digits bits, and its radix sort
// runs one pass per byte of those: one digit more that saves a pass is
// taken. A 64-bit span takes at least one digit, so the shift stays below
// 64.
HeadDigit ChooseDigit(NodeId lo, int span_bits, int64_t arcs) {
  int want =
      arcs > kPartitionArcs
          ? std::bit_width(static_cast<uint64_t>((arcs - 1) / kPartitionArcs))
          : 0;
  if (want > 0 && (2 * span_bits - want) % 8 == 1) ++want;
  const int digits =
      std::max(std::min({want, span_bits, kMaxDigits}), span_bits - 63);
  return {static_cast<uint64_t>(lo), span_bits - digits, int64_t{1} << digits};
}

// How each graph class lays out its arcs and names its trace phases.
template <typename Graph>
struct Layout;

// Directed: the forward arcs u→v go to array 0, whose runs are the
// out-runs, and the reversed arcs v→u to array 1, the in-runs (the arena
// order of DirectedPolicy).
template <>
struct Layout<DirectedGraph> {
  static constexpr size_t kArrays = 2;
  static constexpr int kReversed = 1;  // The array of v→u.
  static constexpr const char* kExtractSpan = "TableToGraph/extract";
  static constexpr const char* kSortSpan = "TableToGraph/sort";
  static constexpr const char* kCountSpan = "TableToGraph/count";
  static constexpr const char* kFillSpan = "TableToGraph/fill";
};

// Undirected: both orientations of every row go to one array, so a node's
// single run is its whole adjacency.
template <>
struct Layout<UndirectedGraph> {
  static constexpr size_t kArrays = 1;
  static constexpr int kReversed = 0;
  static constexpr const char* kExtractSpan = "TableToUndirectedGraph/extract";
  static constexpr const char* kSortSpan = "TableToUndirectedGraph/sort";
  static constexpr const char* kCountSpan = "TableToUndirectedGraph/count";
  static constexpr const char* kFillSpan = "TableToUndirectedGraph/fill";
};

// One array's arcs grouped by head digit: partition j's arcs are
// arcs[start[j], start[j + 1]).
template <typename Record>
struct Partitioned {
  PooledVector<Record> arcs;  // Becomes an arena (ArenaOf).
  std::vector<int64_t> start;
};

// Extract: every row's arcs u→v and v→u go straight from the columns into
// their arrays' partitions, by per-part counts, a prefix sum
// (partition-major, part-minor) and a stable, contention-free scatter —
// the radix kernel's histogram/scatter step, run once on the head digit.
template <size_t K, int kRev, typename Arcs, typename Src, typename Dst>
std::array<Partitioned<typename Arcs::Record>, K> Scatter(
    const Arcs& arcs, const HeadDigit& digit, const Src& src, const Dst& dst,
    int64_t n) {
  using R = typename Arcs::Record;
  const int64_t np = digit.count;
  const int parts = RangeParts(n);
  const std::vector<int64_t> bounds = PartitionRange(n, parts);
  // hist[k][p * np + j]: part p's arcs in array k's partition j, then the
  // part's next write position there.
  std::array<std::vector<int64_t>, K> hist;
  for (auto& h : hist) h.assign(static_cast<size_t>(parts * np), 0);
  ParallelFor(0, parts, [&](int64_t p) {
    int64_t* fwd = hist[0].data() + p * np;
    int64_t* rev = hist[kRev].data() + p * np;
    for (int64_t i = bounds[p]; i < bounds[p + 1]; ++i) {
      ++fwd[digit(src(i))];
      ++rev[digit(dst(i))];
    }
  });
  std::array<Partitioned<R>, K> out;
  for (size_t k = 0; k < K; ++k) {
    std::vector<int64_t>& h = hist[k];
    out[k].start.resize(np + 1);
    int64_t sum = 0;
    for (int64_t j = 0; j < np; ++j) {
      out[k].start[j] = sum;
      for (int p = 0; p < parts; ++p) {
        const int64_t c = h[p * np + j];
        h[p * np + j] = sum;
        sum += c;
      }
    }
    out[k].start[np] = sum;
    out[k].arcs.resize(sum);
  }
  // Each write also prefetches two cache lines ahead in its partition: the
  // hardware prefetcher cannot follow hundreds of write streams, and an
  // unprefetched line costs a full memory round trip per eight-odd arcs.
  const auto put = [](R* base, int64_t at, R record) {
    __builtin_prefetch(reinterpret_cast<const void*>(
                           reinterpret_cast<uintptr_t>(base + at) + 128),
                       /*rw=*/1);
    base[at] = record;
  };
  ParallelFor(0, parts, [&](int64_t p) {
    int64_t* fwd = hist[0].data() + p * np;
    int64_t* rev = hist[kRev].data() + p * np;
    R* fwd_arcs = out[0].arcs.data();
    R* rev_arcs = out[kRev].arcs.data();
    for (int64_t i = bounds[p]; i < bounds[p + 1]; ++i) {
      const NodeId u = src(i), v = dst(i);
      put(fwd_arcs, fwd[digit(u)]++, arcs.Make(u, v));
      put(rev_arcs, rev[digit(v)]++, arcs.Make(v, u));
    }
  });
  return out;
}

// Node runs as one worker noted them: its partitions' heads, each with
// where its run starts in every array, counted from the partition's first
// distinct arc there.
template <size_t K>
struct HeadList {
  std::vector<NodeId> heads;
  std::array<std::vector<int64_t>, K> starts;
};

// What the sort pass found in one partition: its distinct arcs in each
// array, and its heads at [at, at + heads) of worker `worker`'s list.
template <size_t K>
struct PartRuns {
  std::array<int64_t, K> distinct{};
  int64_t heads = 0;
  int64_t at = 0;
  int64_t worker = 0;
};

// Walks one partition of every array, each sorted, in ascending head
// order. Every head that leads arcs in some array is noted with where its
// run starts in each array (a node leading none there gets an empty run),
// and repeated arcs are dropped: the distinct arcs' Kept() forms move to
// the front of their partition, in place.
template <typename Arcs, size_t K>
PartRuns<K> WalkRuns(const Arcs& arcs,
                     const std::array<typename Arcs::Record*, K>& a,
                     const std::array<int64_t, K>& n, HeadList<K>* list,
                     int64_t worker) {
  using R = typename Arcs::Record;
  PartRuns<K> found;
  found.worker = worker;
  found.at = static_cast<int64_t>(list->heads.size());
  std::array<int64_t, K> i{};
  while (true) {
    size_t lead = K;  // The array whose next arc has the least head.
    for (size_t k = 0; k < K; ++k) {
      if (i[k] < n[k] &&
          (lead == K || arcs.HeadKey(a[k][i[k]]) <
                            arcs.HeadKey(a[lead][i[lead]]))) {
        lead = k;
      }
    }
    if (lead == K) break;
    const auto head = arcs.HeadKey(a[lead][i[lead]]);
    list->heads.push_back(arcs.Head(a[lead][i[lead]]));
    for (size_t k = 0; k < K; ++k) {
      int64_t& kept = found.distinct[k];
      list->starts[k].push_back(kept);
      if (i[k] == n[k] || arcs.HeadKey(a[k][i[k]]) != head) continue;
      R prev = a[k][i[k]++];
      a[k][kept++] = arcs.Kept(prev);
      for (; i[k] < n[k] && arcs.HeadKey(a[k][i[k]]) == head; ++i[k]) {
        const R r = a[k][i[k]];
        if (r == prev) continue;  // A repeated arc.
        a[k][kept++] = arcs.Kept(r);
        prev = r;
      }
    }
  }
  found.heads = static_cast<int64_t>(list->heads.size()) - found.at;
  return found;
}

// Moves finished partitions' distinct arcs down to their places in
// partition order, partition j's right after partition j - 1's, so that
// every array ends with its distinct arcs back to back (no move at all
// where no arc repeated). Whoever finishes the partition at the frontier
// moves it and every finished one after it, outside the lock, so the moves
// overlap the other workers' sorting; a move writes only over partitions
// already moved.
template <typename R, size_t K>
class InOrderPlacer {
 public:
  InOrderPlacer(std::array<Partitioned<R>, K>& pa,
                const std::vector<PartRuns<K>>& found)
      : pa_(pa), found_(found), done_(found.size(), 0) {}

  void Finished(int64_t j) {
    const int64_t np = static_cast<int64_t>(done_.size());
    std::unique_lock<std::mutex> lock(mu_);
    done_[j] = 1;
    if (moving_) return;  // The mover takes j when it gets there.
    moving_ = true;
    while (frontier_ < np && done_[frontier_]) {
      const int64_t from = frontier_;
      while (frontier_ < np && done_[frontier_]) ++frontier_;
      const int64_t to = frontier_;
      lock.unlock();
      for (int64_t f = from; f < to; ++f) Move(f);
      lock.lock();
    }
    moving_ = false;
  }

 private:
  void Move(int64_t j) {
    for (size_t k = 0; k < K; ++k) {
      R* a = pa_[k].arcs.data();
      const int64_t start = pa_[k].start[j];
      const int64_t n = found_[j].distinct[k];
      if (placed_[k] != start) {
        std::copy(a + start, a + start + n, a + placed_[k]);
      }
      placed_[k] += n;
    }
  }

  std::array<Partitioned<R>, K>& pa_;
  const std::vector<PartRuns<K>>& found_;
  std::array<int64_t, K> placed_{};  // Touched by the one mover only.
  std::mutex mu_;
  std::vector<char> done_;  // Guarded by mu_, as are frontier_ and moving_.
  int64_t frontier_ = 0;
  bool moving_ = false;
};

// A worker's sort scratch for n records. Up to kKeptScratchBytes it lives
// in a buffer per thread and record type that outlives the call, so the
// next build finds it already faulted in; that buffer only grows, to at
// most the bound, and is freed with its thread. A larger scratch is the
// call's own, from the block pool.
constexpr int64_t kKeptScratchBytes = int64_t{1} << 20;

template <typename R>
class SortScratch {
 public:
  explicit SortScratch(int64_t n) {
    if (n * static_cast<int64_t>(sizeof(R)) > kKeptScratchBytes) {
      own_.resize(n);
      data_ = own_.data();
      return;
    }
    thread_local DefaultInitVector<R> kept;
    if (static_cast<int64_t>(kept.size()) < n) kept.resize(n);
    data_ = kept.data();
  }
  R* data() const { return data_; }

 private:
  PooledVector<R> own_;
  R* data_ = nullptr;
};

// Sort: each worker takes partitions one at a time and sorts partition j of
// every array while it sits in cache, in the worker's scratch (sized by the
// largest partition), then walks their runs. A partition holding more than
// the arcs ÷ workers belongs to a few heads (a star's hub): it is sorted on
// every core after the loop, so it does not hold the build on one worker.
template <typename Arcs, size_t K>
std::vector<PartRuns<K>> SortPartitions(
    const Arcs& arcs, std::array<Partitioned<typename Arcs::Record>, K>& pa,
    std::vector<HeadList<K>>* lists) {
  using R = typename Arcs::Record;
  const int64_t np = static_cast<int64_t>(pa[0].start.size()) - 1;
  int64_t total = 0;
  for (const auto& p : pa) total += static_cast<int64_t>(p.arcs.size());
  const int workers =
      total <= internal::kRadixSeqCutoff ? 1 : std::max(1, NumThreads());
  const auto size = [&](size_t k, int64_t j) {
    return pa[k].start[j + 1] - pa[k].start[j];
  };
  const auto skewed = [&](int64_t j) {
    int64_t arcs_j = 0;
    for (size_t k = 0; k < K; ++k) arcs_j += size(k, j);
    return workers > 1 && arcs_j > total / workers;
  };
  int64_t largest = 0;
  for (int64_t j = 0; j < np; ++j) {
    if (skewed(j)) continue;
    for (size_t k = 0; k < K; ++k) largest = std::max(largest, size(k, j));
  }
  // Sorts and walks partition j; scratch == nullptr sorts on every core.
  const auto run = [&](int64_t j, R* scratch, int64_t w) {
    std::array<R*, K> a;
    std::array<int64_t, K> n;
    for (size_t k = 0; k < K; ++k) {
      a[k] = pa[k].arcs.data() + pa[k].start[j];
      n[k] = size(k, j);
      Arcs::Sort(a[k], n[k], scratch);
    }
    return WalkRuns(arcs, a, n, &(*lists)[w], w);
  };
  std::vector<PartRuns<K>> found(np);
  InOrderPlacer<R, K> placer(pa, found);
  lists->assign(workers, HeadList<K>{});
  std::atomic<int64_t> next{0};
  ParallelFor(0, workers, [&](int64_t w) {
    SortScratch<R> scratch(std::max<int64_t>(largest, 1));
    for (int64_t j = next.fetch_add(1, std::memory_order_relaxed); j < np;
         j = next.fetch_add(1, std::memory_order_relaxed)) {
      if (skewed(j)) continue;
      found[j] = run(j, scratch.data(), w);
      placer.Finished(j);
    }
  });
  for (int64_t j = 0; j < np; ++j) {
    if (!skewed(j)) continue;
    found[j] = run(j, nullptr, 0);
    placer.Finished(j);
  }
  return found;
}

// Count: prefix sums over the partitions' head and distinct-arc counts give
// every partition its slice of the node list and where its runs start in
// each array's arena; its noted runs are then copied into place.
template <size_t K>
void CollectRuns(const std::vector<PartRuns<K>>& found,
                 const std::vector<HeadList<K>>& lists,
                 SortedRuns<static_cast<int>(K)>* runs) {
  const int64_t np = static_cast<int64_t>(found.size());
  std::vector<int64_t> first(np + 1);
  std::array<std::vector<int64_t>, K> place;
  for (auto& p : place) p.resize(np + 1);
  for (int64_t j = 0; j < np; ++j) {
    first[j + 1] = first[j] + found[j].heads;
    for (size_t k = 0; k < K; ++k) {
      place[k][j + 1] = place[k][j] + found[j].distinct[k];
    }
  }
  const int64_t heads = first[np];
  runs->nodes.resize(heads);
  for (size_t k = 0; k < K; ++k) {
    runs->begin[k].resize(heads + 1);
    runs->begin[k][heads] = place[k][np];
  }
  const auto copy_runs = [&](int64_t j) {
    const PartRuns<K>& f = found[j];
    const HeadList<K>& list = lists[f.worker];
    std::copy_n(list.heads.begin() + f.at, f.heads,
                runs->nodes.begin() + first[j]);
    for (size_t k = 0; k < K; ++k) {
      for (int64_t i = 0; i < f.heads; ++i) {
        runs->begin[k][first[j] + i] =
            place[k][j] + list.starts[k][f.at + i];
      }
    }
  };
  if (heads <= internal::kParallelRangeCutoff) {
    for (int64_t j = 0; j < np; ++j) copy_runs(j);
  } else {
    ParallelForDynamic(0, np, copy_runs, /*chunk=*/16);
  }
}

// Fill: an array's distinct arcs, placed back to back, give the arena of its
// direction. Packed, they are already its tails, so the arc array becomes
// the arena; wide, the tails are copied out of the records.
template <typename Arcs>
PooledVector<NodeId> ArenaOf(const Arcs& arcs,
                             PooledVector<typename Arcs::Record> a,
                             int64_t distinct) {
  a.resize(distinct);
  if constexpr (std::is_same_v<typename Arcs::Record, NodeId>) {
    return a;
  } else {
    PooledVector<NodeId> out(distinct);
    ParallelForRange(0, distinct, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) out[i] = arcs.Tail(a[i]);
    });
    return out;
  }
}

// Scatter, then sort + count + fill, with the arc record chosen by the
// caller. `extract` is the open extract span, closed after the scatter.
template <typename Graph, typename Arcs, typename Src, typename Dst>
Graph BuildWithArcs(const Arcs& arcs, const HeadDigit& digit, const Src& src,
                    const Dst& dst, int64_t n,
                    std::optional<trace::Span>& extract, trace::Span* span) {
  using L = Layout<Graph>;
  constexpr size_t K = L::kArrays;
  auto pa = Scatter<K, L::kReversed>(arcs, digit, src, dst, n);
  extract.reset();

  std::vector<HeadList<K>> lists;
  std::vector<PartRuns<K>> found;
  {
    trace::Span sort_span(L::kSortSpan);
    sort_span.AddAttr("rows", n);
    found = SortPartitions(arcs, pa, &lists);
  }

  // Count: the ascending node list, and every node's run bounds in each
  // array.
  SortedRuns<static_cast<int>(K)> runs;
  {
    trace::Span count_span(L::kCountSpan);
    CollectRuns(found, lists, &runs);
    count_span.AddAttr("distinct_nodes",
                       static_cast<int64_t>(runs.nodes.size()));
  }
  std::vector<HeadList<K>>().swap(lists);

  // Fill: the arenas go to the graph as they are; it inserts its node table
  // in ascending order.
  trace::Span fill_span(L::kFillSpan);
  for (size_t k = 0; k < K; ++k) {
    runs.arcs[k] = ArenaOf(arcs, std::move(pa[k].arcs), runs.begin[k].back());
  }
  const int64_t nn = static_cast<int64_t>(runs.nodes.size());
  Graph g(std::move(runs));
  fill_span.AddAttr("nodes", nn);
  fill_span.AddAttr("edges", g.NumEdges());
  span->AddAttr("nodes", nn);
  span->AddAttr("edges", g.NumEdges());
  return g;
}

// The partition-first core behind every table→graph build: packed arc
// keys when the id span fits in 32 bits per endpoint, Edge records
// otherwise.
template <typename Graph, typename Src, typename Dst>
Graph BuildGraph(const Src& src, const Dst& dst, int64_t n,
                 trace::Span* span) {
  using L = Layout<Graph>;
  std::optional<trace::Span> extract(std::in_place, L::kExtractSpan);
  NodeId lo = 0;
  uint64_t width = 0;
  if (n > 0) {
    const auto [min_id, max_id] = IdRange(src, dst, n);
    lo = min_id;
    width = static_cast<uint64_t>(max_id) - static_cast<uint64_t>(min_id);
  }
  const int span_bits = std::bit_width(width);
  const HeadDigit digit =
      ChooseDigit(lo, span_bits, 2 * n / static_cast<int64_t>(L::kArrays));
  if (width > UINT32_MAX) {
    return BuildWithArcs<Graph>(WideArcs{}, digit, src, dst, n, extract,
                                span);
  }
  return BuildWithArcs<Graph>(PackedArcs{static_cast<uint64_t>(lo), span_bits},
                              digit, src, dst, n, extract, span);
}

// Resolves the endpoint columns and builds from them in place, over the
// physical rows in `keep` when non-null.
template <typename Graph>
Result<Graph> Build(const Table& t, std::string_view src_col,
                    std::string_view dst_col, const std::vector<int64_t>* keep,
                    trace::Span* span) {
  RINGO_ASSIGN_OR_RETURN(const Column* s, NodeColumn(t, src_col));
  RINGO_ASSIGN_OR_RETURN(const Column* d, NodeColumn(t, dst_col));
  const int64_t n =
      keep != nullptr ? static_cast<int64_t>(keep->size()) : t.NumRows();
  return WithEndpoints(*s, *d, keep, [&](const auto& src, const auto& dst) {
    return BuildGraph<Graph>(src, dst, n, span);
  });
}

}  // namespace

Result<DirectedGraph> TableToGraph(const Table& t, std::string_view src_col,
                                   std::string_view dst_col) {
  trace::Span span("TableToGraph");
  span.AddAttr("rows", t.NumRows());
  return Build<DirectedGraph>(t, src_col, dst_col, nullptr, &span);
}

Result<DirectedGraph> TableToGraphFiltered(const Table& t,
                                           std::string_view src_col,
                                           std::string_view dst_col,
                                           const std::vector<int64_t>& keep) {
  trace::Span span("TableToGraphFiltered");
  span.AddAttr("rows", t.NumRows());
  span.AddAttr("kept", static_cast<int64_t>(keep.size()));
  return Build<DirectedGraph>(t, src_col, dst_col, &keep, &span);
}

Result<UndirectedGraph> TableToUndirectedGraph(const Table& t,
                                               std::string_view src_col,
                                               std::string_view dst_col) {
  trace::Span span("TableToUndirectedGraph");
  span.AddAttr("rows", t.NumRows());
  return Build<UndirectedGraph>(t, src_col, dst_col, nullptr, &span);
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

  Ids src, dst;
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
  Ids src, dst;
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
  // A node's rows are its id repeated beside its out-run: one fill and one
  // copy per node into the columns' storage.
  int64_t* const src_cells = src.ints().data();
  int64_t* const dst_cells = dst.ints().data();
  ParallelForDynamic(0, nn, [&](int64_t i) {
    const auto nd = g.GetNode(ids[i]);
    std::fill_n(src_cells + offsets[i], nd->out.size(), ids[i]);
    std::copy(nd->out.begin(), nd->out.end(), dst_cells + offsets[i]);
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
    const auto nd = g.GetNode(ids[i]);
    c_id.SetInt(i, ids[i]);
    c_in.SetInt(i, static_cast<int64_t>(nd->in.size()));
    c_out.SetInt(i, static_cast<int64_t>(nd->out.size()));
  });
  out->SealAppendedRows(nn).Abort("GraphToNodeTable");
  return out;
}

}  // namespace ringo
