#include "table/table_io.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string_view>
#include <unordered_map>

#include "storage/mmap_file.h"
#include "util/checksum.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace ringo {

namespace {

// --------------------------------------------------------------------------
// TSV ingest (DESIGN.md §15). The mapped text after the header is cut into
// newline-aligned chunks; one parallel pass counts each chunk's lines and
// data rows, a prefix sum gives every chunk its first line number and row,
// and a second pass parses each chunk in place straight into its row range
// of the pre-sized columns. Strings get chunk-local ids from one dictionary
// per chunk; the dictionaries are interned into the pool in file order and
// the local ids remapped, so pool ids follow row-major first occurrence at
// every thread count.

constexpr int64_t kChunksPerThread = 4;

// One physical line: [begin, end) without its '\n' and one trailing '\r';
// `next` is where the following line starts.
struct Line {
  const char* begin;
  const char* end;
  const char* next;
};

Line NextLine(const char* p, const char* stop) {
  const char* nl = static_cast<const char*>(std::memchr(p, '\n', stop - p));
  Line l{p, nl != nullptr ? nl : stop, nl != nullptr ? nl + 1 : stop};
  if (l.end != l.begin && l.end[-1] == '\r') --l.end;
  return l;
}

// Blank lines and '#' comments carry no row.
bool IsDataLine(const Line& l) { return l.end != l.begin && *l.begin != '#'; }

// Chunk-local string dictionary, shared by every string column of a chunk.
// Local ids are dense in first-occurrence order; each entry keeps a view
// into the mapping and its StringPool::Hash, so the pool merge
// (InternBatch) hashes nothing again.
class ChunkDict {
 public:
  StringPool::Id Intern(std::string_view s) {
    const uint64_t h = StringPool::Hash(s);
    size_t mask = slots_.size() - 1;
    size_t i = h & mask;
    for (; slots_[i] != StringPool::kInvalidId; i = (i + 1) & mask) {
      const StringPool::Id id = slots_[i];
      if (hashes_[id] == h && strs_[id] == s) return id;
    }
    RINGO_CHECK_LT(strs_.size(), size_t{INT32_MAX})
        << "TSV chunk holds more than 2^31 distinct strings";
    const auto id = static_cast<StringPool::Id>(strs_.size());
    strs_.push_back(s);
    hashes_.push_back(h);
    slots_[i] = id;
    if (strs_.size() * 10 > slots_.size() * 7) Grow();
    return id;
  }

  std::span<const std::string_view> strs() const { return strs_; }
  std::span<const uint64_t> hashes() const { return hashes_; }

 private:
  void Grow() {
    std::vector<StringPool::Id> fresh(slots_.size() * 2,
                                      StringPool::kInvalidId);
    const size_t mask = fresh.size() - 1;
    for (size_t id = 0; id < strs_.size(); ++id) {
      size_t i = hashes_[id] & mask;
      while (fresh[i] != StringPool::kInvalidId) i = (i + 1) & mask;
      fresh[i] = static_cast<StringPool::Id>(id);
    }
    slots_ = std::move(fresh);
  }

  std::vector<std::string_view> strs_;
  std::vector<uint64_t> hashes_;
  std::vector<StringPool::Id> slots_ =
      std::vector<StringPool::Id>(64, StringPool::kInvalidId);
};

// A newline-aligned slice of the text and everything the passes learn
// about it.
struct TsvChunk {
  const char* begin = nullptr;
  const char* end = nullptr;
  int64_t lines = 0;       // Physical lines.
  int64_t rows = 0;        // Data lines.
  int64_t first_line = 0;  // 1-based file line number of the first line.
  int64_t first_row = 0;   // Table row of the first data line.
  ChunkDict dict;
  int64_t dict_base = 0;  // Where the dictionary starts in the intern batch.
  Status status;          // The chunk's first parse error.
};

// Where one column's parsed cells go: the pre-sized column's raw storage.
struct ColumnSink {
  ColumnType type;
  int64_t* ints = nullptr;
  double* floats = nullptr;
  StringPool::Id* strs = nullptr;
};

// Builds the error for a line ParseRow rejected at field `c`. An arity
// error outranks a bad field on the same line, as if the line had been
// split before any field was parsed.
Status RowError(const Schema& schema, const Line& l, int64_t lineno, int c) {
  const std::vector<std::string_view> fields =
      SplitFields(std::string_view(l.begin, l.end - l.begin), '\t');
  if (static_cast<int>(fields.size()) != schema.num_columns()) {
    return Status::InvalidArgument(
        "line " + std::to_string(lineno) + ": expected " +
        std::to_string(schema.num_columns()) + " fields, got " +
        std::to_string(fields.size()));
  }
  const std::string_view f = fields[c];
  const Status st = schema.column(c).type == ColumnType::kInt
                        ? ParseInt64(f).status()
                        : ParseDouble(f).status();
  return Status::InvalidArgument("line " + std::to_string(lineno) +
                                 ", column '" + schema.column(c).name +
                                 "': " + st.message());
}

// Parses one data line into `row` of the sinks. Fields are cut in place;
// numbers follow ParseInt64 / ParseDouble (the whole field must parse).
// Returns -1, or the index of the first field that failed (a missing or
// extra field fails at the column where the tab count goes wrong).
int ParseRow(std::span<const ColumnSink> sinks, const Line& l, int64_t row,
             ChunkDict* dict) {
  const char* p = l.begin;
  const int ncols = static_cast<int>(sinks.size());
  for (int c = 0; c < ncols; ++c) {
    const char* tab =
        static_cast<const char*>(std::memchr(p, '\t', l.end - p));
    if ((tab == nullptr) != (c + 1 == ncols)) return c;
    const char* fe = tab != nullptr ? tab : l.end;
    const ColumnSink& s = sinks[c];
    switch (s.type) {
      case ColumnType::kInt: {
        const auto [ptr, ec] = std::from_chars(p, fe, s.ints[row]);
        if (ec != std::errc() || ptr != fe || p == fe) return c;
        break;
      }
      case ColumnType::kFloat: {
        const auto [ptr, ec] = std::from_chars(p, fe, s.floats[row]);
        if (ec != std::errc() || ptr != fe || p == fe) return c;
        break;
      }
      case ColumnType::kString:
        s.strs[row] = dict->Intern(std::string_view(p, fe - p));
        break;
    }
    p = fe + 1;
  }
  return -1;
}

// Pass 1: physical lines and data rows of one chunk.
void CountChunk(TsvChunk* ck) {
  for (const char* p = ck->begin; p != ck->end;) {
    const Line l = NextLine(p, ck->end);
    ++ck->lines;
    ck->rows += IsDataLine(l);
    p = l.next;
  }
}

// Pass 2: parses a chunk into its row range, stopping at its first error.
void ParseChunk(const Schema& schema, std::span<const ColumnSink> sinks,
                TsvChunk* ck) {
  int64_t lineno = ck->first_line;
  int64_t row = ck->first_row;
  for (const char* p = ck->begin; p != ck->end; ++lineno) {
    const Line l = NextLine(p, ck->end);
    p = l.next;
    if (!IsDataLine(l)) continue;
    const int bad = ParseRow(sinks, l, row++, &ck->dict);
    if (bad >= 0) {
      ck->status = RowError(schema, l, lineno, bad);
      return;
    }
  }
}

}  // namespace

Result<TablePtr> LoadTableTSV(const Schema& schema, const std::string& path,
                              std::shared_ptr<StringPool> pool,
                              bool has_header) {
  trace::Span span("Table/LoadTableTSV");
  RINGO_ASSIGN_OR_RETURN(std::shared_ptr<const MmapFile> map,
                         MmapFile::Open(path));
  const char* const text = reinterpret_cast<const char*>(map->data());
  const char* const stop = text + map->size();

  std::vector<TsvChunk> chunks;
  {
    trace::Span scan("Table/LoadTableTSV/scan");
    // The header is the first non-blank line, '#'-prefixed or not (the
    // "# col1<TAB>col2" export format), so a data row is never taken for
    // it. Blank lines before it still count as file lines.
    const char* body = text;
    int64_t header_lines = 0;
    while (has_header && body != stop) {
      const Line l = NextLine(body, stop);
      ++header_lines;
      body = l.next;
      if (l.end != l.begin) break;
    }
    // Nominal cut points, each moved forward to the next line start; a
    // line longer than a chunk leaves the chunks it spans empty.
    const int64_t nchunks =
        std::min<int64_t>(kChunksPerThread * NumThreads(), stop - body);
    chunks.resize(nchunks);
    for (int64_t k = 0; k < nchunks; ++k) {
      const char* cut = body + (stop - body) * k / nchunks;
      if (k > 0) {
        cut = std::max(cut, chunks[k - 1].begin);
        if (cut[-1] != '\n') cut = NextLine(cut, stop).next;
        chunks[k - 1].end = cut;
      }
      chunks[k].begin = cut;
    }
    if (nchunks > 0) chunks.back().end = stop;
    ParallelFor(0, nchunks, [&](int64_t k) { CountChunk(&chunks[k]); });
    int64_t line = header_lines + 1;
    int64_t row = 0;
    for (TsvChunk& ck : chunks) {
      ck.first_line = line;
      ck.first_row = row;
      line += ck.lines;
      row += ck.rows;
    }
  }
  const int64_t n =
      chunks.empty() ? 0 : chunks.back().first_row + chunks.back().rows;

  TablePtr table = Table::Create(schema, std::move(pool));
  std::vector<ColumnSink> sinks;
  std::vector<StringPool::Id*> str_cols;
  for (int c = 0; c < schema.num_columns(); ++c) {
    Column& col = table->mutable_column(c);
    col.ResizeForOverwrite(n);
    ColumnSink s{schema.column(c).type};
    switch (s.type) {
      case ColumnType::kInt: s.ints = col.ints().data(); break;
      case ColumnType::kFloat: s.floats = col.floats().data(); break;
      case ColumnType::kString:
        s.strs = col.strs().data();
        str_cols.push_back(s.strs);
        break;
    }
    sinks.push_back(s);
  }
  {
    trace::Span parse("Table/LoadTableTSV/parse");
    ParallelFor(0, static_cast<int64_t>(chunks.size()), [&](int64_t k) {
      ParseChunk(schema, sinks, &chunks[k]);
    });
    // Chunks are in file order and each stops at its own first error, so
    // the first failing chunk holds the file's first error.
    for (const TsvChunk& ck : chunks) RINGO_RETURN_NOT_OK(ck.status);
  }
  if (!str_cols.empty()) {
    trace::Span intern("Table/LoadTableTSV/intern");
    // The dictionaries back to back in file order, interned as one batch:
    // one lock, one table resize, and ids in row-major first occurrence.
    std::vector<std::string_view> strs;
    std::vector<uint64_t> hashes;
    for (TsvChunk& ck : chunks) {
      ck.dict_base = static_cast<int64_t>(strs.size());
      strs.insert(strs.end(), ck.dict.strs().begin(), ck.dict.strs().end());
      hashes.insert(hashes.end(), ck.dict.hashes().begin(),
                    ck.dict.hashes().end());
    }
    std::vector<StringPool::Id> pool_ids(strs.size());
    table->pool()->InternBatch(strs, hashes, pool_ids);
    ParallelFor(0, static_cast<int64_t>(chunks.size()), [&](int64_t k) {
      const TsvChunk& ck = chunks[k];
      const StringPool::Id* ids = pool_ids.data() + ck.dict_base;
      for (StringPool::Id* col : str_cols) {
        for (int64_t r = ck.first_row; r < ck.first_row + ck.rows; ++r) {
          col[r] = ids[col[r]];
        }
      }
    });
  }
  RINGO_RETURN_NOT_OK(table->SealAppendedRows(n));
  span.AddAttr("rows", n);
  span.AddAttr("bytes", static_cast<int64_t>(map->size()));
  RINGO_COUNTER_ADD("table_io/load_tsv", 1);
  table->PublishMemGauges();
  return table;
}

Status SaveTableTSV(const Table& t, const std::string& path,
                    bool write_header) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  if (write_header) {
    std::vector<std::string> names;
    for (const ColumnSpec& c : t.schema().columns()) names.push_back(c.name);
    out << JoinStrings(names, "\t") << '\n';
  }
  for (int64_t r = 0; r < t.NumRows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      if (c > 0) out << '\t';
      // Floats are written with max_digits10 precision so a save/load
      // round trip is bit-exact (FormatCell's %.6g is for display only).
      if (t.schema().column(c).type == ColumnType::kFloat) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", t.column(c).GetFloat(r));
        out << buf;
      } else {
        out << t.FormatCell(r, c);
      }
    }
    out << '\n';
  }
  if (!out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// .rtb binary table format (DESIGN.md §14).
//
// Layout (all integers little-endian; the format is not byte-swapped on
// big-endian hosts — Ringo targets x86-64/AArch64):
//
//   [64-byte header]
//     0  magic "RTB1"
//     4  u32 version (= 1)
//     8  u32 ncols
//     12 u32 flags (reserved, 0)
//     16 i64 nrows
//     24 i64 next_row_id
//     32 u64 dir_offset
//     40 u64 dir_bytes
//     48 u32 dir_crc
//     52 u32 header_crc  (CRC-32 of bytes [0, 52))
//     56 zero padding to 64
//   [segments]   8-byte aligned, zero-padded between; one data segment per
//                column, one dictionary segment per dict-encoded column,
//                one row-id segment (nrows × i64)
//   [directory]  per-column: name, type, on-disk encoding, bit width,
//                for_base, dict_count, then (offset, bytes, crc) for the
//                data and dictionary segments; finally the row-id segment's
//                (offset, bytes, crc)
//
// Plain int/float columns are raw 8-byte values (floats keep their exact
// bit patterns). Encoded columns store their packed code stream verbatim,
// so the loader can hand the column a zero-copy view into the mapping.
// String columns are *always* dictionary-form on disk — pool ids are
// process-local, so the dictionary stores the bytes and the loader
// re-interns them into the target pool.

// Friend of Table: the loader's private-state restore hatch.
class TableBinAccess {
 public:
  static int64_t NextRowId(const Table& t) { return t.next_row_id_; }
  static void Restore(Table& t, Column::IntVec row_ids,
                      int64_t next_row_id) {
    t.num_rows_ = static_cast<int64_t>(row_ids.size());
    t.row_ids_ = std::move(row_ids);
    t.next_row_id_ = next_row_id;
  }
};

namespace {

constexpr char kRtbMagic[4] = {'R', 'T', 'B', '1'};
constexpr uint32_t kRtbVersion = 1;
constexpr size_t kRtbHeaderBytes = 64;
constexpr size_t kRtbHeaderCrcOffset = 52;  // header_crc covers [0, 52)

struct SegRef {
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint32_t crc = 0;
};

template <typename T>
void PutNum(std::string* b, T v) {
  b->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void PutSeg(std::string* b, const SegRef& s) {
  PutNum(b, s.offset);
  PutNum(b, s.bytes);
  PutNum(b, s.crc);
}

// Streaming segment writer: pads to 8-byte alignment before each segment
// and records (offset, bytes, crc).
struct RtbWriter {
  std::ofstream out;
  uint64_t off = 0;

  void Raw(const void* p, size_t n) {
    if (n == 0) return;
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    off += n;
  }
  void Pad8() {
    static constexpr char zeros[8] = {};
    Raw(zeros, static_cast<size_t>(-off & 7));
  }
  SegRef Segment(const void* p, size_t n) {
    Pad8();
    const SegRef s{off, n, Crc32(p, n)};
    Raw(p, n);
    return s;
  }
};

int BitsForDict(int64_t dict_count) {
  return dict_count <= 1
             ? 0
             : std::bit_width(static_cast<uint64_t>(dict_count - 1));
}

// First-occurrence dictionary over a plain string-id vector (the save path
// for string columns that are not already dict-encoded in memory).
void BuildStrDict(std::span<const StringPool::Id> v,
                  std::vector<StringPool::Id>* dict,
                  std::vector<uint64_t>* codes) {
  std::unordered_map<StringPool::Id, uint64_t> seen;
  codes->reserve(v.size());
  for (const StringPool::Id id : v) {
    const auto [it, inserted] = seen.emplace(id, dict->size());
    if (inserted) dict->push_back(id);
    codes->push_back(it->second);
  }
}

// Dictionary segment payload for string columns: dict_count entries of
// [u32 length][bytes].
std::string SerializeStrDict(const StringPool& pool,
                             const std::vector<StringPool::Id>& dict) {
  std::string b;
  for (const StringPool::Id id : dict) {
    const std::string_view s = pool.Get(id);
    PutNum(&b, static_cast<uint32_t>(s.size()));
    b.append(s);
  }
  return b;
}

// What one column serializes to, recorded while its segments are written.
struct ColDisk {
  uint8_t enc = 0;  // ColumnEncoding as stored on disk
  uint8_t bits = 0;
  int64_t for_base = 0;
  int64_t dict_count = 0;
  SegRef data;
  SegRef dict;
};

// Bounds-checked reader over the mapped directory bytes.
struct BinCursor {
  const uint8_t* p;
  size_t left;

  bool Bytes(void* dst, size_t n) {
    if (n > left) return false;
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  template <typename T>
  bool Num(T* v) {
    return Bytes(v, sizeof(T));
  }
  bool Str(std::string* s, size_t n) {
    if (n > left) return false;
    s->assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
  bool Seg(SegRef* s) {
    return Num(&s->offset) && Num(&s->bytes) && Num(&s->crc);
  }
};

struct ColEntry {
  std::string name;
  uint8_t type = 0;
  uint8_t enc = 0;
  uint8_t bits = 0;
  int64_t for_base = 0;
  int64_t dict_count = 0;
  SegRef data;
  SegRef dict;
};

Status MalformedDir(const std::string& why) {
  return Status::Corruption("malformed .rtb directory: " + why);
}

// CRC-32 of [p, p + len): fixed 64 KB blocks checksummed in parallel and
// joined in order, so the value is Crc32's at every thread count. The
// row-id segment alone is most of a typical file, so one segment must
// spread over the cores.
uint32_t BlockParallelCrc32(const uint8_t* p, uint64_t len) {
  constexpr uint64_t kBlock = uint64_t{64} << 10;
  if (len <= kBlock) return Crc32(p, len);
  const int64_t nblocks = static_cast<int64_t>((len + kBlock - 1) / kBlock);
  std::vector<uint32_t> part(nblocks);
  auto block_len = [&](int64_t b) {
    return std::min(kBlock, len - b * kBlock);
  };
  ParallelFor(0, nblocks, [&](int64_t b) {
    part[b] = Crc32(p + b * kBlock, block_len(b));
  });
  uint32_t crc = part[0];
  for (int64_t b = 1; b < nblocks; ++b) {
    crc = Crc32Combine(crc, part[b], block_len(b));
  }
  return crc;
}

// Verifies a segment lies inside the file and matches its checksum.
Status CheckSegment(const uint8_t* base, size_t file_size, const SegRef& s,
                    const std::string& what) {
  if (s.bytes > file_size || s.offset > file_size - s.bytes) {
    return Status::Corruption("short " + what + " segment");
  }
  if (BlockParallelCrc32(base + s.offset, s.bytes) != s.crc) {
    return Status::Corruption("checksum mismatch in " + what + " segment");
  }
  return Status::OK();
}

// Copies n 8-byte cells from the mapping into `dst` in parallel ranges,
// so the destination's first-touch page faults spread over the threads.
// n == 0 copies nothing (a zero-row vector's data() may be null, and
// memcpy's pointer arguments are declared nonnull even for size 0).
void CopyCells(void* dst, const uint8_t* src, int64_t n) {
  uint8_t* const out = static_cast<uint8_t*>(dst);
  ParallelForRange(0, n, [&](int64_t lo, int64_t hi) {
    std::memcpy(out + lo * 8, src + lo * 8, static_cast<size_t>(hi - lo) * 8);
  });
}

// Largest of the first n codes, as a parallel max over fixed blocks.
uint64_t MaxCode(const EncodedColumn& ec, int64_t n) {
  constexpr int64_t kBlock = int64_t{1} << 14;
  const int64_t nblocks = (n + kBlock - 1) / kBlock;
  std::vector<uint64_t> part(nblocks, 0);
  ParallelFor(0, nblocks, [&](int64_t b) {
    const int64_t end = std::min(n, (b + 1) * kBlock);
    uint64_t m = 0;
    for (int64_t i = b * kBlock; i < end; ++i) m = std::max(m, ec.Code(i));
    part[b] = m;
  });
  return nblocks == 0 ? 0 : *std::max_element(part.begin(), part.end());
}

}  // namespace

Status SaveTableBin(const Table& t, const std::string& path) {
  trace::Span span("Table/SaveTableBin");
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  RtbWriter w{std::move(f)};
  {
    const char zeros[kRtbHeaderBytes] = {};
    w.Raw(zeros, kRtbHeaderBytes);  // Header placeholder, rewritten below.
  }

  const int64_t nrows = t.NumRows();
  std::vector<ColDisk> cols(t.num_columns());
  for (int ci = 0; ci < t.num_columns(); ++ci) {
    const Column& c = t.column(ci);
    ColDisk& d = cols[ci];
    const EncodedColumn* e = c.encoded_state();
    switch (c.type()) {
      case ColumnType::kInt:
        if (e != nullptr) {
          d.enc = static_cast<uint8_t>(e->enc);
          d.bits = static_cast<uint8_t>(e->bits);
          d.for_base = e->for_base;
          if (e->enc == ColumnEncoding::kDictInt) {
            d.dict_count = static_cast<int64_t>(e->dict_ints.size());
            d.dict = w.Segment(e->dict_ints.data(),
                               e->dict_ints.size() * sizeof(int64_t));
          }
          d.data =
              w.Segment(e->words.data(), e->words.size() * sizeof(uint64_t));
        } else {
          d.enc = static_cast<uint8_t>(ColumnEncoding::kPlain);
          d.data = w.Segment(c.ints().data(), nrows * sizeof(int64_t));
        }
        break;
      case ColumnType::kFloat:
        if (e != nullptr) {
          d.enc = static_cast<uint8_t>(e->enc);
          d.bits = static_cast<uint8_t>(e->bits);
          d.dict_count = static_cast<int64_t>(e->dict_floats.size());
          d.dict = w.Segment(e->dict_floats.data(),
                             e->dict_floats.size() * sizeof(double));
          d.data =
              w.Segment(e->words.data(), e->words.size() * sizeof(uint64_t));
        } else {
          d.enc = static_cast<uint8_t>(ColumnEncoding::kPlain);
          d.data = w.Segment(c.floats().data(), nrows * sizeof(double));
        }
        break;
      case ColumnType::kString: {
        // Always dictionary-form on disk (pool ids don't persist).
        d.enc = static_cast<uint8_t>(ColumnEncoding::kDictStr);
        std::vector<StringPool::Id> dict_local;
        std::vector<uint64_t> codes_local;
        std::vector<uint64_t> packed;
        const std::vector<StringPool::Id>* dict = nullptr;
        std::span<const uint64_t> words;
        if (e != nullptr && e->enc == ColumnEncoding::kDictStr) {
          dict = &e->dict_strs;
          d.bits = static_cast<uint8_t>(e->bits);
          words = e->words;
        } else {
          BuildStrDict(c.strs(), &dict_local, &codes_local);
          dict = &dict_local;
          d.bits = static_cast<uint8_t>(
              BitsForDict(static_cast<int64_t>(dict_local.size())));
          if (d.bits > 0) packed = PackCodes(codes_local, d.bits);
          words = packed;
        }
        d.dict_count = static_cast<int64_t>(dict->size());
        const std::string dict_bytes = SerializeStrDict(*t.pool(), *dict);
        d.dict = w.Segment(dict_bytes.data(), dict_bytes.size());
        d.data = w.Segment(words.data(), words.size() * sizeof(uint64_t));
        break;
      }
    }
  }
  const SegRef row_seg =
      w.Segment(t.row_ids().data(), nrows * sizeof(int64_t));

  std::string dir;
  for (int ci = 0; ci < t.num_columns(); ++ci) {
    const ColumnSpec& spec = t.schema().column(ci);
    const ColDisk& d = cols[ci];
    PutNum(&dir, static_cast<uint32_t>(spec.name.size()));
    dir.append(spec.name);
    PutNum(&dir, static_cast<uint8_t>(spec.type));
    PutNum(&dir, d.enc);
    PutNum(&dir, d.bits);
    PutNum(&dir, uint8_t{0});
    PutNum(&dir, d.for_base);
    PutNum(&dir, d.dict_count);
    PutSeg(&dir, d.data);
    PutSeg(&dir, d.dict);
  }
  PutSeg(&dir, row_seg);

  w.Pad8();
  const uint64_t dir_offset = w.off;
  const uint32_t dir_crc = Crc32(dir.data(), dir.size());
  w.Raw(dir.data(), dir.size());

  std::string h;
  h.append(kRtbMagic, sizeof(kRtbMagic));
  PutNum(&h, kRtbVersion);
  PutNum(&h, static_cast<uint32_t>(t.num_columns()));
  PutNum(&h, uint32_t{0});  // flags
  PutNum(&h, nrows);
  PutNum(&h, TableBinAccess::NextRowId(t));
  PutNum(&h, dir_offset);
  PutNum(&h, static_cast<uint64_t>(dir.size()));
  PutNum(&h, dir_crc);
  PutNum(&h, Crc32(h.data(), kRtbHeaderCrcOffset));
  h.resize(kRtbHeaderBytes, '\0');
  w.out.seekp(0);
  w.out.write(h.data(), static_cast<std::streamsize>(h.size()));
  w.out.flush();
  if (!w.out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  RINGO_COUNTER_ADD("table_io/save_bin", 1);
  return Status::OK();
}

Result<TablePtr> LoadTableBin(const std::string& path,
                              std::shared_ptr<StringPool> pool) {
  trace::Span span("Table/LoadTableBin");
  RINGO_ASSIGN_OR_RETURN(std::shared_ptr<const MmapFile> map,
                         MmapFile::Open(path));
  const uint8_t* base = map->data();
  const size_t file_size = map->size();
  if (file_size < kRtbHeaderBytes) {
    return Status::Corruption("'" + path + "': truncated .rtb header");
  }
  if (std::memcmp(base, kRtbMagic, sizeof(kRtbMagic)) != 0) {
    return Status::Corruption("'" + path + "': not an .rtb file (bad magic)");
  }
  BinCursor hc{base + sizeof(kRtbMagic),
               kRtbHeaderBytes - sizeof(kRtbMagic)};
  uint32_t version = 0, ncols = 0, flags = 0;
  int64_t nrows = 0, next_row_id = 0;
  uint64_t dir_offset = 0, dir_bytes = 0;
  uint32_t dir_crc = 0, header_crc = 0;
  hc.Num(&version);
  hc.Num(&ncols);
  hc.Num(&flags);
  hc.Num(&nrows);
  hc.Num(&next_row_id);
  hc.Num(&dir_offset);
  hc.Num(&dir_bytes);
  hc.Num(&dir_crc);
  hc.Num(&header_crc);
  if (version != kRtbVersion) {
    return Status::Corruption("'" + path + "': unsupported .rtb version " +
                              std::to_string(version));
  }
  if (Crc32(base, kRtbHeaderCrcOffset) != header_crc) {
    return Status::Corruption("'" + path + "': header checksum mismatch");
  }
  if (nrows < 0) {
    return Status::Corruption("'" + path + "': negative row count");
  }
  if (dir_bytes > file_size || dir_offset > file_size - dir_bytes ||
      dir_offset < kRtbHeaderBytes) {
    return Status::Corruption("'" + path + "': truncated directory");
  }
  if (Crc32(base + dir_offset, dir_bytes) != dir_crc) {
    return Status::Corruption("'" + path + "': directory checksum mismatch");
  }

  BinCursor cur{base + dir_offset, static_cast<size_t>(dir_bytes)};
  std::vector<ColEntry> entries(ncols);
  Schema schema;
  for (ColEntry& e : entries) {
    uint32_t name_len = 0;
    uint8_t pad = 0;
    if (!cur.Num(&name_len) || !cur.Str(&e.name, name_len) ||
        !cur.Num(&e.type) || !cur.Num(&e.enc) || !cur.Num(&e.bits) ||
        !cur.Num(&pad) || !cur.Num(&e.for_base) || !cur.Num(&e.dict_count) ||
        !cur.Seg(&e.data) || !cur.Seg(&e.dict)) {
      return MalformedDir("truncated column entry");
    }
    if (e.type > static_cast<uint8_t>(ColumnType::kString)) {
      return MalformedDir("bad column type for '" + e.name + "'");
    }
    if (e.bits > 63 || e.dict_count < 0) {
      return MalformedDir("bad encoding metadata for '" + e.name + "'");
    }
    const ColumnType type = static_cast<ColumnType>(e.type);
    const ColumnEncoding enc = static_cast<ColumnEncoding>(e.enc);
    const bool enc_ok =
        (type == ColumnType::kInt &&
         (enc == ColumnEncoding::kPlain || enc == ColumnEncoding::kDictInt ||
          enc == ColumnEncoding::kForInt)) ||
        (type == ColumnType::kFloat &&
         (enc == ColumnEncoding::kPlain ||
          enc == ColumnEncoding::kDictFloat)) ||
        (type == ColumnType::kString && enc == ColumnEncoding::kDictStr);
    if (!enc_ok) {
      return MalformedDir("bad encoding for '" + e.name + "'");
    }
    const Status st = schema.AddColumn(e.name, type);
    if (!st.ok()) {
      return MalformedDir(st.message());
    }
  }
  SegRef row_seg;
  if (!cur.Seg(&row_seg)) {
    return MalformedDir("missing row-id segment entry");
  }
  if (cur.left != 0) {
    return MalformedDir("trailing bytes");
  }

  TablePtr t = Table::Create(std::move(schema), std::move(pool));
  StringPool* out_pool = t->pool().get();
  int64_t zero_copy_cols = 0;
  for (int ci = 0; ci < t->num_columns(); ++ci) {
    const ColEntry& e = entries[ci];
    const ColumnType type = static_cast<ColumnType>(e.type);
    const ColumnEncoding enc = static_cast<ColumnEncoding>(e.enc);
    RINGO_RETURN_NOT_OK(
        CheckSegment(base, file_size, e.data, "column '" + e.name + "' data"));
    RINGO_RETURN_NOT_OK(CheckSegment(base, file_size, e.dict,
                                     "column '" + e.name + "' dictionary"));

    if (enc == ColumnEncoding::kPlain) {
      if (e.data.bytes != static_cast<uint64_t>(nrows) * 8) {
        return Status::Corruption("column '" + e.name +
                                  "': data segment size mismatch");
      }
      // Straight into the column's storage, sized without a zero fill.
      Column& col = t->mutable_column(ci);
      col.ResizeForOverwrite(nrows);
      void* dst = type == ColumnType::kInt
                      ? static_cast<void*>(col.ints().data())
                      : static_cast<void*>(col.floats().data());
      CopyCells(dst, base + e.data.offset, nrows);
      continue;
    }

    auto ec = std::make_shared<EncodedColumn>();
    ec->enc = enc;
    ec->n = nrows;
    ec->bits = e.bits;
    ec->for_base = e.for_base;
    const uint64_t want_words =
        e.bits == 0
            ? 0
            : (static_cast<uint64_t>(nrows) * e.bits + 63) / 64;
    if (e.data.bytes != want_words * 8) {
      return Status::Corruption("column '" + e.name +
                                "': code stream size mismatch");
    }
    if (want_words > 0) {
      if (e.data.offset % alignof(uint64_t) == 0) {
        ec->BorrowWords(
            std::span(reinterpret_cast<const uint64_t*>(base + e.data.offset),
                      want_words),
            map);
        ++zero_copy_cols;
      } else {
        std::vector<uint64_t> w(want_words);
        std::memcpy(w.data(), base + e.data.offset, want_words * 8);
        ec->AdoptOwnedWords(std::move(w));
      }
    }

    switch (enc) {
      case ColumnEncoding::kForInt:
        break;  // for_base + codes is the whole payload.
      case ColumnEncoding::kDictInt:
        if (e.dict.bytes != static_cast<uint64_t>(e.dict_count) * 8) {
          return Status::Corruption("column '" + e.name +
                                    "': dictionary size mismatch");
        }
        ec->dict_ints.resize(e.dict_count);
        if (e.dict.bytes != 0)
          std::memcpy(ec->dict_ints.data(), base + e.dict.offset,
                      e.dict.bytes);
        break;
      case ColumnEncoding::kDictFloat:
        if (e.dict.bytes != static_cast<uint64_t>(e.dict_count) * 8) {
          return Status::Corruption("column '" + e.name +
                                    "': dictionary size mismatch");
        }
        ec->dict_floats.resize(e.dict_count);
        if (e.dict.bytes != 0)
          std::memcpy(ec->dict_floats.data(), base + e.dict.offset,
                      e.dict.bytes);
        break;
      case ColumnEncoding::kDictStr: {
        BinCursor dc{base + e.dict.offset, static_cast<size_t>(e.dict.bytes)};
        ec->dict_strs.reserve(e.dict_count);
        std::string s;
        for (int64_t i = 0; i < e.dict_count; ++i) {
          uint32_t len = 0;
          if (!dc.Num(&len) || !dc.Str(&s, len)) {
            return Status::Corruption("column '" + e.name +
                                      "': truncated string dictionary");
          }
          ec->dict_strs.push_back(out_pool->GetOrAdd(s));
        }
        if (dc.left != 0) {
          return Status::Corruption("column '" + e.name +
                                    "': string dictionary trailing bytes");
        }
        break;
      }
      case ColumnEncoding::kPlain:
        break;  // unreachable
    }

    // Dict encodings: every code must index the dictionary. A full-width
    // code space (dict_count == 2^bits) cannot overflow; otherwise scan —
    // CRCs catch bit rot, this catches files written wrong.
    if (enc != ColumnEncoding::kForInt && e.bits > 0 &&
        static_cast<uint64_t>(e.dict_count) < (uint64_t{1} << e.bits)) {
      if (MaxCode(*ec, nrows) >= static_cast<uint64_t>(e.dict_count)) {
        return Status::Corruption("column '" + e.name +
                                  "': code out of dictionary range");
      }
    }
    if (enc != ColumnEncoding::kForInt && nrows > 0 && e.dict_count == 0) {
      return Status::Corruption("column '" + e.name + "': empty dictionary");
    }
    t->mutable_column(ci) = Column(type, std::move(ec));
  }

  RINGO_RETURN_NOT_OK(CheckSegment(base, file_size, row_seg, "row-id"));
  if (row_seg.bytes != static_cast<uint64_t>(nrows) * 8) {
    return Status::Corruption("'" + path + "': row-id segment size mismatch");
  }
  Column::IntVec row_ids(nrows);
  CopyCells(row_ids.data(), base + row_seg.offset, nrows);
  TableBinAccess::Restore(*t, std::move(row_ids), next_row_id);

  RINGO_COUNTER_ADD("table_io/load_bin", 1);
  RINGO_COUNTER_ADD("table_io/load_bin_zero_copy_cols", zero_copy_cols);
  t->PublishMemGauges();
  return t;
}

Result<TablePtr> LoadTableAuto(const Schema& schema, const std::string& path,
                               std::shared_ptr<StringPool> pool,
                               bool has_header) {
  if (std::string_view(path).ends_with(".rtb")) {
    RINGO_ASSIGN_OR_RETURN(TablePtr t, LoadTableBin(path, std::move(pool)));
    if (schema.num_columns() > 0 && !(t->schema() == schema)) {
      return Status::InvalidArgument(
          "schema mismatch for '" + path + "': file has [" +
          t->schema().ToString() + "], declared [" + schema.ToString() + "]");
    }
    return t;
  }
  return LoadTableTSV(schema, path, std::move(pool), has_header);
}

}  // namespace ringo
