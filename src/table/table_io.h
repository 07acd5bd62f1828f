// Table input/output: the paper's TSV front-end (LoadTableTSV, DESIGN.md
// §15) and the .rtb binary table format (DESIGN.md §14) — an mmap-able
// container with a fixed header, a per-column segment directory and
// CRC-32 checksums on header, directory and every segment. Encoded columns
// (dictionary / frame-of-reference, column_encoding.h) are stored as their
// packed code stream and loaded zero-copy: the column borrows the mapped
// bytes and the mapping stays alive while any column references it.
#ifndef RINGO_TABLE_TABLE_IO_H_
#define RINGO_TABLE_TABLE_IO_H_

#include <memory>
#include <string>

#include "table/table.h"

namespace ringo {

// Loads a tab-separated file into a table with the given schema. Lines end
// at '\n' and lose one trailing '\r'. Lines starting with '#' and empty
// lines are skipped; with `has_header` the first non-blank line is
// consumed as the header — even when it is '#'-prefixed (the
// "# col1<TAB>col2" commented-header export format), so the first data row
// is never mistaken for a header. Every field must parse whole as its
// column's type (ParseInt64 / ParseDouble); strings are taken verbatim.
//
// The file is memory-mapped and cut into newline-aligned chunks, a few per
// thread. One parallel pass counts each chunk's lines and rows, so every
// column is sized once; a second parses each chunk in place into its own
// row range, giving strings chunk-local ids from one dictionary per chunk.
// The dictionaries are then interned into the pool back to back in file
// order, as one batch under one lock, and the local ids remapped. Pool ids
// therefore follow row-major first occurrence at every thread count, and a
// failed load interns nothing.
//
// Malformed input is InvalidArgument naming the 1-based physical file line
// (header, comment and blank lines count): "line N: expected K fields, got
// M" or "line N, column 'Name': cannot parse integer: '...'". When several
// lines are bad, the first in file order is reported. A path that is not
// a regular file (a directory, a FIFO) is IOError. The file must not
// shrink while it loads: like LoadTableBin, the loader reads through a
// mapping, and a file truncated by another process mid-load can fault
// (SIGBUS).
Result<TablePtr> LoadTableTSV(const Schema& schema, const std::string& path,
                              std::shared_ptr<StringPool> pool = nullptr,
                              bool has_header = false);

// Writes the table as TSV; optionally with a header row of column names.
Status SaveTableTSV(const Table& t, const std::string& path,
                    bool write_header = false);

// Writes the table in the .rtb binary format. Plain int/float columns are
// stored as raw little-endian 8-byte values (floats keep their exact bit
// pattern, including NaN payloads and signed zeros); encoded columns store
// their packed code stream + dictionary; string columns always store a
// dictionary of bytes (pool ids are process-local and never hit disk).
Status SaveTableBin(const Table& t, const std::string& path);

// Maps an .rtb file and reconstructs the table (schema comes from the
// file). Header, directory and segment checksums are verified; any
// mismatch or truncation yields Status::Corruption. Segment checksums are
// computed over fixed blocks in parallel and joined with Crc32Combine,
// and dictionary code ranges are checked with a parallel max. Dictionary /
// FOR columns come back *encoded*, borrowing their code stream straight
// from the mapping (zero copy); the mapping is released once no column
// references it, and the file must not shrink meanwhile (reads through a
// truncated mapping fault).
Result<TablePtr> LoadTableBin(const std::string& path,
                              std::shared_ptr<StringPool> pool = nullptr);

// Extension dispatch for the query front-end's `load`: paths ending in
// ".rtb" go through LoadTableBin (and, when `schema` is non-empty, must
// match it exactly); everything else parses as TSV with `schema`.
Result<TablePtr> LoadTableAuto(const Schema& schema, const std::string& path,
                               std::shared_ptr<StringPool> pool = nullptr,
                               bool has_header = false);

}  // namespace ringo

#endif  // RINGO_TABLE_TABLE_IO_H_
