// Read-only memory-mapped file handle. The .rtb loader maps the whole
// table file and hands encoded columns zero-copy views into it; the
// mapping stays alive as long as any column still borrows from it
// (shared_ptr ownership, DESIGN.md §14). The TSV loader maps its input and
// parses it in place.
#ifndef RINGO_STORAGE_MMAP_FILE_H_
#define RINGO_STORAGE_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "util/result.h"

namespace ringo {

class MmapFile {
 public:
  // Maps `path` read-only (PROT_READ, MAP_PRIVATE). Empty files map to a
  // null span with size 0. Anything that is not a regular file (a
  // directory, FIFO or device) is an IOError.
  static Result<std::shared_ptr<const MmapFile>> Open(const std::string& path);

  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MmapFile(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace ringo

#endif  // RINGO_STORAGE_MMAP_FILE_H_
