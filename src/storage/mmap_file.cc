#include "storage/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ringo {

Result<std::shared_ptr<const MmapFile>> MmapFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open failed for '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("fstat failed for '" + path + "': " + err);
  }
  // Directories, FIFOs and devices have no mappable byte length (a FIFO
  // would map as empty); only regular files are table files.
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("'" + path + "' is not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  const uint8_t* data = nullptr;
  if (size > 0) {
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError("mmap failed for '" + path + "': " + err);
    }
    data = static_cast<const uint8_t*>(p);
  }
  // The mapping outlives the descriptor.
  ::close(fd);
  return std::shared_ptr<const MmapFile>(new MmapFile(data, size));
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

}  // namespace ringo
