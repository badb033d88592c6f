#include "stream/mmap_file.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace setcover {
namespace {

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

}  // namespace

MmapFile::~MmapFile() { Close(); }

bool MmapFile::Open(const std::string& path, std::string* error) {
  Close();
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, "cannot open " + path + ": " + std::strerror(errno));
    return false;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    SetError(error, "cannot stat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return false;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    // mmap rejects zero-length mappings; an empty file is still "open".
    ::close(fd);
    return true;
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is
  // no longer needed either way.
  ::close(fd);
  if (map == MAP_FAILED) {
    SetError(error, "cannot mmap " + path + ": " + std::strerror(errno));
    return false;
  }
  ::madvise(map, size, MADV_SEQUENTIAL);
  data_ = static_cast<const uint8_t*>(map);
  size_ = size;
  return true;
}

void MmapFile::Close() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
}

}  // namespace setcover
