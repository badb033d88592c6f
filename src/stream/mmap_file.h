#ifndef SETCOVER_STREAM_MMAP_FILE_H_
#define SETCOVER_STREAM_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace setcover {

/// Read-only memory mapping of a whole file — how StreamFileReader
/// reads every stream file. The file's pages are mapped directly (the
/// page cache is the buffer; nothing is copied until the reader
/// dereferences it), so replaying a stream file costs no read()/memcpy
/// per chunk. There is no fallback: a file that cannot be mapped is an
/// open error.
///
/// The mapping is immutable and survives until Close()/destruction, so
/// any number of threads may read through data() concurrently — the
/// property the prefetch decoder relies on to decode chunk k+1 while
/// the algorithm thread still holds spans into chunk k.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only. Returns false with an errno-derived message
  /// in *error (if non-null) when the file cannot be opened, stat'ed,
  /// or mapped. A zero-length file opens successfully with size() == 0.
  bool Open(const std::string& path, std::string* error);

  /// Unmaps; safe to call repeatedly.
  void Close();

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace setcover

#endif  // SETCOVER_STREAM_MMAP_FILE_H_
