#include "util/atomic_file.h"

#include <cerrno>
#include <cstring>

namespace setcover {
namespace {

/// Stores "<what>: <strerror(errno)>" in *error, when non-null.
void FailErrno(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

}  // namespace

bool WriteFileAtomically(const std::string& path,
                         const std::function<bool(std::FILE*)>& write_body,
                         std::string* error) {
  const std::string temp = path + ".tmp";
  std::FILE* f = std::fopen(temp.c_str(), "wb");
  if (f == nullptr) {
    FailErrno(error, "cannot create " + temp);
    return false;
  }
  bool ok = write_body(f);
  if (!ok) FailErrno(error, "write to " + temp + " failed");
  if (std::fflush(f) != 0 && ok) {
    FailErrno(error, "flush of " + temp + " failed");
    ok = false;
  }
  // A failed close can lose buffered bytes: never rename its file into
  // place.
  if (std::fclose(f) != 0 && ok) {
    FailErrno(error, "close of " + temp + " failed");
    ok = false;
  }
  if (ok && std::rename(temp.c_str(), path.c_str()) != 0) {
    FailErrno(error, "rename to " + path + " failed");
    ok = false;
  }
  if (!ok) std::remove(temp.c_str());
  return ok;
}

bool WriteBytes(std::FILE* file, const void* data, size_t bytes) {
  if (bytes == 0) return true;  // fwrite(nullptr, ...) is UB even for 0
  return std::fwrite(data, 1, bytes, file) == bytes;
}

}  // namespace setcover
