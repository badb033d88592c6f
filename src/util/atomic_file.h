#ifndef SETCOVER_UTIL_ATOMIC_FILE_H_
#define SETCOVER_UTIL_ATOMIC_FILE_H_

#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>

namespace setcover {

/// Replaces `path` so that it holds either its previous contents or the
/// complete new ones, never a torn mix: `write_body` writes the body into
/// a sibling `path + ".tmp"`, which is flushed, closed and only then
/// renamed over `path`. The one writer behind stream files, checkpoints
/// and session manifests.
///
/// `write_body` gets the open staging file and returns false when a
/// write fails; it may write piece by piece, so a caller never has to
/// hold the whole file in memory. On any failure — create, body, flush,
/// close or rename — the staging file is removed, `path` is untouched,
/// and the return is false with an errno-derived message in *error (when
/// non-null), e.g. "rename to /x failed: Is a directory".
///
/// The guarantee holds against a process kill. Nothing is fsync'ed, so
/// after an OS crash or power loss the rename may reach the disk before
/// the data does.
bool WriteFileAtomically(const std::string& path,
                         const std::function<bool(std::FILE*)>& write_body,
                         std::string* error);

/// Writes exactly `bytes` bytes of `data` to `file`; true for an empty
/// write (where `data` may be null).
bool WriteBytes(std::FILE* file, const void* data, size_t bytes);

}  // namespace setcover

#endif  // SETCOVER_UTIL_ATOMIC_FILE_H_
