#ifndef SETCOVER_UTIL_EINTR_H_
#define SETCOVER_UTIL_EINTR_H_

#include <cerrno>

namespace setcover {

// Retries a syscall expression while it fails with EINTR.
//
// The server's transport loops run in processes that field signals:
// operators send SIGTERM for graceful drain, and an embedding process
// may install handlers of its own. Any blocking read/write/accept in
// flight when a signal lands returns -1 with errno == EINTR; without a
// retry wrapper that surfaces as a spurious transport error and tears
// down a healthy connection.
//
// Usage:
//   ssize_t n = RetryEintr([&] { return ::read(fd, buf, len); });
//
// The callable is invoked at least once and re-invoked while it returns
// a negative value with errno == EINTR. Any other result (success,
// zero/EOF, or a real error) is returned unchanged, with errno intact.
template <typename Call>
auto RetryEintr(Call&& call) -> decltype(call()) {
  for (;;) {
    const auto result = call();
    if (result >= 0 || errno != EINTR) return result;
  }
}

}  // namespace setcover

#endif  // SETCOVER_UTIL_EINTR_H_
