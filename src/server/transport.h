#ifndef SETCOVER_SERVER_TRANSPORT_H_
#define SETCOVER_SERVER_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace setcover {
namespace server {

/// Transport seam of the session server: a bidirectional, blocking,
/// frame-oriented connection. Send/Receive move whole frame *payloads*
/// (the CRC-carrying byte vectors of protocol.h); length-prefix
/// framing is a transport detail.
///
/// Implementations:
///   - LocalEndpoint::Connect / Listen — in-process queue pair, used by
///     the tests (exact same protocol bytes, no kernel in the loop, and
///     a server "crash" is just destroying the server object).
///   - unix-domain sockets (ListenUnix / ConnectUnix) — the real thing;
///     one writev per frame (length + payload in a single syscall).
///   - same-host shared memory (ConnectShm) — two SPSC byte rings
///     (util/shm_ring.h) bootstrapped over the unix socket with
///     SCM_RIGHTS fd passing; zero syscalls on the data path.
///
/// Thread safety: both implementations serialize Send internally (a
/// frame is never torn), and Receive may run concurrently with Send or
/// Close — a server shutting down closes a connection whose thread is
/// blocked in Receive. Only one thread may Receive at a time.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Blocking send of one frame payload. False once the peer is gone.
  virtual bool Send(const std::vector<uint8_t>& payload) = 0;

  /// Blocking receive of one frame payload. False on orderly close,
  /// peer crash, or malformed framing (oversized/torn length prefix).
  virtual bool Receive(std::vector<uint8_t>* payload) = 0;

  /// Unblocks both directions; further Send/Receive fail fast.
  virtual void Close() = 0;
};

/// Accept side of a transport.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Blocks for the next inbound connection; nullptr after Shutdown
  /// (or a fatal accept error).
  virtual std::unique_ptr<Connection> Accept() = 0;

  /// Unblocks Accept and refuses future connections. Idempotent.
  virtual void Shutdown() = 0;
};

/// In-process transport endpoint: a rendezvous object shared between a
/// test's clients and the server. The server calls Listen() (again
/// after a simulated crash — exactly like rebinding a socket path);
/// clients call Connect(), which fails while no listener is up (the
/// client's reconnect backoff handles the gap, same as a real socket).
class LocalEndpoint {
 public:
  LocalEndpoint();
  ~LocalEndpoint();

  /// Current listener, replacing any previous one (whose Accept then
  /// drains to nullptr).
  std::unique_ptr<Listener> Listen();

  /// Connects to the current listener; nullptr (with *error) when none
  /// is listening.
  std::unique_ptr<Connection> Connect(std::string* error);

  /// Opaque rendezvous state (public so the .cc's listener type can
  /// name it; never part of the API).
  struct Shared;

 private:
  std::shared_ptr<Shared> shared_;
};

/// Unix-domain stream socket listener bound at `path` (an existing
/// socket file is replaced). nullptr with *error on bind failure.
///
/// Accepted connections are *hybrid*: the first bytes a client sends
/// pick the wire. A plain framed client (ConnectUnix) leads with a
/// frame's u32 length prefix; a shared-memory client (ConnectShm)
/// leads with a magic word — impossible as a length, it exceeds the
/// frame ceiling — plus two memfd ring fds over SCM_RIGHTS, after
/// which both directions move through the rings and the socket is kept
/// only as a liveness probe. The negotiation happens inside the
/// connection's first Receive, so a silent client never stalls Accept.
std::unique_ptr<Listener> ListenUnix(const std::string& path,
                                     std::string* error);

/// Connects to the unix-domain listener at `path`; frames travel over
/// the socket (u32 length + payload, sent as one writev).
std::unique_ptr<Connection> ConnectUnix(const std::string& path,
                                        std::string* error);

/// Connects to the unix-domain listener at `path` and upgrades the
/// connection to the same-host shared-memory transport: the client
/// creates two SPSC byte rings (util/shm_ring.h) of `ring_bytes` each
/// in anonymous memfds, hands them to the server over the socket
/// (SCM_RIGHTS), and waits for the server's ack. After the handshake,
/// frames move ring-to-ring with no syscalls on the data path; the
/// socket stays open purely so either side can detect peer death.
/// Ownership: each side maps both rings; the kernel frees the pages
/// when the last mapping dies, so a crash leaks nothing.
std::unique_ptr<Connection> ConnectShm(const std::string& path,
                                       size_t ring_bytes,
                                       std::string* error);

/// Default per-direction ring capacity for ConnectShm: comfortably
/// holds a full ingest window of max-size frames.
inline constexpr size_t kDefaultShmRingBytes = 8u << 20;

/// Test hook: wraps an already-connected stream fd (e.g. one end of a
/// socketpair) in the framed connection, with every read/write/writev
/// syscall capped at `max_io_bytes` bytes (0 = uncapped). The framing
/// tests use a 1-byte cap to prove Send/Receive survive frames
/// fragmented at every byte boundary in both directions.
std::unique_ptr<Connection> WrapFdForTest(int fd, size_t max_io_bytes);

}  // namespace server
}  // namespace setcover

#endif  // SETCOVER_SERVER_TRANSPORT_H_
