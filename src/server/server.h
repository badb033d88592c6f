#ifndef SETCOVER_SERVER_SERVER_H_
#define SETCOVER_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "server/session_manager.h"
#include "server/transport.h"

namespace setcover {
namespace server {

struct ServerOptions {
  /// Requests executing at once (0 means 1). Each runs on the thread of
  /// the connection it arrived on; this bounds how many of those
  /// threads are inside the SessionManager together.
  size_t worker_threads = 2;

  /// Admitted requests that may wait for a free execution slot (0 means
  /// 1). A request arriving while this many already wait is shed with
  /// kRetryAfter(kOverloaded) instead of queueing unboundedly.
  size_t max_queue = 64;

  /// Delay hint carried in kRetryAfter replies. Clients treat it as the
  /// base of their jittered backoff, not a promise.
  uint64_t retry_after_us = 500;

  /// Session durability directory (manifests + checkpoints). Must
  /// exist. Empty => volatile sessions.
  std::string state_dir;

  /// Idle-session TTL: a persistent session untouched for this many
  /// microseconds is checkpointed and evicted from memory (the first
  /// re-touch gets kRetryAfter(kEvicted); the retry recovers it from
  /// its sidecars). 0 disables eviction. Volatile sessions are never
  /// evicted.
  uint64_t session_ttl_us = 0;

  /// How often the eviction sweep runs; only meaningful with a TTL.
  uint64_t eviction_sweep_us = 50'000;
};

/// Point-in-time server counters (the kStats/session_id=0 reply).
struct ServerStats {
  uint64_t open_sessions = 0;
  uint64_t frames_received = 0;
  uint64_t sheds = 0;
  uint64_t total_edges_delivered = 0;
};

/// The long-lived session server: accepts connections from a Listener
/// and serves each connection's requests on that connection's own
/// thread, over the SessionManager.
///
/// Life cycle:
///   Start()        spawn the accept loop; serve until stopped.
///   DrainAndStop() graceful: stop admitting work (admitted requests
///                  finish and reply, new ones get
///                  kRetryAfter(kDraining)), checkpoint every open
///                  session, close connections. What SIGTERM triggers.
///   Abort()        crash simulation: tear down without the final
///                  checkpoint sweep — only periodic checkpoints
///                  survive, exactly like kill -9. The soak test runs
///                  this mid-traffic and proves resumed sessions finish
///                  bit-identically.
///
/// Threading: one accept thread, and one thread per live connection
/// that does a request's whole life: blocking Receive, decode,
/// admission, SessionManager::Handle, encode, Send. A connection
/// therefore holds at most one admitted request, and its requests are
/// answered in arrival order by construction; the frames a pipelining
/// client sends behind it wait in the transport (socket buffer or shm
/// ring). Admission bounds the connections competing for the manager:
/// at most options.worker_threads execute at once, at most
/// options.max_queue wait for a slot, and a request beyond both is shed
/// with kRetryAfter(kOverloaded). No thread ever waits for another
/// thread's reply.
class SessionServer {
 public:
  SessionServer(ServerOptions options, std::unique_ptr<Listener> listener);

  /// Abort()s if the server is still running.
  ~SessionServer();

  void Start();
  void DrainAndStop();
  void Abort();

  ServerStats Stats() const;

 private:
  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> connection);
  void StopInternal(bool drain);

  /// Takes an execution slot, waiting for one if the waiters are not
  /// yet full. False, with *refused set, when the request is shed or
  /// the server is draining.
  bool Admit(RetryReason* refused);
  void Release();

  ServerOptions options_;
  std::unique_ptr<Listener> listener_;
  SessionManager manager_;

  // Admission state. The draining flag lives under the same mutex, so
  // once the drain has seen "none running, none waiting", no request
  // can be admitted behind its back.
  std::mutex admission_mutex_;
  std::condition_variable admission_cv_;
  const size_t max_running_;
  const size_t max_waiting_;
  size_t running_ = 0;
  size_t waiting_ = 0;
  bool draining_ = false;

  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> sheds_{0};

  std::mutex threads_mutex_;
  std::thread accept_thread_;
  std::thread eviction_thread_;
  std::condition_variable eviction_cv_;
  std::mutex eviction_mutex_;
  // Live connections, and the threads serving every connection not yet
  // joined. A loop whose peer is gone drops its connection at once (its
  // fd and any shm rings go with it) and parks its thread id in
  // finished_threads_ for the accept loop to join.
  std::vector<std::thread> connection_threads_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread::id> finished_threads_;
};

}  // namespace server
}  // namespace setcover

#endif  // SETCOVER_SERVER_SERVER_H_
