#ifndef SETCOVER_SERVER_SESSION_MANAGER_H_
#define SETCOVER_SERVER_SESSION_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "engine/session.h"
#include "server/protocol.h"

namespace setcover {
namespace server {

/// Owns every live ingest session, keyed by client-chosen session id,
/// and maps decoded protocol requests onto engine::Session calls.
/// Transport-agnostic: the server hands it Messages from its
/// connection threads; tests can drive it directly. OpenBody::workers becomes
/// SessionConfig::workers: one engine::Session serves any fan-out.
///
/// Durability: with a state_dir, each session persists two sidecar
/// files —
///   <state_dir>/<id>.open   the encoded kOpen frame (the manifest:
///                           exactly what the client declared)
///   <state_dir>/<id>.sckp   the engine checkpoint (state + exactly-once
///                           cursor), rewritten every checkpoint_every
///                           delivered edges and on drain; at
///                           workers > 1 it holds all W slots (SCSH)
/// A restarted manager recovers a session *on demand*, the first time
/// any op names an id it does not hold in memory: manifest -> config,
/// checkpoint -> state. A session that crashed before its first
/// checkpoint recovers at sequence 0 and the client replays from the
/// start — still exactly-once, because replayed batches walk the same
/// sequence numbers. Without a state_dir every session is volatile.
///
/// Idle eviction: EvictIdle(ttl) checkpoints and drops persistent
/// sessions that have not been touched for `ttl` (volatile sessions are
/// never evicted — dropping them would lose state the client was
/// promised). The first request that touches an evicted id gets
/// kRetryAfter(kEvicted); the retry then recovers the session from its
/// sidecars through the normal on-demand path. The server runs the
/// sweep on a background thread (ServerOptions::session_ttl).
///
/// Concurrency: a sharded-by-session two-level lock. The registry map
/// is guarded by `mutex_`, held only for lookup/insert/erase; each
/// session's work happens under its own Entry::mutex, so concurrent
/// batches for different sessions never serialize on each other.
class SessionManager {
 public:
  using Clock = std::chrono::steady_clock;

  /// `state_dir` empty => volatile sessions. The directory must exist.
  explicit SessionManager(std::string state_dir);

  /// Test seam: eviction deadlines read `clock` instead of wall time.
  SessionManager(std::string state_dir,
                 std::function<Clock::time_point()> clock);

  /// Handles one decoded request and returns the reply message
  /// (kXxxOk, kError, or kRetryAfter for the first touch of an evicted
  /// session). Thread-safe. Load-shedding kRetryAfter happens upstream
  /// in the server; by the time a request reaches the manager it has
  /// been admitted.
  Message Handle(const Message& request);

  /// Checkpoints every open session (graceful drain). Returns how many
  /// sessions were checkpointed; sessions whose write fails are counted
  /// in *failures but do not stop the sweep.
  size_t CheckpointAll(size_t* failures);

  /// Checkpoints and evicts every persistent session idle for at least
  /// `ttl`. Returns how many sessions were evicted; a session whose
  /// checkpoint write fails stays resident (never drop state that is
  /// not on disk).
  size_t EvictIdle(Clock::duration ttl);

  /// Open-session count and total delivered edges, for server-scope
  /// stats.
  uint64_t OpenSessions() const;
  uint64_t TotalEdgesDelivered() const;

 private:
  struct Entry {
    std::mutex mutex;
    std::unique_ptr<engine::Session> session;
    /// Last Handle() that named this session, under the eviction clock.
    Clock::time_point last_touch;
  };

  std::string CheckpointPath(uint64_t id) const;
  std::string ManifestPath(uint64_t id) const;
  void RemoveSidecars(uint64_t id) const;

  /// Finds the entry for `id`, recovering it from the manifest when the
  /// manager does not hold it in memory. nullptr with *error when the
  /// id is unknown (no memory entry, no manifest).
  std::shared_ptr<Entry> FindOrRecover(uint64_t id, std::string* error);

  /// Builds a session from an OpenBody (fresh or resumed).
  std::unique_ptr<engine::Session> BuildSession(uint64_t id,
                                                const OpenBody& open,
                                                bool resume,
                                                std::string* error);

  /// One-shot kRetryAfter gate for evicted ids; nullopt admits the
  /// request. Caller holds mutex_.
  std::optional<Message> EvictionGateLocked(uint64_t id);

  Message HandleOpen(const Message& request);
  Message HandleClose(const Message& request);

  std::string state_dir_;
  std::function<Clock::time_point()> clock_;
  mutable std::mutex mutex_;
  std::map<uint64_t, std::shared_ptr<Entry>> sessions_;
  /// Ids evicted by EvictIdle whose next touch should be told to retry
  /// (one kRetryAfter, then normal recovery).
  std::set<uint64_t> evicted_;
};

}  // namespace server
}  // namespace setcover

#endif  // SETCOVER_SERVER_SESSION_MANAGER_H_
