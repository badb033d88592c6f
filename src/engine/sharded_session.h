#ifndef SETCOVER_ENGINE_SHARDED_SESSION_H_
#define SETCOVER_ENGINE_SHARDED_SESSION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/session.h"

namespace setcover {
namespace engine {

/// Push-style counterpart of a W-worker engine::Execute run: W
/// set-partitioned sub-Sessions behind one SessionHandle, so the
/// session server can run a W-worker pipeline without the client
/// knowing anything but OpenBody::workers.
///
/// Each ingest batch is sliced by the set-id partitioner and every
/// sub-session receives its slice under the SAME client sequence
/// number, so the exactly-once cursor advances in lockstep. Sub-session
/// w runs the algorithm at seed base+w and checkpoints to the sidecar
/// `<path>.w<w>`; after a crash the sidecars may hold different durable
/// cursors (they hit their cadence independently), so the session's
/// reported cursor is the MINIMUM over sub-sessions — the client
/// re-sends from there and workers that were already ahead absorb the
/// replay as idempotent duplicates.
///
/// Finalize merges the W local covers through the same deterministic
/// t-party protocol as the pull-side runner
/// (internal::MergeCertificates), so a sharded session's cover and
/// certificate are bit-identical to engine::Execute with
/// backend.workers = W over the concatenated stream at the same seed.
///
/// Fault schedules are rejected: sub-session positions are slice-local
/// coordinates, not stream positions, so (seed, position) fault
/// decisions would diverge from a whole-stream run. Clients that need
/// fault injection over a sharded session inject on their side of the
/// wire.
struct ShardedSessionConfig {
  /// Shared per-worker config. `options.seed` is the base seed;
  /// `checkpoint_path` the sidecar stem; `faults` must be empty.
  SessionConfig base;

  /// Worker fan-out (>= 1). 1 degenerates to a plain Session wrapped in
  /// the handle, bit-identical sidecar included.
  uint32_t workers = 1;

  /// Set-id partitioner shared with the pull-side runner.
  ShardPartitioner partitioner;

  /// Merge threshold τ override (0 = √(n·W)).
  uint32_t merge_threshold = 0;
};

class ShardedSession final : public SessionHandle {
 public:
  /// Opens (or with `resume`, recovers) the W sub-sessions. Fatal
  /// errors mirror Session::Open, plus: workers == 0, a non-shardable
  /// or unknown algorithm, or a fault schedule. Returns nullptr with
  /// *error on failure.
  static std::unique_ptr<ShardedSession> Open(
      const ShardedSessionConfig& config, bool resume, std::string* error);

  IngestResult Ingest(uint64_t sequence, std::span<const Edge> edges,
                      std::string* error) override;
  bool WriteCheckpoint(std::string* error) override;
  const RunReport& Finalize() override;
  SessionStats Stats() const override;

  uint64_t LastSequence() const override { return last_sequence_; }
  bool Resumed() const override { return resumed_; }
  bool Finalized() const override { return final_report_.has_value(); }
  const StreamMetadata& Meta() const override { return config_.base.meta; }
  const std::string& AlgorithmName() const override {
    return workers_[0]->AlgorithmName();
  }

  /// Sidecar path of sub-session w (for cleanup on close).
  static std::string SidecarPath(const std::string& stem, uint32_t worker);

 private:
  ShardedSession() = default;

  ShardedSessionConfig config_;
  std::vector<std::unique_ptr<Session>> workers_;
  uint64_t last_sequence_ = 0;
  bool resumed_ = false;

  /// Reusable per-worker slice buffers for the ingest fan-out.
  std::vector<std::vector<Edge>> slices_;

  std::optional<RunReport> final_report_;
};

}  // namespace engine
}  // namespace setcover

#endif  // SETCOVER_ENGINE_SHARDED_SESSION_H_
