#ifndef SETCOVER_ENGINE_SESSION_H_
#define SETCOVER_ENGINE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/pump.h"

namespace setcover {
namespace engine {

/// Incremental (push-style) execution: the long-lived counterpart of
/// the single-shot Execute()/Drive() pull loop, built for the session
/// server (src/server/) where edges arrive over a transport in
/// client-sized batches instead of being pulled from a source the
/// engine owns.
///
/// A Session is W >= 1 engine pipelines kept alive across calls — the
/// push-side mirror of Execute() with backend.workers = W — plus the
/// exactly-once cursor and the absolute stream position:
///
///   open (fresh or resumed from checkpoint)
///     -> Ingest(seq 1, edges) -> Ingest(seq 2, edges) -> ...
///     -> Finalize() -> report
///
/// Equivalence contract: for the same (algorithm, seed, W, fault
/// schedule, concatenated edges), a Session produces the bit-identical
/// cover, certificate, and meter readings of engine::Execute over the
/// whole stream at the same W — at ANY ingest batch sizing, because
/// ProcessEdgeBatch makes batching observationally invisible and fault
/// decisions are a pure function of (seed, absolute position).
/// tests/engine_session_test.cc pins this for every registered
/// algorithm.
///
/// Exactly-once ingest: every batch carries a client-assigned sequence
/// number, 1-based and contiguous. A batch at or below the last applied
/// sequence is acknowledged without re-applying (idempotent retry); a
/// gap is rejected. The sequence is persisted inside the checkpoint
/// (Checkpoint::session_sequence), so after a crash the server reports
/// the durable cursor and the client re-sends from there — a batch is
/// applied exactly once no matter how often the transport duplicated it.
struct SessionConfig {
  /// Algorithm by registry name (the server never holds instances).
  std::string algorithm;
  AlgorithmOptions options;

  /// Stream shape declared up front (OpenSession carries it).
  StreamMetadata meta;

  /// Deterministic per-session stream damage, applied to ingested
  /// batches by absolute stream position — identical to handing the
  /// schedule to engine::Execute over the concatenated stream. Refused
  /// at W > 1.
  std::optional<FaultSchedule> faults;

  /// Sidecar checkpoint file; empty = volatile session (a crash loses
  /// it and the client replays from scratch). One file holding all W
  /// slots at one cursor, at every W (run/checkpoint.h).
  std::string checkpoint_path;

  /// Write a checkpoint whenever at least this many edges were
  /// delivered since the last one, at ingest-batch boundaries.
  /// 0 disables periodic checkpoints (explicit WriteCheckpoint() still
  /// works when a path is set).
  uint64_t checkpoint_every = 0;

  /// Retry budget for transient read faults (mirrors Drive()).
  BackoffPolicy backoff;

  /// Worker fan-out W; 0 and 1 both run one pipeline. At W > 1 each
  /// batch is split by set id (set-modulo), pipeline w runs at seed
  /// `options.seed + w`, and Finalize merges the W covers through the
  /// deterministic t-party protocol (paper §3) — bit-identical to
  /// engine::Execute with backend.workers = W. W > 1 needs a shardable
  /// algorithm and no fault schedule.
  uint32_t workers = 0;
};

enum class IngestStatus {
  kApplied,     // batch consumed, state advanced
  kDuplicate,   // sequence already applied; acknowledged, not re-applied
  kOutOfOrder,  // gap in the sequence; client must back-fill first
  kFailed,      // refused (finalized session, retry budget exhausted,
                // I/O, an edge outside m x n)
};

struct IngestResult {
  IngestStatus status = IngestStatus::kFailed;
  /// The session's durable cursor after the call.
  uint64_t last_sequence = 0;
  /// Checkpoints written by this call (0 or 1).
  uint64_t checkpoints_written = 0;
};

/// Per-session observability, exported through the server's Stats op.
/// The stage timings mirror engine::StageStats: setup (open/resume),
/// stream (sum of Ingest calls), finalize.
struct SessionStats {
  uint64_t edges_delivered = 0;
  uint64_t batches = 0;           // ProcessEdgeBatch calls issued
  uint64_t ingest_calls = 0;      // client batches applied
  uint64_t duplicate_ingests = 0; // retries deduplicated
  uint64_t checkpoints_written = 0;
  uint64_t transient_retries = 0;
  uint64_t corrupt_records_skipped = 0;
  uint64_t faults_survived = 0;
  uint64_t last_sequence = 0;
  bool resumed = false;
  bool finalized = false;
  bool degraded = false;
  double setup_seconds = 0.0;
  double stream_seconds = 0.0;
  double finalize_seconds = 0.0;
  size_t peak_words = 0;
  size_t current_words = 0;
};

class Session {
 public:
  /// Opens a session. With `resume` set and a loadable checkpoint at
  /// config.checkpoint_path, restores algorithm state, position,
  /// counters, and the exactly-once cursor from it; with `resume` set
  /// and NO checkpoint file, starts fresh (a crash before the first
  /// checkpoint is indistinguishable from never having started). A
  /// checkpoint that exists but fails to load, or does not match the
  /// configured algorithm/shape/W, is a fatal error — never a silent
  /// restart. Returns nullptr with *error on failure.
  static std::unique_ptr<Session> Open(const SessionConfig& config,
                                       bool resume, std::string* error);

  /// Applies one ingest batch (see the exactly-once contract above).
  /// On kFailed, *error describes the failure and no state advanced
  /// unless the failure was a checkpoint write after a successful
  /// apply (then last_sequence reflects the applied batch). A batch
  /// with an edge outside the session's m × n (set ≥ m or element ≥ n)
  /// is refused whole: kFailed, an error naming the edge, and no pump
  /// sees any of it.
  IngestResult Ingest(uint64_t sequence, std::span<const Edge> edges,
                      std::string* error);

  /// Writes a checkpoint now (requires a configured path). True on
  /// success; also true (without writing) for volatile sessions so
  /// callers can checkpoint-all unconditionally on drain.
  bool WriteCheckpoint(std::string* error);

  /// Ends the stream: finalizes the W pipelines (merging them at
  /// W > 1) into a RunReport (cover, certificate, meter, fault
  /// counters, stage timings). Idempotent — repeated calls (a client
  /// retrying a lost Finalize reply) return the cached report without
  /// re-finalizing.
  const RunReport& Finalize();

  /// Point-in-time counters; cheap, no algorithm work.
  SessionStats Stats() const;

  uint64_t LastSequence() const { return last_sequence_; }
  bool Resumed() const { return pumps_[0].report().resumed; }
  bool Finalized() const { return final_report_.has_value(); }
  const StreamMetadata& Meta() const { return config_.meta; }
  const std::string& AlgorithmName() const {
    return pumps_[0].report().algorithm_name;
  }

 private:
  Session() = default;

  uint64_t EdgesDelivered() const;

  /// The W = 1 fault path: pass the batch through a fault injector
  /// anchored at the absolute position. False with *error when the
  /// retry budget runs out.
  bool FeedWithFaults(std::span<const Edge> edges, std::string* error);

  SessionConfig config_;

  /// The W pipelines; each report holds that pipeline's counters.
  std::vector<internal::Pump> pumps_;

  /// Absolute underlying-record position — the coordinate fault
  /// decisions and checkpoints are keyed on.
  uint64_t position_ = 0;
  uint64_t last_sequence_ = 0;
  uint64_t delivered_at_last_checkpoint_ = 0;
  uint64_t ingest_calls_ = 0;
  uint64_t duplicate_ingests_ = 0;

  /// Reusable per-pipeline batch buffers: the set-id split at W > 1,
  /// the post-fault delivery at W = 1 (duplicates can make it slightly
  /// larger than the incoming batch).
  std::vector<std::vector<Edge>> slices_;

  std::optional<RunReport> final_report_;
};

}  // namespace engine
}  // namespace setcover

#endif  // SETCOVER_ENGINE_SESSION_H_
