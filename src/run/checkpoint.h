#ifndef SETCOVER_RUN_CHECKPOINT_H_
#define SETCOVER_RUN_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stream/stream.h"

namespace setcover {

/// One recoverable snapshot of one pipeline of a supervised run:
/// everything needed to continue a one-pass execution after a crash —
/// which algorithm was running, over which stream shape, how far the
/// source had been consumed, the algorithm's serialized state
/// (StateEncoder words, RNG included by each algorithm's EncodeState),
/// and the supervisor's own fault counters so a resumed run reports
/// totals as if uninterrupted.
struct Checkpoint {
  std::string algorithm_name;
  StreamMetadata meta;

  /// Underlying source position (EdgeSource::Position()) to SeekTo.
  uint64_t stream_position = 0;

  /// Edges actually delivered to the algorithm (>= positions consumed
  /// minus drops, plus duplicates).
  uint64_t edges_delivered = 0;

  /// Supervisor counters carried across the restart.
  uint64_t transient_retries = 0;
  uint64_t corrupt_skipped = 0;
  uint64_t faults_survived = 0;

  /// Last ingest-batch sequence number applied before this checkpoint
  /// was taken — the exactly-once cursor of the session server
  /// (src/server/): after a crash the server tells the client this
  /// value and the client re-sends from session_sequence + 1, so a
  /// retried batch is applied exactly once. 0 for single-shot engine
  /// runs.
  uint64_t session_sequence = 0;

  /// The algorithm's EncodeState words.
  std::vector<uint64_t> state_words;
};

/// The one checkpoint file of a W-way run (engine::Execute or a
/// Session at W >= 1 set-modulo shards): the W per-shard snapshots in
/// a single file, so kill-and-resume needs exactly one sidecar at every
/// W, W = 1 included.
///
/// Slots are independent: a shard that never reached its checkpoint
/// cadence before the crash has no entry (`shard_states[w] ==
/// nullopt`) and restarts its slice from the beginning; every other
/// shard resumes from its own cursor. Because each shard's execution
/// is a pure function of its slice suffix + decoded state, any
/// combination of persisted slots resumes bit-identical to the unkilled
/// run.
///
/// On-disk layout (little-endian), file magic "SCKP", version 4:
///   magic, version u32
///   shards u32
///   per shard: present u32 (0/1); when present, the slot's body:
///     name_len u32, name bytes
///     m u32, n u32, N u64
///     stream_position u64, edges_delivered u64
///     transient_retries u64, corrupt_skipped u64, faults_survived u64
///     session_sequence u64
///     state_len u64, state words (u64 each)
///   crc u32 — CRC-32C of every byte after the magic
///
/// Every other file is refused with an error that names its format and
/// version: SCKP versions 1–3 (one unslotted body under a CRC-32;
/// version 1 had no session_sequence, and version 2 holds
/// adversarial-level state without its promotion countdown word) and
/// the retired "SCSH" multi-slot format. Nothing but version 4 is ever
/// decoded.
///
/// Saves stage into `path + ".tmp"` and atomically rename, so the
/// previous valid checkpoint survives a crash mid-save; the load
/// verifies the CRC and rejects damaged or torn files instead of
/// resuming from garbage.
struct ShardedCheckpoint {
  uint32_t shards = 0;
  std::vector<std::optional<Checkpoint>> shard_states;  // size == shards
};

/// Writes the one-slot file of a single pipeline: the bytes of a
/// ShardedCheckpoint with shards = 1 holding `checkpoint`. False (with
/// *error) on I/O failure.
bool SaveCheckpoint(const Checkpoint& checkpoint, const std::string& path,
                    std::string* error);

/// Writes atomically; false (with *error) on I/O failure or when the
/// slot count does not match `shards`.
bool SaveShardedCheckpoint(const ShardedCheckpoint& checkpoint,
                           const std::string& path, std::string* error);

/// Reads and CRC-verifies; nullopt (with *error) on a missing file, a
/// refused format or version, a malformed layout, or a checksum
/// mismatch.
std::optional<ShardedCheckpoint> LoadShardedCheckpoint(
    const std::string& path, std::string* error);

}  // namespace setcover

#endif  // SETCOVER_RUN_CHECKPOINT_H_
