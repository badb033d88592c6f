#ifndef SETCOVER_RUN_CHECKPOINT_H_
#define SETCOVER_RUN_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stream/stream.h"

namespace setcover {

/// One recoverable snapshot of a supervised run: everything needed to
/// continue a one-pass execution after a crash — which algorithm was
/// running, over which stream shape, how far the source had been
/// consumed, the algorithm's serialized state (StateEncoder words, RNG
/// included by each algorithm's EncodeState), and the supervisor's own
/// fault counters so a resumed run reports totals as if uninterrupted.
///
/// On-disk layout (little-endian), file magic "SCKP", version 3:
///   magic, version u32
///   name_len u32, name bytes
///   m u32, n u32, N u64
///   stream_position u64, edges_delivered u64
///   transient_retries u64, corrupt_skipped u64, faults_survived u64
///   session_sequence u64
///   state_len u64, state words (u64 each)
///   crc u32 — CRC-32 of every byte after the magic
///
/// Any other version is refused with an error naming the version:
/// version 1 files had no session_sequence field, and version 2 files
/// hold adversarial-level state without its promotion countdown word.
/// No version 1 or 2 file is ever decoded as version 3 state.
///
/// SaveCheckpoint stages into `path + ".tmp"` and atomically renames, so
/// the previous valid checkpoint survives a crash mid-save; Load
/// verifies the CRC and rejects damaged or torn files instead of
/// resuming from garbage.
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

/// Writes atomically; false (with *error) on I/O failure.
bool SaveCheckpoint(const Checkpoint& checkpoint, const std::string& path,
                    std::string* error);

/// Reads and CRC-verifies; nullopt (with *error) on a missing file,
/// malformed layout, or checksum mismatch.
std::optional<Checkpoint> LoadCheckpoint(const std::string& path,
                                         std::string* error);

/// One recoverable snapshot of a *sharded* run (engine::Execute with
/// backend.workers = W > 1): the W per-shard cursors + algorithm states
/// aggregated into a single file, so kill-and-resume of a W-way run
/// needs exactly one sidecar — same contract as the single-run
/// Checkpoint, W slots wide.
///
/// Slots are independent: a shard that never reached its checkpoint
/// cadence before the crash has no entry (`shard_states[w] ==
/// nullopt`) and restarts its slice from the beginning; every other
/// shard resumes from its own cursor. Because each shard's execution
/// is a pure function of its slice suffix + decoded state, any
/// combination of persisted slots resumes bit-identical to the unkilled
/// run.
///
/// On-disk layout (little-endian), file magic "SCSH", version 2 (its
/// slots hold SCKP version 3 bodies; version 1 files are refused):
///   magic, version u32
///   shards u32
///   partitioner_len u32, partitioner name bytes
///   per shard: present u32 (0/1); when present, the slot's Checkpoint
///     in exactly the byte layout of the single-run format's body
///     (name through state words)
///   crc u32 — CRC-32 of every byte after the magic
///
/// SaveShardedCheckpoint stages into `path + ".tmp"` and atomically
/// renames; LoadShardedCheckpoint CRC-verifies and rejects damage.
struct ShardedCheckpoint {
  uint32_t shards = 0;
  /// ShardPartitioner::name the run was partitioned with; resuming
  /// under a different partitioner is refused (the cursors would replay
  /// the wrong slices).
  std::string partitioner;
  std::vector<std::optional<Checkpoint>> shard_states;  // size == shards
};

bool SaveShardedCheckpoint(const ShardedCheckpoint& checkpoint,
                           const std::string& path, std::string* error);

std::optional<ShardedCheckpoint> LoadShardedCheckpoint(
    const std::string& path, std::string* error);

}  // namespace setcover

#endif  // SETCOVER_RUN_CHECKPOINT_H_
