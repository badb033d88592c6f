#ifndef SETCOVER_ENGINE_ENGINE_H_
#define SETCOVER_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/streaming_algorithm.h"
#include "instance/validator.h"
#include "run/checkpoint.h"
#include "stream/edge_source.h"
#include "stream/fault_injector.h"
#include "stream/schedule.h"
#include "stream/stream_file.h"
#include "util/backoff.h"

namespace setcover {
namespace engine {

/// The execution engine: every way this repository drives an edge
/// stream through a streaming algorithm goes through here. A run is
/// described declaratively by a RunConfig — algorithm, source, fault
/// injection, checkpointing, batching, validation, worker count — and
/// Execute() assembles W >= 1 set-partitioned pipelines
///
///   source -> schedule -> fault injector -> shard filter -> batcher
///          -> algorithm -> finalize
///
/// merges their covers through the paper's §3 deterministic t-party
/// protocol when W > 1, validates, and returns one unified RunReport.
/// At W = 1 there is no filter, no thread pool and no merge: the one
/// pipeline runs on the calling thread. BestOfRuns, the bench
/// harnesses, RunStreamFromFile, and the CLI are all thin clients of
/// this seam (docs/architecture.md has the layer diagram); the only
/// drive loop outside src/engine/ is the header-inline RunStream in
/// core/streaming_algorithm.h, kept as the reference primitive that
/// tests/engine_equivalence_test.cc pins the engine against.
///
/// Equivalence contract: for the same (algorithm, seed, edges), every
/// engine path produces bit-identical covers, certificates, meter
/// readings, and checkpoint bytes to the RunStream reference loop —
/// enforced by tests/engine_equivalence_test.cc for every registered
/// algorithm.

/// Where a run's edges come from. Exactly one of `stream` (an in-memory
/// materialized stream) or `path` (a binary stream file, format v1/v2/
/// v3 auto-detected) must be set; `read_options` tunes the file
/// backends (mmap on/off, background prefetch decoding on/off).
struct SourceSpec {
  const EdgeStream* stream = nullptr;
  std::string path;
  StreamReadOptions read_options;

  /// Stream schedule layered over the raw source: k repeated passes
  /// (multi-pass algorithms), or a sliding-window replay feed
  /// (duplicate-heavy arrival simulation). The default is the trivial
  /// one-pass schedule. Non-trivial schedules run supervised; windowed
  /// schedules are not checkpointable. See stream/schedule.h.
  ScheduleSpec schedule;

  static SourceSpec InMemory(const EdgeStream& stream) {
    SourceSpec spec;
    spec.stream = &stream;
    return spec;
  }
  static SourceSpec File(std::string file_path,
                         StreamReadOptions options = {}) {
    SourceSpec spec;
    spec.path = std::move(file_path);
    spec.read_options = options;
    return spec;
  }
};

/// Crash tolerance for one run. `path` names the sidecar checkpoint
/// file; a checkpoint is written every `every` delivered edges (at
/// record boundaries only). With `resume`, the run restores from `path`
/// instead of starting fresh — the checkpoint must load, CRC-verify,
/// match the algorithm and stream shape, and decode; anything less is a
/// fatal error, never a silent restart.
struct CheckpointSpec {
  std::string path;
  uint64_t every = 0;
  bool resume = false;
};

/// Built-in observability: wall-clock per pipeline stage, process CPU
/// for the whole run, and how many batches the batcher flushed. Stage
/// boundaries are coarse on purpose — per-edge timing would perturb the
/// hot loop the engine exists to keep fast.
struct StageStats {
  double setup_seconds = 0.0;     // source open + algorithm resolve/resume
  double stream_seconds = 0.0;    // source -> batcher -> algorithm loop
  double finalize_seconds = 0.0;  // Finalize(): cover + certificate
  double validate_seconds = 0.0;  // certificate validation (when enabled)
  double total_seconds = 0.0;     // Execute() entry to exit
  double cpu_seconds = 0.0;       // process CPU consumed during the run
  uint64_t batches = 0;           // ProcessEdgeBatch calls issued
};

/// Everything a caller learns from an engine run: supervision counters,
/// per-stage observability, the resolved algorithm identity, meter
/// totals, per-shard accounting, and the validation verdict.
struct RunReport {
  /// Valid only when `completed`.
  CoverSolution solution;

  /// The run reached Finalize(). False after a simulated kill
  /// (stop_after) or a fatal error (see `error`).
  bool completed = false;

  /// This run restored state from a checkpoint, at this stream
  /// position. At W > 1 every shard's position indexes the whole
  /// stream, and this is the earliest of them (shards that started
  /// fresh count as 0); for a Session it is the cursor.
  bool resumed = false;
  uint64_t resumed_at = 0;

  /// Totals across the whole logical run (carried over a resume).
  uint64_t edges_delivered = 0;
  uint64_t checkpoints_written = 0;
  uint64_t transient_retries = 0;
  uint64_t corrupt_records_skipped = 0;
  uint64_t faults_survived = 0;

  /// The run could not consume the full stream (retry budget exhausted
  /// or truncated input) and the cover may be partial; the certificate
  /// still certifies exactly which elements are covered.
  bool degraded = false;
  uint64_t uncovered_elements = 0;

  /// Non-empty on fatal failure (unknown algorithm, unreadable source,
  /// unreadable/corrupt/mismatched checkpoint, undecodable state,
  /// checkpoint write failure).
  std::string error;

  /// Name() of the algorithm that ran (empty when resolution failed).
  std::string algorithm_name;

  /// Space accounting at the end of the run, from the algorithm's
  /// MemoryMeter.
  size_t peak_words = 0;
  size_t current_words = 0;
  std::string meter_breakdown;

  /// Per-stage counters and timings.
  StageStats stages;

  /// Per-shard accounting of an Execute() run or a finalized Session:
  /// `shards` is its worker count W (1 for a single pipeline). The
  /// merge fields stay zero at W = 1, where no merge runs. Drive()
  /// leaves the struct untouched (shards == 0).
  struct ShardStats {
    uint32_t shards = 0;

    /// Threshold τ the merge ran threshold-greedy at (√(n·W) unless
    /// overridden).
    uint32_t merge_threshold = 0;

    /// Largest per-party message of the merge protocol, in words,
    /// against the Õ(n) bound it must stay under (paper §3: coverage
    /// bitmap + first-seen table + threshold picks, where each pick
    /// covers ≥ τ new elements so at most ⌈n/τ⌉ fit in one message).
    uint64_t max_message_words = 0;
    uint64_t message_words_bound = 0;

    /// Merge outcome split: candidate sets taken by threshold-greedy
    /// vs. added by the final patching scan.
    uint64_t threshold_sets = 0;
    uint64_t patched_sets = 0;

    /// Wall-clock of the merge stage alone.
    double merge_seconds = 0.0;

    /// Per-shard observability, indexed by shard (size == shards).
    std::vector<uint64_t> shard_edges;
    std::vector<uint64_t> shard_cover_sizes;
    std::vector<size_t> shard_peak_words;
    std::vector<double> shard_stream_seconds;
  };
  ShardStats sharded;

  /// Certificate validation verdict; meaningful only when `validated`
  /// (RunConfig::validate was set and the run completed).
  bool validated = false;
  ValidationResult validation;
};

/// Knobs of the supervised drive loop.
struct DriveOptions {
  /// Sidecar checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;

  /// Write a checkpoint every this many delivered edges (at record
  /// boundaries only — never while the source holds pending replay
  /// state). 0 disables periodic checkpoints even with a path set.
  uint64_t checkpoint_every = 0;

  /// Resume from `checkpoint_path` instead of starting fresh.
  bool resume = false;

  /// Resume from this already-loaded checkpoint instead of reading
  /// `checkpoint_path` (which may then be empty). Execute() uses this
  /// to hand each shard its slot out of the aggregate "SCSH" file. Not
  /// owned; must outlive the call. Implies `resume`.
  const Checkpoint* resume_from = nullptr;

  /// When set, replaces SaveCheckpoint as the destination of periodic
  /// checkpoints — Execute() installs a sink that folds the shard's
  /// snapshot into the aggregate file. Return false (with
  /// *error) to fail the run like a checkpoint write failure.
  std::function<bool(const Checkpoint&, std::string*)> checkpoint_sink;

  /// Retry budget for transient read faults.
  BackoffPolicy backoff;

  /// Called with each backoff delay in microseconds. Defaults to not
  /// sleeping, which keeps tests and simulations instant; the CLI
  /// installs a real sleep.
  std::function<void(uint64_t)> sleeper;

  /// Simulated kill switch: stop (without finalizing) once this many
  /// edges have been delivered this run. 0 disables.
  uint64_t stop_after = 0;

  /// Edges per ProcessEdgeBatch flush. Checkpoint positions, the
  /// stop_after kill point, and end-of-stream always fall exactly on a
  /// flush, so reports and algorithm state are bit-identical at any
  /// batch size (the batch/per-edge contract of ProcessEdgeBatch).
  size_t batch_edges = kIngestBatchEdges;
};

/// Low-level entry point: drives `algorithm` over a caller-assembled
/// `source` to completion under full supervision — periodic CRC'd
/// checkpoints, crash resume with bit-identical continuation, bounded
/// retries on transient faults, skip-and-count on corrupt records, and
/// graceful degradation to a certified partial cover when the stream
/// cannot be fully consumed.
RunReport Drive(const DriveOptions& options,
                StreamingSetCoverAlgorithm& algorithm, EdgeSource& source);

/// The partitioner seam: maps a set id to its owning shard in [0, W).
/// Must be a pure function — it runs in every shard's hot loop and its
/// verdicts must agree across shards and across resume. The name is
/// recorded in sharded checkpoints; resuming under a different
/// partitioner is refused.
struct ShardPartitioner {
  std::string name = "set-mod";
  /// nullptr means the built-in set-modulo rule (set_id % shards),
  /// which the hot paths inline (bit-mask for power-of-two W) instead
  /// of paying a std::function call per edge.
  std::function<uint32_t(SetId, uint32_t shards)> index;
};

/// The default partitioner, spelled out.
inline ShardPartitioner SetModuloPartitioner() { return ShardPartitioner{}; }

/// How many set-partitioned pipelines a RunConfig runs on, and how they
/// fan out and merge.
struct BackendSpec {
  /// "" or "sharded": W = max(1, workers) pipelines. "inprocess": one
  /// pipeline, whatever `workers` says. Any other name is refused.
  std::string name;

  /// Worker fan-out W; 0 and 1 both run the single pipeline.
  uint32_t workers = 0;

  /// Set-id partitioner of a W > 1 run.
  ShardPartitioner partitioner = SetModuloPartitioner();

  /// Thread-pool width of a W > 1 run; 0 = one thread per shard.
  /// Results are bit-identical at any value.
  size_t threads = 0;

  /// Merge threshold τ override; 0 = the protocol's √(n·W) default.
  uint32_t merge_threshold = 0;
};

/// One declarative run description, consumed by Execute().
struct RunConfig {
  /// Algorithm to run, by registry name. Ignored when
  /// `algorithm_instance` is set. Unknown names fail with the
  /// registry's unknown-algorithm diagnostic (names + suggestion).
  std::string algorithm;
  AlgorithmOptions options;

  /// Pre-built algorithm to drive instead of a registry name — for
  /// callers that need non-registry parameterizations (bench rows) or
  /// want to inspect the object afterwards. Not owned; must outlive the
  /// call. Single-pipeline runs only: W > 1 needs one instance per
  /// shard, so it takes a registry name.
  StreamingSetCoverAlgorithm* algorithm_instance = nullptr;

  /// Where the edges come from.
  SourceSpec source;

  /// Deterministic stream damage layered over the source (transient /
  /// duplicate / drop / corrupt, a pure function of (seed, position)).
  std::optional<FaultSchedule> faults;

  /// Checkpoint/resume behavior.
  CheckpointSpec checkpoint;

  /// Simulated kill switch (see DriveOptions::stop_after).
  uint64_t stop_after = 0;

  /// Retry/sleep policy for transient source faults.
  BackoffPolicy backoff;
  std::function<void(uint64_t)> sleeper;

  /// Edges per batcher flush (see DriveOptions::batch_edges).
  size_t batch_edges = kIngestBatchEdges;

  /// When set, the completed solution is validated against this
  /// instance (legal cover + legal certificate) and the verdict lands
  /// in RunReport::validation.
  const SetCoverInstance* validate = nullptr;

  /// Worker fan-out. W > 1 splits the stream by set id into W slices,
  /// runs one pipeline per slice on the thread pool — shard w seeded
  /// `options.seed + w`, so W = 1 reproduces the base seed — and merges
  /// the W covers through the deterministic t-party protocol (paper §3)
  /// at τ = √(n·W). W > 1 needs a shardable registry `algorithm`.
  /// Checkpointing then writes ONE aggregate "SCSH" sidecar
  /// (run/checkpoint.h) that resumes bit-identical at the same W.
  BackendSpec backend;
};

/// Assembles the W pipelines described by `config`, runs them, merges,
/// and returns the unified report. Unsupervised configurations (no
/// faults, no checkpointing, no kill switch, default batch size,
/// trivial schedule) take the zero-copy fast loops — span-sliced
/// batches for in-memory streams, chunk-aligned reader batches for
/// files; each shard of a W > 1 run walks the whole source once and
/// screens its slice out of it (a SIMD kernel under the power-of-two
/// mask owner) into full batches — which are bit-identical to the
/// supervised loop; supervised configurations run each shard under
/// Drive().
RunReport Execute(const RunConfig& config);

}  // namespace engine
}  // namespace setcover

#endif  // SETCOVER_ENGINE_ENGINE_H_
