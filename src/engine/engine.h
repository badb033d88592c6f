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
///   source -> schedule -> kill switch -> fault injector -> shard filter
///          -> Drive() -> algorithm -> finalize
///
/// merges their covers through the paper's §3 deterministic t-party
/// protocol when W > 1, validates, and returns one unified RunReport.
/// Each layer is a batch-shaped EdgeSource (stream/edge_source.h) that
/// passes spans through, present only when the config asks for it, and
/// Drive() is the one loop that pulls them: every run, checkpointed,
/// faulty, scheduled or killed or not, takes the same loop. At W = 1
/// there is no filter, no thread pool and no merge: the one pipeline
/// runs on the calling thread. At W > 1 the shards run on the calling
/// thread's long-lived pool, whose threads outlive the job (so
/// back-to-back jobs start none) and keep the CPU mask they were
/// created with. BestOfRuns, the bench harnesses and the CLI are all
/// thin clients of this seam (docs/architecture.md has the layer
/// diagram); the only drive loop outside src/engine/ is the
/// header-inline RunStream in core/streaming_algorithm.h, kept as the
/// reference primitive that tests/engine_equivalence_test.cc pins the
/// engine against.
///
/// Equivalence contract: for the same (algorithm, seed, edges), every
/// engine path produces bit-identical covers, certificates, meter
/// readings, and checkpoint bytes to the RunStream reference loop —
/// enforced by tests/engine_equivalence_test.cc for every registered
/// algorithm.

/// Where a run's edges come from. Exactly one of `stream` (an in-memory
/// materialized stream) or `path` (a binary stream file, format v3, read
/// from a mapping; v1 and v2 files are refused) must be set;
/// `read_options` turns background prefetch decoding on or off.
struct SourceSpec {
  const EdgeStream* stream = nullptr;
  std::string path;
  StreamReadOptions read_options;

  /// Stream schedule layered over the raw source: k repeated passes
  /// (multi-pass algorithms). The default is the trivial one-pass
  /// schedule. See stream/schedule.h.
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
/// have the run's W slots, match the algorithm and stream shape, and
/// decode; anything less is a fatal error, never a silent restart.
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

    /// Threshold τ the merge ran threshold-greedy at: max(1, ⌊√(n·W)⌋).
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

/// Knobs of the pull loop.
struct DriveOptions {
  /// Hand a checkpoint to `checkpoint_sink` every this many delivered
  /// edges (at record boundaries only — never while the source holds
  /// pending replay state). 0, or no sink, disables checkpoints.
  uint64_t checkpoint_every = 0;

  /// Resume from this already-loaded checkpoint instead of starting
  /// fresh. Execute() hands each shard its slot of the run's one
  /// checkpoint file. Not owned; must outlive the call.
  const Checkpoint* resume_from = nullptr;

  /// The destination of periodic checkpoints — Execute() installs a
  /// sink that folds the shard's snapshot into the run's one file.
  /// Return false (with *error) to fail the run like a checkpoint write
  /// failure.
  std::function<bool(const Checkpoint&, std::string*)> checkpoint_sink;

  /// Retry budget for transient read faults.
  BackoffPolicy backoff;

  /// Called with each backoff delay in microseconds. Defaults to not
  /// sleeping, which keeps tests and simulations instant; the CLI
  /// installs a real sleep.
  std::function<void(uint64_t)> sleeper;

  /// Edges per ProcessEdgeBatch flush. Checkpoint positions, the kill
  /// point (RunConfig::stop_after), and end-of-stream always fall
  /// exactly on a flush, so reports and algorithm state are
  /// bit-identical at any batch size (the batch/per-edge contract of
  /// ProcessEdgeBatch).
  size_t batch_edges = kIngestBatchEdges;
};

/// The engine's one pull loop, and the low-level entry point: drives
/// `algorithm` over a caller-assembled `source` to completion under
/// full supervision — periodic checkpoints into the sink, resume from a
/// loaded checkpoint with bit-identical continuation, bounded retries
/// on transient faults, skip-and-count on corrupt records, and graceful
/// degradation to a certified partial cover when the stream cannot be
/// fully consumed. Checkpoint files are Execute()'s business; Drive()
/// stays the seam for hand-built test sources.
/// Each pull asks the source for at most the distance to the next cut
/// (batch end, checkpoint position); a span that reaches the cut goes
/// to the algorithm in place, with no copy.
RunReport Drive(const DriveOptions& options,
                StreamingSetCoverAlgorithm& algorithm, EdgeSource& source);

/// How many set-partitioned pipelines a RunConfig runs on. Shard w
/// owns the sets s with s % W == w, and a W > 1 run runs its W
/// pipelines on W threads and merges at τ = max(1, ⌊√(n·W)⌋).
struct BackendSpec {
  /// "" or "sharded": W = max(1, workers) pipelines. "inprocess": one
  /// pipeline, whatever `workers` says. Any other name is refused.
  std::string name;

  /// Worker fan-out W; 0 and 1 both run the single pipeline.
  uint32_t workers = 0;
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

  /// Simulated kill switch: stop (without finalizing) once the run has
  /// consumed this many stream positions past its start. Positions are
  /// scheduled positions (pass * N + record) and count every record of
  /// the stream, whatever the fault injector does to it and whichever
  /// shard owns it. The start is the earliest resume position of the
  /// run's slots (0 for a fresh run; RunReport::resumed_at). So every
  /// shard of a W-way run stops at the same stream prefix, and at W = 1
  /// without faults the point is `stop_after` delivered edges. 0
  /// disables.
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

  /// Worker fan-out. W > 1 splits the stream by set id modulo W into W
  /// slices, runs one pipeline per slice on its own thread — shard w
  /// seeded `options.seed + w`, so W = 1 reproduces the base seed — and
  /// merges the W covers through the deterministic t-party protocol
  /// (paper §3) at τ = √(n·W). W > 1 needs a shardable registry
  /// `algorithm`. At every W, checkpointing writes ONE file of W slots
  /// (run/checkpoint.h) that resumes bit-identical at the same W only.
  BackendSpec backend;
};

/// Assembles the W pipelines described by `config`, runs each under
/// Drive(), merges, and returns the unified report. At W = 1 in-memory
/// spans and file chunks reach the algorithm in place; each shard of a
/// W > 1 run walks the whole source once and screens its slice out of
/// it (a SIMD kernel under the power-of-two mask owner) into full
/// batches, the run's only copy of its edges.
RunReport Execute(const RunConfig& config);

}  // namespace engine
}  // namespace setcover

#endif  // SETCOVER_ENGINE_ENGINE_H_
