#include "engine/engine.h"

#include <algorithm>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/backends/common.h"
#include "engine/backends/shard_common.h"
#include "run/checkpoint.h"
#include "stream/edge.h"
#include "util/thread_pool.h"

namespace setcover {
namespace engine {
namespace {

using internal::AggregateCheckpointWriter;
using internal::CheckpointSink;
using internal::Clock;
using internal::FinalizeRun;
using internal::KeepAll;
using internal::Seconds;
using internal::StampMeter;

/// The config checks Execute() performs before building any pipeline:
/// a known algorithm — at W > 1 a shardable registry name, never an
/// instance — a well-formed source, a valid schedule, and no
/// checkpointing of windowed schedules. False with *error set.
bool ValidateRunConfig(const RunConfig& config, uint32_t workers,
                       std::string* error) {
  if (workers > 1 && config.algorithm_instance != nullptr) {
    *error =
        "sharded runs drive one algorithm instance per shard; pass a "
        "registry algorithm name instead of algorithm_instance";
    return false;
  }
  if (config.algorithm_instance == nullptr) {
    const AlgorithmInfo* info = FindAlgorithm(config.algorithm);
    if (info == nullptr) {
      *error = UnknownAlgorithmError(config.algorithm);
      return false;
    }
    if (workers > 1 && !info->shardable) {
      *error = NotShardableError(config.algorithm);
      return false;
    }
  }
  if ((config.source.stream != nullptr) == !config.source.path.empty()) {
    *error = config.source.stream == nullptr
                 ? "run config has no source (set SourceSpec::stream "
                   "or SourceSpec::path)"
                 : "run config sets both an in-memory stream and a "
                   "file path; pick one";
    return false;
  }
  if (!config.source.schedule.Validate(error)) return false;
  const bool checkpointing =
      !config.checkpoint.path.empty() && config.checkpoint.every > 0;
  if (config.source.schedule.window > 0 &&
      (checkpointing || config.checkpoint.resume)) {
    *error = "windowed schedules are not checkpointable (the window "
             "contents are not position-addressable)";
    return false;
  }
  return true;
}

/// The batcher of the fast loops, for one shard. Under KeepAll (W = 1)
/// input spans reach the algorithm in place, cut at `batch_edges` —
/// zero copy. Under a partitioning owner the shard's edges are
/// compacted into `pending` and flushed every `batch_edges` edges, so a
/// shard sees the batch boundaries a lone pipeline over its slice would.
template <typename Owner>
struct FastBatcher {
  RunReport* report;
  StreamingSetCoverAlgorithm& algorithm;
  size_t batch_edges;
  uint32_t shard;
  Owner owner;
  /// Stream shape for RunStream's debug-build first-batch equivalence
  /// spot-check; nullptr skips it.
  const StreamMetadata* check_meta;
  std::vector<Edge> pending;

  void Process(std::span<const Edge> batch) {
#ifndef NDEBUG
    if (check_meta != nullptr && report->stages.batches == 0) {
      ProcessBatchCheckedForEquivalence(algorithm, *check_meta, batch);
    } else {
      algorithm.ProcessEdgeBatch(batch);
    }
#else
    algorithm.ProcessEdgeBatch(batch);
#endif
    ++report->stages.batches;
    report->edges_delivered += batch.size();
  }

  void Feed(std::span<const Edge> input) {
    if constexpr (std::is_same_v<Owner, KeepAll>) {
      for (size_t at = 0; at < input.size(); at += batch_edges)
        Process(input.subspan(at, std::min(batch_edges, input.size() - at)));
    } else {
      pending.reserve(batch_edges);
      for (const Edge& e : input) {
        if (owner(e.set) != shard) continue;
        pending.push_back(e);
        if (pending.size() == batch_edges) Flush();
      }
    }
  }

  void Flush() {
    if (pending.empty()) return;
    Process(pending);
    pending.clear();
  }
};

/// The in-memory fast loop: one walk over the shared edge span. At
/// W = 1 it is RunStream's exact loop (same batch boundaries, same
/// debug-build first-batch spot-check) with the engine's counters
/// layered on — pinned by engine_equivalence_test.
template <typename Owner>
void DriveInMemory(RunReport* report, StreamingSetCoverAlgorithm& algorithm,
                   const EdgeStream& stream, size_t batch_edges,
                   uint32_t shard, Owner owner) {
  const auto start = Clock::now();
  algorithm.Begin(stream.meta);
  FastBatcher<Owner> batcher{report, algorithm, batch_edges, shard, owner,
                             &stream.meta, {}};
  batcher.Feed(stream.edges);
  batcher.Flush();
  report->stages.stream_seconds = Seconds(start);
  FinalizeRun(report, algorithm);
}

/// The file fast loop: chunk-aligned, CRC-verified batches straight off
/// the (possibly prefetching, possibly zero-copy mmap) reader. Each
/// shard walks its own cursor over the same file; with mmap they share
/// one mapping. Damage semantics match the supervised loop: a
/// checksum-failed chunk counts as one corrupt record and degrades the
/// run; early EOF degrades it. Only shard 0 counts the chunk — every
/// shard sees it, and the aggregate count must stay W-invariant.
template <typename Owner>
void DriveFile(RunReport* report, StreamingSetCoverAlgorithm& algorithm,
               BatchEdgeReader& reader, size_t batch_edges, uint32_t shard,
               Owner owner) {
  const auto start = Clock::now();
  algorithm.Begin(reader.Meta());
  FastBatcher<Owner> batcher{report, algorithm, batch_edges, shard, owner,
                             nullptr, {}};
  for (std::span<const Edge> batch = reader.NextBatch(); !batch.empty();
       batch = reader.NextBatch()) {
    batcher.Feed(batch);
  }
  batcher.Flush();
  report->stages.stream_seconds = Seconds(start);
  if (reader.ChecksumFailed() && shard == 0) {
    ++report->corrupt_records_skipped;
    ++report->faults_survived;
  }
  if (reader.Truncated() || reader.ChecksumFailed()) report->degraded = true;
  FinalizeRun(report, algorithm);
}

/// One pipeline of a W-way run: shard `shard`'s slice of the stream
/// (W = 1: all of it), on the fast loops when `supervised` is false,
/// under Drive() otherwise.
RunReport RunShard(const RunConfig& config, uint32_t workers, uint32_t shard,
                   bool supervised, const std::optional<Checkpoint>& resume,
                   const CheckpointSink& sink) {
  RunReport report;
  const auto setup_start = Clock::now();

  std::unique_ptr<StreamingSetCoverAlgorithm> owned;
  StreamingSetCoverAlgorithm* algorithm = config.algorithm_instance;
  if (algorithm == nullptr) {
    AlgorithmOptions options = config.options;
    options.seed += shard;
    // ValidateRunConfig vetted the name, so the factory runs.
    owned = MakeAlgorithmByName(config.algorithm, options);
    algorithm = owned.get();
  }
  report.algorithm_name = algorithm->Name();

  if (!supervised) {
    std::unique_ptr<BatchEdgeReader> reader;
    if (config.source.stream == nullptr) {
      reader = OpenBatchEdgeReader(config.source.path,
                                   config.source.read_options, &report.error);
      if (reader == nullptr) return report;
    }
    report.stages.setup_seconds = Seconds(setup_start);
    internal::WithOwner(config.backend.partitioner, workers, [&](auto owner) {
      if (reader != nullptr) {
        DriveFile(&report, *algorithm, *reader, config.batch_edges, shard,
                  owner);
      } else {
        DriveInMemory(&report, *algorithm, *config.source.stream,
                      config.batch_edges, shard, owner);
      }
    });
    return report;
  }

  // Supervised: source -> schedule -> fault injector -> shard filter
  // -> Drive. The schedule sits under the injector so fault decisions
  // key on scheduled positions and the stack stays deterministic (and,
  // for pass schedules, checkpointable). The fault schedule is a pure
  // function of (seed, position), so every shard sees the identical
  // damaged stream and the filter surfaces its slice; W = 1 needs none.
  std::unique_ptr<StreamFileSource> file_source;
  std::optional<VectorEdgeSource> vector_source;
  EdgeSource* source = nullptr;
  if (config.source.stream != nullptr) {
    source = &vector_source.emplace(*config.source.stream);
  } else {
    file_source = StreamFileSource::Open(
        config.source.path, config.source.read_options, &report.error);
    if (file_source == nullptr) return report;
    source = file_source.get();
  }
  std::optional<ScheduledSource> scheduled;
  if (!config.source.schedule.Trivial()) {
    source = &scheduled.emplace(source, config.source.schedule);
  }
  std::optional<FaultInjector> injector;
  if (config.faults.has_value()) {
    source = &injector.emplace(source, *config.faults);
  }
  std::optional<internal::ShardFilterSource> filtered;
  if (workers > 1) {
    source = &filtered.emplace(source, shard, workers,
                               config.backend.partitioner);
  }

  DriveOptions drive;
  drive.checkpoint_every = sink ? config.checkpoint.every : 0;
  drive.checkpoint_sink = sink;
  if (resume.has_value()) drive.resume_from = &*resume;
  drive.backoff = config.backoff;
  drive.sleeper = config.sleeper;
  drive.stop_after = config.stop_after;
  drive.batch_edges = config.batch_edges;
  const double setup_seconds = Seconds(setup_start);
  report = Drive(drive, *algorithm, *source);
  report.stages.setup_seconds += setup_seconds;
  return report;
}

}  // namespace

RunReport Drive(const DriveOptions& options,
                StreamingSetCoverAlgorithm& algorithm, EdgeSource& source) {
  RunReport report;
  report.algorithm_name = algorithm.Name();
  const StreamMetadata& meta = source.Meta();
  const auto setup_start = Clock::now();

  if (options.resume || options.resume_from != nullptr) {
    std::optional<Checkpoint> checkpoint;
    if (options.resume_from != nullptr) {
      checkpoint = *options.resume_from;
    } else {
      std::string error;
      checkpoint = LoadCheckpoint(options.checkpoint_path, &error);
      if (!checkpoint) {
        report.error = error;
        return report;
      }
    }
    if (checkpoint->algorithm_name != algorithm.Name()) {
      report.error = "checkpoint was written by algorithm '" +
                     checkpoint->algorithm_name + "', not '" +
                     algorithm.Name() + "'";
      return report;
    }
    if (checkpoint->meta.num_sets != meta.num_sets ||
        checkpoint->meta.num_elements != meta.num_elements ||
        checkpoint->meta.stream_length != meta.stream_length) {
      report.error = "checkpoint stream shape does not match the source";
      return report;
    }
    if (!algorithm.DecodeState(meta, checkpoint->state_words)) {
      report.error = "algorithm '" + algorithm.Name() +
                     "' could not decode the checkpointed state";
      return report;
    }
    if (!source.SeekTo(checkpoint->stream_position)) {
      report.error = "source cannot seek to checkpointed position";
      return report;
    }
    report.resumed = true;
    report.resumed_at = checkpoint->stream_position;
    report.edges_delivered = checkpoint->edges_delivered;
    report.transient_retries = checkpoint->transient_retries;
    report.corrupt_records_skipped = checkpoint->corrupt_skipped;
    report.faults_survived = checkpoint->faults_survived;
  } else {
    algorithm.Begin(meta);
  }
  report.stages.setup_seconds = Seconds(setup_start);

  const bool checkpointing =
      (!options.checkpoint_path.empty() || options.checkpoint_sink) &&
      options.checkpoint_every > 0;
  const size_t batch_edges =
      options.batch_edges > 0 ? options.batch_edges : kIngestBatchEdges;
  uint64_t delivered_this_run = 0;
  ExponentialBackoff retry(options.backoff);
  const auto stream_start = Clock::now();

  // Batched ingestion: edges accumulate with the same per-edge fault
  // handling as the original per-edge supervisor, and flush through
  // ProcessEdgeBatch. Batches are capped so that every observable
  // boundary of the per-edge loop — checkpoint positions
  // (edges_delivered % checkpoint_every == 0), the stop_after kill
  // point, and end-of-stream — falls exactly on a flush, so
  // checkpoints, reports and the algorithm's state are bit-identical
  // to the per-edge path.
  Edge edge;
  std::vector<Edge> batch;
  batch.reserve(batch_edges);
  auto flush = [&] {
    if (batch.empty()) return;
    algorithm.ProcessEdgeBatch(std::span<const Edge>(batch));
    report.edges_delivered += batch.size();
    delivered_this_run += batch.size();
    ++report.stages.batches;
    batch.clear();
  };
  for (;;) {
    if (options.stop_after != 0 &&
        delivered_this_run + batch.size() >= options.stop_after) {
      // Simulated kill: walk away mid-stream. The last checkpoint on
      // disk is exactly what a real crash would leave behind.
      flush();
      report.stages.stream_seconds = Seconds(stream_start);
      report.uncovered_elements = 0;
      StampMeter(&report, algorithm);
      return report;
    }
    const ReadStatus status = source.Next(&edge);
    if (status == ReadStatus::kTransient) {
      uint64_t delay_us = 0;
      if (!retry.NextDelay(&delay_us)) {
        report.degraded = true;  // retry budget exhausted mid-stream
        break;
      }
      ++report.transient_retries;
      ++report.faults_survived;
      if (options.sleeper) options.sleeper(delay_us);
      continue;
    }
    retry.Reset();
    if (status == ReadStatus::kEnd) break;
    if (status == ReadStatus::kCorrupt) {
      ++report.corrupt_records_skipped;
      ++report.faults_survived;
      continue;
    }

    batch.push_back(edge);
    const uint64_t logical_delivered = report.edges_delivered + batch.size();

    if (checkpointing &&
        logical_delivered % options.checkpoint_every == 0) {
      flush();
      if (!source.HasPendingReplay()) {
        StateEncoder encoder;
        algorithm.EncodeState(&encoder);
        Checkpoint checkpoint;
        checkpoint.algorithm_name = algorithm.Name();
        checkpoint.meta = meta;
        checkpoint.stream_position = source.Position();
        checkpoint.edges_delivered = report.edges_delivered;
        checkpoint.transient_retries = report.transient_retries;
        checkpoint.corrupt_skipped = report.corrupt_records_skipped;
        checkpoint.faults_survived = report.faults_survived;
        checkpoint.state_words = encoder.Words();
        std::string error;
        const bool saved =
            options.checkpoint_sink
                ? options.checkpoint_sink(checkpoint, &error)
                : SaveCheckpoint(checkpoint, options.checkpoint_path, &error);
        if (!saved) {
          report.error = error;
          StampMeter(&report, algorithm);
          return report;
        }
        ++report.checkpoints_written;
      }
    } else if (batch.size() >= batch_edges) {
      flush();
    }
  }
  flush();
  report.stages.stream_seconds = Seconds(stream_start);

  if (source.Truncated()) report.degraded = true;
  FinalizeRun(&report, algorithm);
  return report;
}

RunReport Execute(const RunConfig& config) {
  RunReport report;
  const auto total_start = Clock::now();
  const std::clock_t cpu_start = std::clock();

  const std::string& backend = config.backend.name;
  if (!backend.empty() && backend != "sharded" && backend != "inprocess") {
    report.error = "unknown backend '" + backend +
                   "'; known backends: inprocess, sharded";
    return report;
  }
  const uint32_t workers =
      backend == "inprocess" ? 1
                             : std::max<uint32_t>(1, config.backend.workers);
  if (!ValidateRunConfig(config, workers, &report.error)) {
    return report;
  }

  const bool checkpointing =
      !config.checkpoint.path.empty() && config.checkpoint.every > 0;
  const bool supervised = config.faults.has_value() ||
                          config.stop_after != 0 ||
                          config.checkpoint.resume || checkpointing ||
                          config.batch_edges != kIngestBatchEdges ||
                          !config.source.schedule.Trivial();

  // Resume slots are copied out before the shards launch so each shard
  // reads its slot without racing the sinks; the aggregate writer owns
  // the ONE sidecar (plain SCKP at W = 1, SCSH otherwise).
  std::vector<std::optional<Checkpoint>> resume_slots(workers);
  if (config.checkpoint.resume &&
      !internal::LoadResumeSlots(config.checkpoint.path, workers,
                                 config.backend.partitioner.name,
                                 &resume_slots, &report.error)) {
    return report;
  }
  std::optional<AggregateCheckpointWriter> writer;
  if (checkpointing) {
    writer.emplace(config.checkpoint.path, workers,
                   config.backend.partitioner.name, resume_slots);
  }
  report.stages.setup_seconds = Seconds(total_start);

  std::vector<RunReport> shard_reports(workers);
  auto run_shard = [&](size_t w) {
    shard_reports[w] =
        RunShard(config, workers, uint32_t(w), supervised, resume_slots[w],
                 writer ? writer->SinkFor(uint32_t(w)) : CheckpointSink());
  };
  if (workers == 1) {
    run_shard(0);
  } else {
    // One independent pipeline per shard on the deterministic pool.
    // Shards share nothing but the read-only source bytes and the
    // mutex-guarded aggregate checkpoint, so results are bit-identical
    // at any thread count.
    ThreadPool pool(config.backend.threads == 0 ? workers
                                                : config.backend.threads);
    pool.RunIndexed(workers, run_shard);
  }
  internal::AggregateShardReports(&report, shard_reports, workers,
                                  config.backend.merge_threshold);

  if (config.validate != nullptr && report.completed) {
    const auto validate_start = Clock::now();
    report.validation = ValidateSolution(*config.validate, report.solution);
    report.validated = true;
    report.stages.validate_seconds = Seconds(validate_start);
  }

  report.stages.total_seconds = Seconds(total_start);
  report.stages.cpu_seconds =
      double(std::clock() - cpu_start) / double(CLOCKS_PER_SEC);
  return report;
}

}  // namespace engine

// RunStreamFromFile (declared in stream/stream_file.h) predates the
// engine and survives as API surface for examples/tests/benches; it is
// now a thin client of the engine's file fast path, which is its old
// loop verbatim.
std::optional<CoverSolution> RunStreamFromFile(
    StreamingSetCoverAlgorithm& algorithm, const std::string& path,
    const StreamReadOptions& options, std::string* error) {
  engine::RunConfig config;
  config.algorithm_instance = &algorithm;
  config.source = engine::SourceSpec::File(path, options);
  engine::RunReport report = engine::Execute(config);
  if (!report.completed) {
    if (error != nullptr) *error = report.error;
    return std::nullopt;
  }
  return std::move(report.solution);
}

std::optional<CoverSolution> RunStreamFromFile(
    StreamingSetCoverAlgorithm& algorithm, const std::string& path,
    std::string* error) {
  return RunStreamFromFile(algorithm, path, StreamReadOptions{}, error);
}

}  // namespace setcover
