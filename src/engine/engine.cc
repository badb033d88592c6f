#include "engine/engine.h"

#include <algorithm>
#include <cstddef>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/pump.h"
#include "engine/shards.h"
#include "run/checkpoint.h"
#include "stream/edge.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace setcover {
namespace engine {
namespace {

using internal::AggregateCheckpointWriter;
using internal::CheckpointSink;
using internal::Clock;
using internal::KeepAll;
using internal::MaskOwner;
using internal::Pump;
using internal::Seconds;

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
/// input spans reach the pump in place, cut at `batch_edges` — zero
/// copy. Under a partitioning owner the shard screens its slice out of
/// the input `batch_edges` edges at a time, appending it to `pending`,
/// and flushes every `batch_edges` edges, so a shard sees the batch
/// boundaries a lone pipeline over its slice would.
template <typename Owner>
struct FastBatcher {
  Pump& pump;
  size_t batch_edges;
  uint32_t shard;
  Owner owner;
  /// Route the first batch through RunStream's debug-build equivalence
  /// spot-check.
  bool spot_check;
  /// Room for one batch plus one screened input slice; [0, filled)
  /// holds the edges not yet flushed.
  std::vector<Edge> pending;
  size_t filled = 0;

  void Process(std::span<const Edge> batch) {
#ifndef NDEBUG
    if (spot_check && pump.report().stages.batches == 0) {
      pump.FeedSpotChecked(batch);
      return;
    }
#endif
    pump.Feed(batch);
  }

  void Feed(std::span<const Edge> input) {
    if constexpr (std::is_same_v<Owner, KeepAll>) {
      for (size_t at = 0; at < input.size(); at += batch_edges)
        Process(input.subspan(at, std::min(batch_edges, input.size() - at)));
    } else {
      pending.resize(2 * batch_edges);
      for (size_t at = 0; at < input.size(); at += batch_edges) {
        // filled < batch_edges before the screen, so one slice adds at
        // most one full batch.
        filled += Screen(
            input.subspan(at, std::min(batch_edges, input.size() - at)),
            pending.data() + filled);
        if (filled >= batch_edges) {
          Process({pending.data(), batch_edges});
          std::copy(pending.begin() + batch_edges, pending.begin() + filled,
                    pending.begin());
          filled -= batch_edges;
        }
      }
    }
  }

  /// Copies the shard's edges of `slice` to `out`, in order, and
  /// returns how many; `out` has room for the whole slice.
  size_t Screen(std::span<const Edge> slice, Edge* out) const {
    if constexpr (std::is_same_v<Owner, MaskOwner>) {
      return simd::Active().select_masked_pairs(
          reinterpret_cast<const uint32_t*>(slice.data()), slice.size(),
          owner.mask, shard, reinterpret_cast<uint32_t*>(out));
    } else {
      size_t found = 0;
      for (const Edge& e : slice) {
        out[found] = e;  // branch-free emit
        found += owner(e.set) == shard ? 1 : 0;
      }
      return found;
    }
  }

  void Flush() {
    if (filled == 0) return;
    Process({pending.data(), filled});
    filled = 0;
  }
};

// The mask owner's screen reads an Edge array as interleaved
// (set, element) pairs.
static_assert(sizeof(Edge) == 2 * sizeof(uint32_t) &&
              offsetof(Edge, set) == 0 &&
              offsetof(Edge, element) == sizeof(uint32_t));

/// The in-memory fast loop: one walk over the shared edge span. At
/// W = 1 it is RunStream's exact loop (same batch boundaries, same
/// debug-build first-batch spot-check) with the engine's counters
/// layered on — pinned by engine_equivalence_test.
template <typename Owner>
void DriveInMemory(Pump& pump, const EdgeStream& stream, size_t batch_edges,
                   uint32_t shard, Owner owner) {
  const auto start = Clock::now();
  pump.Begin(stream.meta);
  FastBatcher<Owner> batcher{pump, batch_edges, shard, owner, true, {}, 0};
  batcher.Feed(stream.edges);
  batcher.Flush();
  pump.report().stages.stream_seconds = Seconds(start);
  pump.Finish();
}

/// The file fast loop: chunk-aligned, CRC-verified batches straight off
/// the (possibly prefetching, possibly zero-copy mmap) reader. Each
/// shard walks its own cursor over the same file; with mmap they share
/// one mapping. Damage semantics match the supervised loop: a
/// checksum-failed chunk counts as one corrupt record and degrades the
/// run; early EOF degrades it. Only shard 0 counts the chunk — every
/// shard sees it, and the aggregate count must stay W-invariant.
template <typename Owner>
void DriveFile(Pump& pump, BatchEdgeReader& reader, size_t batch_edges,
               uint32_t shard, Owner owner) {
  const auto start = Clock::now();
  pump.Begin(reader.Meta());
  FastBatcher<Owner> batcher{pump, batch_edges, shard, owner, false, {}, 0};
  for (std::span<const Edge> batch = reader.NextBatch(); !batch.empty();
       batch = reader.NextBatch()) {
    batcher.Feed(batch);
  }
  batcher.Flush();
  RunReport& report = pump.report();
  report.stages.stream_seconds = Seconds(start);
  if (reader.ChecksumFailed() && shard == 0) {
    ++report.corrupt_records_skipped;
    ++report.faults_survived;
  }
  if (reader.Truncated() || reader.ChecksumFailed()) report.degraded = true;
  pump.Finish();
}

/// One pipeline of a W-way run: shard `shard`'s slice of the stream
/// (W = 1: all of it), on the fast loops when `supervised` is false,
/// under Drive() otherwise.
RunReport RunShard(const RunConfig& config, uint32_t workers, uint32_t shard,
                   bool supervised, const std::optional<Checkpoint>& resume,
                   const CheckpointSink& sink) {
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

  if (!supervised) {
    Pump pump(*algorithm);
    std::unique_ptr<BatchEdgeReader> reader;
    if (config.source.stream == nullptr) {
      reader = OpenBatchEdgeReader(config.source.path,
                                   config.source.read_options,
                                   &pump.report().error);
      if (reader == nullptr) return std::move(pump.report());
    }
    pump.report().stages.setup_seconds = Seconds(setup_start);
    internal::WithOwner(config.backend.partitioner, workers, [&](auto owner) {
      if (reader != nullptr) {
        DriveFile(pump, *reader, config.batch_edges, shard, owner);
      } else {
        DriveInMemory(pump, *config.source.stream, config.batch_edges, shard,
                      owner);
      }
    });
    return std::move(pump.report());
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
    RunReport failed;
    failed.algorithm_name = algorithm->Name();
    file_source = StreamFileSource::Open(
        config.source.path, config.source.read_options, &failed.error);
    if (file_source == nullptr) return failed;
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
  RunReport report = Drive(drive, *algorithm, *source);
  report.stages.setup_seconds += setup_seconds;
  return report;
}

}  // namespace

RunReport Drive(const DriveOptions& options,
                StreamingSetCoverAlgorithm& algorithm, EdgeSource& source) {
  Pump pump(algorithm);
  RunReport& report = pump.report();
  const auto setup_start = Clock::now();

  if (options.resume || options.resume_from != nullptr) {
    std::optional<Checkpoint> loaded;
    const Checkpoint* checkpoint = options.resume_from;
    if (checkpoint == nullptr) {
      loaded = LoadCheckpoint(options.checkpoint_path, &report.error);
      if (!loaded) return std::move(report);
      checkpoint = &*loaded;
    }
    if (!pump.Resume(source.Meta(), *checkpoint, &report.error)) {
      return std::move(report);
    }
    if (!source.SeekTo(checkpoint->stream_position)) {
      report.error = "source cannot seek to checkpointed position";
      return std::move(report);
    }
  } else {
    pump.Begin(source.Meta());
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
  // the pump. Batches are capped so that every observable boundary of
  // the per-edge loop — checkpoint positions
  // (edges_delivered % checkpoint_every == 0), the stop_after kill
  // point, and end-of-stream — falls exactly on a flush, so
  // checkpoints, reports and the algorithm's state are bit-identical
  // to the per-edge path.
  Edge edge;
  std::vector<Edge> batch;
  batch.reserve(batch_edges);
  auto flush = [&] {
    if (batch.empty()) return;
    pump.Feed(batch);
    delivered_this_run += batch.size();
    batch.clear();
  };
  for (;;) {
    if (options.stop_after != 0 &&
        delivered_this_run + batch.size() >= options.stop_after) {
      // Simulated kill: walk away mid-stream. The last checkpoint on
      // disk is exactly what a real crash would leave behind.
      flush();
      report.stages.stream_seconds = Seconds(stream_start);
      pump.StampMeter();
      return std::move(report);
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
        const Checkpoint checkpoint = pump.Snapshot(source.Position(), 0);
        const bool saved =
            options.checkpoint_sink
                ? options.checkpoint_sink(checkpoint, &report.error)
                : SaveCheckpoint(checkpoint, options.checkpoint_path,
                                 &report.error);
        if (!saved) {
          pump.StampMeter();
          return std::move(report);
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
  pump.Finish();
  return std::move(report);
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
