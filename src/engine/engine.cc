#include "engine/engine.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/pump.h"
#include "engine/shards.h"
#include "run/checkpoint.h"
#include "stream/edge.h"
#include "util/thread_pool.h"

namespace setcover {
namespace engine {
namespace {

using internal::AggregateCheckpointWriter;
using internal::CheckpointSink;
using internal::Clock;
using internal::Pump;
using internal::Seconds;

/// The config checks Execute() performs before building any pipeline:
/// a known algorithm — at W > 1 a shardable registry name, never an
/// instance — a well-formed source and a valid schedule. False with
/// *error set.
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
  return config.source.schedule.Validate(error);
}

/// The simulated kill switch, as a layer: hands out the inner source's
/// records up to stream position `stop` and then reports kEnd with
/// Fired() set, so the pull loop walks away instead of finalizing.
/// Execute stacks it right above the schedule, under the fault injector
/// and the shard filter: a pull that drops or screens out records can
/// then never carry a run past the kill point, and every shard of a
/// W-way run dies at the same stream prefix.
class KillSwitchSource : public EdgeSource {
 public:
  KillSwitchSource(EdgeSource* inner, uint64_t stop)
      : inner_(inner), stop_(stop) {}

  const StreamMetadata& Meta() const override { return inner_->Meta(); }
  EdgeBatch NextBatch(size_t max_edges) override {
    const uint64_t position = inner_->Position();
    if (position >= stop_) {
      fired_ = true;
      return {ReadStatus::kEnd, {}};
    }
    return inner_->NextBatch(
        size_t(std::min<uint64_t>(max_edges, stop_ - position)));
  }
  size_t Position() const override { return inner_->Position(); }
  bool SeekTo(size_t position) override { return inner_->SeekTo(position); }
  bool HasPendingReplay() const override {
    return inner_->HasPendingReplay();
  }
  bool Truncated() const override { return inner_->Truncated(); }

  bool Fired() const { return fired_; }

 private:
  EdgeSource* inner_;
  uint64_t stop_;
  bool fired_ = false;
};

/// The engine's one pull loop, behind Drive(). `kill_switch`, when not
/// null, is a layer of `source`'s stack; a kEnd it fired stops the run
/// unfinished. With `spot_check`, the run's first batch goes through
/// the pump's debug-build batch/per-edge spot check, as RunStream's
/// does (Execute sets it for in-memory sources).
RunReport Pull(const DriveOptions& options,
               StreamingSetCoverAlgorithm& algorithm, EdgeSource& source,
               const KillSwitchSource* kill_switch, bool spot_check) {
  Pump pump(algorithm);
  RunReport& report = pump.report();
  const auto setup_start = Clock::now();

  if (const Checkpoint* checkpoint = options.resume_from) {
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
      options.checkpoint_sink && options.checkpoint_every > 0;
  const size_t batch_edges =
      options.batch_edges > 0 ? options.batch_edges : kIngestBatchEdges;
  ExponentialBackoff retry(options.backoff);
  const auto stream_start = Clock::now();

  // Each pull asks for at most the distance to the next cut: the end of
  // the batch (batch_edges) or the next checkpoint position
  // (edges_delivered % checkpoint_every == 0). A span that reaches the
  // cut with nothing pending goes to the pump in place; a shorter one (a
  // file chunk's end, a fault event, the kill point, the end of the
  // stream) waits in `pending` until the cut. Every cut falls where a
  // per-record loop would put it, so checkpoints, reports and the
  // algorithm's state are bit-identical at any batch size and any
  // source batching.
  std::vector<Edge> pending;
  auto feed = [&](std::span<const Edge> batch) {
#ifndef NDEBUG
    if (spot_check && report.stages.batches == 0) {
      pump.FeedSpotChecked(batch);
      return;
    }
#else
    (void)spot_check;
#endif
    pump.Feed(batch);
  };
  auto flush = [&] {
    if (pending.empty()) return;
    feed(pending);
    pending.clear();
  };
  for (;;) {
    uint64_t cut = batch_edges - pending.size();
    if (checkpointing) {
      const uint64_t logical = report.edges_delivered + pending.size();
      cut = std::min(cut, options.checkpoint_every -
                              logical % options.checkpoint_every);
    }
    const EdgeBatch batch = source.NextBatch(size_t(cut));
    if (batch.status == ReadStatus::kTransient) {
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
    if (batch.status == ReadStatus::kEnd) {
      if (kill_switch == nullptr || !kill_switch->Fired()) break;
      // Simulated kill: walk away mid-stream. The last checkpoint on
      // disk is exactly what a real crash would leave behind.
      flush();
      report.stages.stream_seconds = Seconds(stream_start);
      pump.StampMeter();
      return std::move(report);
    }
    if (batch.status == ReadStatus::kCorrupt) {
      ++report.corrupt_records_skipped;
      ++report.faults_survived;
      continue;
    }
    if (batch.edges.size() < cut) {
      pending.insert(pending.end(), batch.edges.begin(), batch.edges.end());
      continue;
    }
    if (pending.empty()) {
      feed(batch.edges);
    } else {
      pending.insert(pending.end(), batch.edges.begin(), batch.edges.end());
      flush();
    }
    if (checkpointing &&
        report.edges_delivered % options.checkpoint_every == 0 &&
        !source.HasPendingReplay()) {
      if (!options.checkpoint_sink(pump.Snapshot(source.Position(), 0),
                                   &report.error)) {
        pump.StampMeter();
        return std::move(report);
      }
      ++report.checkpoints_written;
    }
  }
  flush();
  report.stages.stream_seconds = Seconds(stream_start);

  if (source.Truncated()) report.degraded = true;
  pump.Finish();
  return std::move(report);
}

/// One pipeline of a W-way run: shard `shard`'s slice of the stream
/// (W = 1: all of it), pulled by the one loop through
///
///   file or memory -> schedule -> kill switch -> fault injector
///                  -> shard filter
///
/// with each layer present only when the config asks for it. The
/// schedule sits under the injector so fault decisions key on
/// scheduled positions and the stack stays deterministic and
/// checkpointable. The fault schedule is a pure function of (seed,
/// position), so every shard sees the identical damaged stream and the
/// filter surfaces its slice; W = 1 needs none.
/// A nonzero `stop_position` is the kill point, in scheduled positions.
RunReport RunShard(const RunConfig& config, uint32_t workers, uint32_t shard,
                   const std::optional<Checkpoint>& resume,
                   const CheckpointSink& sink, uint64_t stop_position) {
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
  std::optional<KillSwitchSource> kill_switch;
  if (stop_position != 0) {
    source = &kill_switch.emplace(source, stop_position);
  }
  std::optional<FaultInjector> injector;
  if (config.faults.has_value()) {
    source = &injector.emplace(source, *config.faults);
  }
  std::optional<internal::ShardFilterSource> filtered;
  if (workers > 1) {
    source = &filtered.emplace(source, shard, workers);
  }

  DriveOptions drive;
  drive.checkpoint_every = sink ? config.checkpoint.every : 0;
  drive.checkpoint_sink = sink;
  if (resume.has_value()) drive.resume_from = &*resume;
  drive.backoff = config.backoff;
  drive.sleeper = config.sleeper;
  drive.batch_edges = config.batch_edges;
  const double setup_seconds = Seconds(setup_start);
  RunReport report = Pull(drive, *algorithm, *source,
                          kill_switch ? &*kill_switch : nullptr,
                          /*spot_check=*/config.source.stream != nullptr);
  report.stages.setup_seconds += setup_seconds;
  return report;
}

/// The calling thread's shard pool, at least `workers` lanes wide (the
/// caller is one lane). It is built at the thread's first W > 1 run,
/// rebuilt only when a run asks for more shards, and joined when the
/// thread exits, so back-to-back jobs start no threads. Each thread
/// owns its pool, and a shard never calls Execute(), so the pool runs
/// one job at a time, as RunIndexed requires. The workers keep the CPU
/// mask the calling thread had when they were created.
ThreadPool& ShardPool(uint32_t workers) {
  thread_local std::unique_ptr<ThreadPool> pool;
  if (pool == nullptr || pool->ThreadCount() + 1 < workers) {
    pool.reset();  // join the narrower pool's workers first
    pool = std::make_unique<ThreadPool>(workers);
  }
  return *pool;
}

}  // namespace

RunReport Drive(const DriveOptions& options,
                StreamingSetCoverAlgorithm& algorithm, EdgeSource& source) {
  return Pull(options, algorithm, source, /*kill_switch=*/nullptr,
              /*spot_check=*/false);
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

  // Resume slots are copied out before the shards launch so each shard
  // reads its slot without racing the sinks; the aggregate writer owns
  // the ONE sidecar, W slots wide.
  std::vector<std::optional<Checkpoint>> resume_slots(workers);
  if (config.checkpoint.resume &&
      !internal::LoadResumeSlots(config.checkpoint.path, workers,
                                 &resume_slots, &report.error)) {
    return report;
  }
  std::optional<AggregateCheckpointWriter> writer;
  if (checkpointing) {
    writer.emplace(config.checkpoint.path, workers, resume_slots);
  }
  // stop_after counts stream positions from the run's start: the
  // earliest slot's resume position (a fresh shard starts at 0), the
  // position RunReport::resumed_at reports. So every shard of the run
  // stops at the same stream prefix.
  uint64_t stop_position = 0;
  if (config.stop_after != 0) {
    uint64_t start = UINT64_MAX;
    for (const std::optional<Checkpoint>& slot : resume_slots) {
      start = std::min<uint64_t>(start, slot ? slot->stream_position : 0);
    }
    stop_position = start + config.stop_after;
  }
  report.stages.setup_seconds = Seconds(total_start);

  std::vector<RunReport> shard_reports(workers);
  auto run_shard = [&](size_t w) {
    shard_reports[w] =
        RunShard(config, workers, uint32_t(w), resume_slots[w],
                 writer ? writer->SinkFor(uint32_t(w)) : CheckpointSink(),
                 stop_position);
  };
  if (workers == 1) {
    run_shard(0);
  } else {
    // One independent pipeline per shard, each on its own thread.
    // Shards share nothing but the read-only source bytes and the
    // mutex-guarded aggregate checkpoint, so results do not depend on
    // scheduling.
    ShardPool(workers).RunIndexed(workers, run_shard);
  }
  internal::AggregateShardReports(&report, shard_reports, workers);

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

}  // namespace setcover
