#include "engine/session.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "engine/shards.h"
#include "run/checkpoint.h"

namespace setcover {
namespace engine {
namespace {

using internal::Clock;
using internal::Seconds;

}  // namespace

std::unique_ptr<Session> Session::Open(const SessionConfig& config,
                                       bool resume, std::string* error) {
  const auto setup_start = Clock::now();
  const uint32_t workers = std::max<uint32_t>(1, config.workers);
  const AlgorithmInfo* info = FindAlgorithm(config.algorithm);
  if (info == nullptr) {
    *error = UnknownAlgorithmError(config.algorithm);
    return nullptr;
  }
  if (workers > 1 && !info->shardable) {
    *error = NotShardableError(config.algorithm);
    return nullptr;
  }
  if (workers > 1 && config.faults.has_value()) {
    *error =
        "sharded sessions do not support fault schedules; inject faults "
        "on the client side of the wire";
    return nullptr;
  }

  std::unique_ptr<Session> session(new Session());
  session->config_ = config;
  session->slices_.resize(workers);
  session->pumps_.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    AlgorithmOptions options = config.options;
    options.seed += w;
    session->pumps_.emplace_back(
        MakeAlgorithmByName(config.algorithm, options));
  }

  std::vector<std::optional<Checkpoint>> slots(workers);
  if (resume && !config.checkpoint_path.empty()) {
    // A missing file means "crashed before the first checkpoint" and is
    // a legitimate fresh start; anything else wrong with an *existing*
    // file is fatal (never a silent restart).
    std::FILE* probe = std::fopen(config.checkpoint_path.c_str(), "rb");
    if (probe != nullptr) {
      std::fclose(probe);
      if (!internal::LoadResumeSlots(config.checkpoint_path, workers,
                                     &slots, error)) {
        return nullptr;
      }
      // Every write stores all W slots at one cursor; anything else is
      // not a checkpoint this session wrote.
      for (const std::optional<Checkpoint>& slot : slots) {
        if (!slot.has_value() ||
            slot->session_sequence != slots[0]->session_sequence ||
            slot->stream_position != slots[0]->stream_position) {
          *error = "sharded checkpoint slots are missing or disagree on "
                   "the session cursor";
          return nullptr;
        }
      }
    }
  }
  for (uint32_t w = 0; w < workers; ++w) {
    internal::Pump& pump = session->pumps_[w];
    if (!slots[w].has_value()) {
      pump.Begin(config.meta);
    } else if (!pump.Resume(config.meta, *slots[w], error)) {
      return nullptr;
    }
  }
  if (slots[0].has_value()) {
    session->position_ = slots[0]->stream_position;
    session->last_sequence_ = slots[0]->session_sequence;
    session->delivered_at_last_checkpoint_ = session->EdgesDelivered();
  }
  const double setup_seconds = Seconds(setup_start);
  for (internal::Pump& pump : session->pumps_)
    pump.report().stages.setup_seconds = setup_seconds;
  return session;
}

uint64_t Session::EdgesDelivered() const {
  uint64_t delivered = 0;
  for (const internal::Pump& pump : pumps_)
    delivered += pump.report().edges_delivered;
  return delivered;
}

bool Session::FeedWithFaults(std::span<const Edge> edges,
                             std::string* error) {
  // A fresh injector per batch, over the batch at the session's
  // absolute stream coordinate, so its (seed, position) decisions match
  // a whole-stream run exactly. All its replay state (transient
  // countdowns, owed duplicates) lives strictly inside one batch —
  // duplicates are delivered before the span's kEnd, so nothing
  // straddles batches and checkpoints at batch boundaries never see
  // pending replay. Nothing reaches the pump until the whole batch has
  // been pulled, so a failed batch is rejected whole.
  VectorEdgeSource span_source(config_.meta, edges, position_);
  FaultInjector injector(&span_source, *config_.faults);
  std::vector<Edge>& delivery = slices_[0];
  delivery.clear();
  ExponentialBackoff retry(config_.backoff);
  uint64_t transient_seen = 0, corrupt_seen = 0;
  for (;;) {
    const EdgeBatch batch = injector.NextBatch(kIngestBatchEdges);
    if (batch.status == ReadStatus::kTransient) {
      uint64_t delay_us = 0;
      if (!retry.NextDelay(&delay_us)) {
        // Budget exhausted before anything reached the algorithm: the
        // batch is rejected whole, so the retry stays idempotent.
        *error = "transient retry budget exhausted mid-batch";
        pumps_[0].report().degraded = true;
        return false;
      }
      ++transient_seen;
      continue;  // the server never sleeps; clients own pacing
    }
    retry.Reset();
    if (batch.status == ReadStatus::kEnd) break;
    if (batch.status == ReadStatus::kCorrupt) {
      ++corrupt_seen;
      continue;
    }
    delivery.insert(delivery.end(), batch.edges.begin(), batch.edges.end());
  }
  internal::Pump& pump = pumps_[0];
  if (!delivery.empty()) pump.Feed(delivery);
  pump.report().transient_retries += transient_seen;
  pump.report().corrupt_records_skipped += corrupt_seen;
  pump.report().faults_survived += transient_seen + corrupt_seen;
  return true;
}

IngestResult Session::Ingest(uint64_t sequence, std::span<const Edge> edges,
                             std::string* error) {
  IngestResult result;
  result.last_sequence = last_sequence_;
  if (final_report_.has_value()) {
    *error = "session already finalized";
    return result;
  }
  if (sequence <= last_sequence_) {
    ++duplicate_ingests_;
    result.status = IngestStatus::kDuplicate;
    return result;
  }
  if (sequence != last_sequence_ + 1) {
    *error = "ingest sequence gap";
    result.status = IngestStatus::kOutOfOrder;
    return result;
  }
  if (!EdgesInRange(edges, config_.meta)) {
    // Refused whole, before any pump sees it: nothing is applied and
    // the sequence stays put, so the client may send a good batch at
    // the same sequence.
    const StreamMetadata& meta = config_.meta;
    const auto outside =
        std::find_if(edges.begin(), edges.end(), [&](const Edge& edge) {
          return edge.set >= meta.num_sets ||
                 edge.element >= meta.num_elements;
        });
    *error = "ingest edge " + std::to_string(outside - edges.begin()) +
             " (set " + std::to_string(outside->set) + ", element " +
             std::to_string(outside->element) +
             ") is outside the session's m x n = " +
             std::to_string(meta.num_sets) + " x " +
             std::to_string(meta.num_elements);
    return result;
  }

  // Each non-empty batch (or slice) is one ProcessEdgeBatch call; by
  // the batch/per-edge contract that leaves state bit-identical to any
  // other batching of the same edges.
  const auto stream_start = Clock::now();
  bool applied = true;
  if (config_.faults.has_value()) {
    applied = FeedWithFaults(edges, error);
  } else if (pumps_.size() == 1) {
    if (!edges.empty()) pumps_[0].Feed(edges);
  } else {
    for (std::vector<Edge>& slice : slices_) slice.clear();
    internal::WithOwner(uint32_t(pumps_.size()), [&](auto owner) {
      for (const Edge& edge : edges) slices_[owner(edge.set)].push_back(edge);
    });
    for (size_t w = 0; w < pumps_.size(); ++w)
      if (!slices_[w].empty()) pumps_[w].Feed(slices_[w]);
  }
  const double stream_seconds = Seconds(stream_start);
  for (internal::Pump& pump : pumps_)
    pump.report().stages.stream_seconds += stream_seconds;
  if (!applied) return result;

  position_ += edges.size();
  last_sequence_ = sequence;
  ++ingest_calls_;
  result.status = IngestStatus::kApplied;
  result.last_sequence = last_sequence_;

  if (config_.checkpoint_every > 0 && !config_.checkpoint_path.empty() &&
      EdgesDelivered() - delivered_at_last_checkpoint_ >=
          config_.checkpoint_every) {
    if (!WriteCheckpoint(error)) {
      result.status = IngestStatus::kFailed;
      return result;
    }
    result.checkpoints_written = 1;
  }
  return result;
}

bool Session::WriteCheckpoint(std::string* error) {
  if (config_.checkpoint_path.empty()) return true;  // volatile session
  ShardedCheckpoint slots;
  slots.shards = uint32_t(pumps_.size());
  for (const internal::Pump& pump : pumps_)
    slots.shard_states.push_back(pump.Snapshot(position_, last_sequence_));
  if (!SaveShardedCheckpoint(slots, config_.checkpoint_path, error))
    return false;
  for (internal::Pump& pump : pumps_) ++pump.report().checkpoints_written;
  delivered_at_last_checkpoint_ = EdgesDelivered();
  return true;
}

const RunReport& Session::Finalize() {
  if (final_report_.has_value()) return *final_report_;
  // The pumps keep their reports: Stats() still reads them afterwards.
  std::vector<RunReport> reports;
  reports.reserve(pumps_.size());
  for (internal::Pump& pump : pumps_) {
    pump.Finish();
    reports.push_back(pump.report());
  }
  RunReport report;
  internal::AggregateShardReports(&report, reports, uint32_t(pumps_.size()));
  report.stages.total_seconds = report.stages.setup_seconds +
                                report.stages.stream_seconds +
                                report.stages.finalize_seconds;
  final_report_ = std::move(report);
  return *final_report_;
}

SessionStats Session::Stats() const {
  SessionStats stats;
  for (const internal::Pump& pump : pumps_) {
    const RunReport& report = pump.report();
    stats.edges_delivered += report.edges_delivered;
    stats.batches += report.stages.batches;
    stats.checkpoints_written += report.checkpoints_written;
    stats.transient_retries += report.transient_retries;
    stats.corrupt_records_skipped += report.corrupt_records_skipped;
    stats.faults_survived += report.faults_survived;
    stats.degraded = stats.degraded || report.degraded;
    stats.finalize_seconds =
        std::max(stats.finalize_seconds, report.stages.finalize_seconds);
    stats.peak_words += pump.algorithm().Meter().PeakWords();
    stats.current_words += pump.algorithm().Meter().CurrentWords();
  }
  stats.ingest_calls = ingest_calls_;
  stats.duplicate_ingests = duplicate_ingests_;
  stats.last_sequence = last_sequence_;
  stats.resumed = Resumed();
  stats.finalized = Finalized();
  stats.setup_seconds = pumps_[0].report().stages.setup_seconds;
  stats.stream_seconds = pumps_[0].report().stages.stream_seconds;
  return stats;
}

}  // namespace engine
}  // namespace setcover
