#include "engine/backends/shard_common.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "comm/deterministic_protocol.h"
#include "comm/protocol.h"
#include "engine/backends/common.h"
#include "util/math.h"

namespace setcover {
namespace engine {
namespace internal {

bool LoadResumeSlots(const std::string& path, uint32_t shards,
                     const std::string& partitioner_name,
                     std::vector<std::optional<Checkpoint>>* slots,
                     std::string* error) {
  slots->assign(shards, std::nullopt);
  if (shards == 1) {
    std::optional<Checkpoint> loaded = LoadCheckpoint(path, error);
    if (!loaded) return false;
    (*slots)[0] = std::move(*loaded);
    return true;
  }
  std::optional<ShardedCheckpoint> loaded =
      LoadShardedCheckpoint(path, error);
  if (!loaded) return false;
  if (loaded->shards != shards) {
    *error = "sharded checkpoint was written by a " +
             std::to_string(loaded->shards) + "-shard run, not " +
             std::to_string(shards) + " shards";
    return false;
  }
  if (loaded->partitioner != partitioner_name) {
    *error = "sharded checkpoint was partitioned by '" +
             loaded->partitioner + "', not '" + partitioner_name + "'";
    return false;
  }
  *slots = std::move(loaded->shard_states);
  return true;
}

AggregateCheckpointWriter::AggregateCheckpointWriter(
    std::string path, uint32_t shards, std::string partitioner_name,
    std::vector<std::optional<Checkpoint>> slots)
    : path_(std::move(path)) {
  aggregate_.shards = shards;
  aggregate_.partitioner = std::move(partitioner_name);
  aggregate_.shard_states = std::move(slots);
  aggregate_.shard_states.resize(shards);
}

bool AggregateCheckpointWriter::Store(uint32_t shard,
                                      const Checkpoint& checkpoint,
                                      std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (aggregate_.shards == 1) {
    // One-worker runs keep the plain single-run sidecar format.
    return SaveCheckpoint(checkpoint, path_, error);
  }
  aggregate_.shard_states[shard] = checkpoint;
  return SaveShardedCheckpoint(aggregate_, path_, error);
}

CheckpointSink AggregateCheckpointWriter::SinkFor(uint32_t shard) {
  return [this, shard](const Checkpoint& checkpoint, std::string* error) {
    return Store(shard, checkpoint, error);
  };
}

CertificateMerge MergeCertificates(
    const std::vector<const CoverSolution*>& locals, uint32_t parties,
    uint32_t merge_threshold_override) {
  CertificateMerge merge;
  const uint32_t n = uint32_t(locals.empty() ? 0
                                             : locals[0]->certificate.size());
  // Each party's certified (set -> covered elements) groups become the
  // candidate sets of a t = W party instance — the partitioner makes
  // candidates party-disjoint.
  std::vector<std::vector<ElementId>> candidate_elems;
  std::vector<SetId> candidate_set;
  std::vector<uint32_t> candidate_owner;
  std::unordered_map<SetId, size_t> candidate_index;
  for (uint32_t w = 0; w < locals.size(); ++w) {
    const std::vector<SetId>& certificate = locals[w]->certificate;
    for (ElementId u = 0; u < certificate.size(); ++u) {
      const SetId s = certificate[u];
      if (s == kNoSet) continue;
      auto [it, inserted] =
          candidate_index.try_emplace(s, candidate_elems.size());
      if (inserted) {
        candidate_elems.emplace_back();
        candidate_set.push_back(s);
        candidate_owner.push_back(w);
      }
      candidate_elems[it->second].push_back(u);
    }
  }

  const uint32_t tau =
      merge_threshold_override != 0
          ? merge_threshold_override
          : std::max<uint32_t>(1, uint32_t(ISqrt(uint64_t(n) * parties)));
  merge.merge_threshold = tau;
  // §3's message: covered bitmap (n bits) + first-seen table R (n
  // words) + the threshold picks so far — each pick covers ≥ τ new
  // elements, so at most ⌈n/τ⌉ ever travel. That is the Õ(n) bound
  // every benchmarked instance is checked against.
  merge.message_words_bound =
      BitsToWords(n) + n + (tau > 0 ? (n + tau - 1) / tau : 0);

  if (candidate_elems.empty()) {
    merge.solution.cover.clear();
    merge.solution.certificate.assign(n, kNoSet);
    return merge;
  }
  SetCoverInstance merged =
      SetCoverInstance::FromSets(n, std::move(candidate_elems));
  DeterministicProtocolResult protocol =
      RunDeterministicProtocol(merged, candidate_owner, parties, tau);
  merge.max_message_words = protocol.max_message_words;
  merge.threshold_sets = protocol.threshold_sets;
  merge.patched_sets = protocol.patched_sets;
  // Candidate ids map 1:1 back to global set ids.
  merge.solution.cover.reserve(protocol.solution.cover.size());
  for (SetId candidate : protocol.solution.cover) {
    merge.solution.cover.push_back(candidate_set[candidate]);
  }
  merge.solution.certificate.assign(n, kNoSet);
  for (ElementId u = 0; u < n; ++u) {
    const SetId candidate = protocol.solution.certificate[u];
    if (candidate != kNoSet) {
      merge.solution.certificate[u] = candidate_set[candidate];
    }
  }
  return merge;
}

void AggregateShardReports(RunReport* report,
                           std::vector<RunReport>& shard_reports,
                           uint32_t shards, uint32_t merge_threshold) {
  if (shards == 1) {
    // Single-shard runs skip the merge entirely: shard 0's report *is*
    // the run.
    const double setup_seconds = report->stages.setup_seconds;
    *report = std::move(shard_reports[0]);
    report->stages.setup_seconds += setup_seconds;
    report->sharded.shards = 1;
    report->sharded.shard_edges = {report->edges_delivered};
    report->sharded.shard_cover_sizes = {report->solution.cover.size()};
    report->sharded.shard_peak_words = {report->peak_words};
    report->sharded.shard_stream_seconds = {report->stages.stream_seconds};
    return;
  }

  RunReport::ShardStats& stats = report->sharded;
  stats.shards = shards;
  stats.shard_edges.resize(shards);
  stats.shard_cover_sizes.resize(shards);
  stats.shard_peak_words.resize(shards);
  stats.shard_stream_seconds.resize(shards);
  bool all_completed = true;
  for (uint32_t w = 0; w < shards; ++w) {
    const RunReport& shard = shard_reports[w];
    if (!shard.error.empty() && report->error.empty()) {
      report->error = "shard " + std::to_string(w) + ": " + shard.error;
    }
    all_completed = all_completed && shard.completed;
    report->edges_delivered += shard.edges_delivered;
    report->checkpoints_written += shard.checkpoints_written;
    report->transient_retries += shard.transient_retries;
    report->corrupt_records_skipped += shard.corrupt_records_skipped;
    report->faults_survived += shard.faults_survived;
    report->resumed = report->resumed || shard.resumed;
    report->resumed_at += shard.resumed_at;
    report->degraded = report->degraded || shard.degraded;
    // W pipelines run concurrently: the slowest shard is the stage's
    // wall-clock; batches and space add up (the run really holds W
    // working sets).
    report->stages.stream_seconds = std::max(report->stages.stream_seconds,
                                             shard.stages.stream_seconds);
    report->stages.finalize_seconds = std::max(
        report->stages.finalize_seconds, shard.stages.finalize_seconds);
    report->stages.batches += shard.stages.batches;
    report->peak_words += shard.peak_words;
    report->current_words += shard.current_words;
    stats.shard_edges[w] = shard.edges_delivered;
    stats.shard_cover_sizes[w] = shard.solution.cover.size();
    stats.shard_peak_words[w] = shard.peak_words;
    stats.shard_stream_seconds[w] = shard.stages.stream_seconds;
  }
  report->algorithm_name = shard_reports[0].algorithm_name;
  report->meter_breakdown = shard_reports[0].meter_breakdown;

  if (report->error.empty() && all_completed) {
    const auto merge_start = Clock::now();
    std::vector<const CoverSolution*> locals;
    locals.reserve(shards);
    for (uint32_t w = 0; w < shards; ++w)
      locals.push_back(&shard_reports[w].solution);
    CertificateMerge merge =
        MergeCertificates(locals, shards, merge_threshold);
    stats.merge_threshold = merge.merge_threshold;
    stats.max_message_words = merge.max_message_words;
    stats.message_words_bound = merge.message_words_bound;
    stats.threshold_sets = merge.threshold_sets;
    stats.patched_sets = merge.patched_sets;
    report->solution = std::move(merge.solution);
    report->uncovered_elements = CountUncovered(report->solution);
    report->completed = true;
    stats.merge_seconds = Seconds(merge_start);
  }
}

}  // namespace internal
}  // namespace engine
}  // namespace setcover
