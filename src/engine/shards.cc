#include "engine/shards.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "comm/deterministic_protocol.h"
#include "comm/protocol.h"
#include "engine/pump.h"
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

bool SaveSlots(const ShardedCheckpoint& slots, const std::string& path,
               std::string* error) {
  if (slots.shards == 1) {
    // One-pipeline runs keep the plain single-run sidecar format.
    return SaveCheckpoint(*slots.shard_states[0], path, error);
  }
  return SaveShardedCheckpoint(slots, path, error);
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
  aggregate_.shard_states[shard] = checkpoint;
  return SaveSlots(aggregate_, path_, error);
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
  // candidates party-disjoint. Candidates are numbered in order of first
  // appearance (party-major, elements ascending) and owned by the first
  // party that certified them, so a set two parties certify (which no
  // pure partitioner produces) is one candidate holding both parties'
  // elements. One flat open-addressing index (linear probing, load
  // ≤ 1/2) maps set -> candidate, and the (candidate, element) edges go
  // straight to FromEdges. A certificate names only sets of its party's
  // cover, so the index starts sized for Σ|cover| candidates; it still
  // doubles whenever the load would pass 1/2.
  size_t certified = 0;
  size_t cover_sets = 0;
  for (const CoverSolution* local : locals) {
    cover_sets += local->cover.size();
    for (SetId s : local->certificate) certified += s != kNoSet ? 1 : 0;
  }
  struct Slot {
    SetId set;  // kNoSet marks an empty slot
    uint32_t candidate;
  };
  int bits = std::bit_width(std::min(cover_sets, certified)) + 1;
  std::vector<Slot> index;
  std::vector<SetId> candidate_set;
  std::vector<uint32_t> candidate_owner;
  auto slot_of = [&](SetId s) {
    // Fibonacci hashing: the top bits of s·2^64/φ spread the
    // partitioner's shared low bits across the table.
    size_t at = size_t((uint64_t{s} * 0x9E3779B97F4A7C15ull) >> (64 - bits));
    while (index[at].set != s && index[at].set != kNoSet) {
      at = (at + 1) & (index.size() - 1);
    }
    return at;
  };
  auto rebuild = [&] {
    index.assign(size_t{1} << bits, Slot{kNoSet, 0});
    for (uint32_t c = 0; c < candidate_set.size(); ++c) {
      index[slot_of(candidate_set[c])] = {candidate_set[c], c};
    }
  };
  rebuild();
  std::vector<Edge> edges;
  edges.reserve(certified);
  for (uint32_t w = 0; w < locals.size(); ++w) {
    const std::vector<SetId>& certificate = locals[w]->certificate;
    for (ElementId u = 0; u < certificate.size(); ++u) {
      const SetId s = certificate[u];
      if (s == kNoSet) continue;
      size_t at = slot_of(s);
      if (index[at].set == kNoSet) {
        if (2 * (candidate_set.size() + 1) > index.size()) {
          ++bits;
          rebuild();
          at = slot_of(s);
        }
        index[at] = {s, uint32_t(candidate_set.size())};
        candidate_set.push_back(s);
        candidate_owner.push_back(w);
      }
      edges.push_back({index[at].candidate, u});
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

  if (candidate_set.empty()) {
    merge.solution.cover.clear();
    merge.solution.certificate.assign(n, kNoSet);
    return merge;
  }
  const SetCoverInstance merged = SetCoverInstance::FromEdges(
      n, uint32_t(candidate_set.size()), edges);
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
  double setup_seconds = 0.0;
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
    // Every shard's position indexes the whole stream: the run picked
    // up where its earliest shard did.
    report->resumed_at = w == 0 ? shard.resumed_at
                                : std::min(report->resumed_at,
                                           shard.resumed_at);
    report->degraded = report->degraded || shard.degraded;
    // W pipelines run concurrently: the slowest shard is the stage's
    // wall-clock; batches and space add up (the run really holds W
    // working sets).
    setup_seconds = std::max(setup_seconds, shard.stages.setup_seconds);
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
  report->stages.setup_seconds += setup_seconds;
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
