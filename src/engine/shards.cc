#include "engine/shards.h"

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "comm/deterministic_protocol.h"
#include "comm/protocol.h"
#include "engine/pump.h"
#include "util/id_map.h"
#include "util/math.h"
#include "util/simd.h"

namespace setcover {
namespace engine {
namespace internal {
namespace {

// The shortest slice the shard filter screens at once. A slice longer
// than the records a batch still needs may pass the record that fills
// it; the filter then cuts the slice right after that record.
constexpr size_t kMinScreen = 256;

// The mask owner's screen reads an Edge array as interleaved
// (set, element) pairs.
static_assert(sizeof(Edge) == 2 * sizeof(uint32_t) &&
              offsetof(Edge, set) == 0 &&
              offsetof(Edge, element) == sizeof(uint32_t));

}  // namespace

size_t ShardFilterSource::Screen(std::span<const Edge> slice,
                                 Edge* out) const {
  size_t found = 0;
  WithOwner(shards_, [&](auto owner) {
    if constexpr (std::is_same_v<decltype(owner), MaskOwner>) {
      found = simd::Active().select_masked_pairs(
          reinterpret_cast<const uint32_t*>(slice.data()), slice.size(),
          owner.mask, shard_, reinterpret_cast<uint32_t*>(out));
    } else {
      for (const Edge& e : slice) {
        out[found] = e;  // branch-free emit
        found += owner(e.set) == shard_ ? 1 : 0;
      }
    }
  });
  return found;
}

EdgeBatch ShardFilterSource::NextBatch(size_t max_edges) {
  if (held_) {
    held_ = false;
    return held_event_;
  }
  if (out_.size() < max_edges + kMinScreen) {
    out_.resize(max_edges + kMinScreen);
  }
  size_t filled = 0;
  for (;;) {
    if (rest_.empty()) {
      // Records the inner source replays at one position come one per
      // pull, so rest_ only ever spans consecutive positions.
      const EdgeBatch batch =
          inner_->NextBatch(inner_->HasPendingReplay() ? 1 : max_edges);
      if (batch.status == ReadStatus::kOk) {
        rest_ = batch.edges;
      } else if (batch.status == ReadStatus::kCorrupt &&
                 OwnerOf(batch.edges[0].set) != shard_) {
        continue;  // another shard's record
      } else if (filled == 0) {
        return batch;
      } else {
        held_ = true;
        held_event_ = batch;
        if (batch.status == ReadStatus::kCorrupt) {
          held_corrupt_ = batch.edges[0];
          held_event_.edges = {&held_corrupt_, 1};
        }
        return {ReadStatus::kOk, {out_.data(), filled}};
      }
    }
    const size_t need = max_edges - filled;
    const std::span<const Edge> slice =
        rest_.first(std::min(rest_.size(), std::max(need, kMinScreen)));
    const size_t found = Screen(slice, out_.data() + filled);
    if (found == 0) {
      rest_ = rest_.subspan(slice.size());
      continue;
    }
    // The last record kept is the need-th owned one when the slice
    // fills the batch, the slice's last owned one otherwise.
    const size_t kept = std::min(found, need);
    size_t last = slice.size();
    for (size_t surplus = found - kept;;) {
      --last;
      if (OwnerOf(slice[last].set) != shard_) continue;
      if (surplus == 0) break;
      --surplus;
    }
    filled += kept;
    if (filled == max_edges) {
      rest_ = rest_.subspan(last + 1);
      return {ReadStatus::kOk, {out_.data(), filled}};
    }
    rest_ = rest_.subspan(slice.size());
    held_position_ =
        inner_->Position() - rest_.size() - (slice.size() - last - 1);
    held_pending_replay_ = rest_.empty() && last + 1 == slice.size() &&
                           inner_->HasPendingReplay();
  }
}

bool LoadResumeSlots(const std::string& path, uint32_t shards,
                     std::vector<std::optional<Checkpoint>>* slots,
                     std::string* error) {
  std::optional<ShardedCheckpoint> loaded =
      LoadShardedCheckpoint(path, error);
  if (!loaded) return false;
  if (loaded->shards != shards) {
    *error = "checkpoint was written by a " +
             std::to_string(loaded->shards) + "-shard run, not " +
             std::to_string(shards) + (shards == 1 ? " shard" : " shards");
    return false;
  }
  *slots = std::move(loaded->shard_states);
  return true;
}

AggregateCheckpointWriter::AggregateCheckpointWriter(
    std::string path, uint32_t shards,
    std::vector<std::optional<Checkpoint>> slots)
    : path_(std::move(path)) {
  aggregate_.shards = shards;
  aggregate_.shard_states = std::move(slots);
  aggregate_.shard_states.resize(shards);
}

bool AggregateCheckpointWriter::Store(uint32_t shard,
                                      const Checkpoint& checkpoint,
                                      std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  aggregate_.shard_states[shard] = checkpoint;
  return SaveShardedCheckpoint(aggregate_, path_, error);
}

CheckpointSink AggregateCheckpointWriter::SinkFor(uint32_t shard) {
  return [this, shard](const Checkpoint& checkpoint, std::string* error) {
    return Store(shard, checkpoint, error);
  };
}

CertificateMerge MergeCertificates(
    const std::vector<const CoverSolution*>& locals, uint32_t parties) {
  CertificateMerge merge;
  const uint32_t n = uint32_t(locals.empty() ? 0
                                             : locals[0]->certificate.size());
  // Each party's certified (set -> covered elements) groups become the
  // candidate sets of a t = W party instance — the set-modulo split
  // makes candidates party-disjoint. Candidates are numbered in order of
  // first appearance (party-major, elements ascending) and owned by the
  // first party that certified them, so a set two parties certify
  // (which the split never produces) is one candidate holding both
  // parties' elements. One flat set -> candidate index (util/id_map.h)
  // numbers them, and the (candidate, element) edges go straight to
  // FromEdges. A certificate names only sets of its party's cover, so
  // the index starts sized for Σ|cover| candidates.
  size_t certified = 0;
  size_t cover_sets = 0;
  for (const CoverSolution* local : locals) {
    cover_sets += local->cover.size();
    for (SetId s : local->certificate) certified += s != kNoSet ? 1 : 0;
  }
  IdMap index(std::min(cover_sets, certified));
  std::vector<SetId> candidate_set;
  std::vector<uint32_t> candidate_owner;
  std::vector<Edge> edges;
  edges.reserve(certified);
  for (uint32_t w = 0; w < locals.size(); ++w) {
    const std::vector<SetId>& certificate = locals[w]->certificate;
    for (ElementId u = 0; u < certificate.size(); ++u) {
      const SetId s = certificate[u];
      if (s == kNoSet) continue;
      auto [candidate, inserted] = index.Slot(s);
      if (inserted) {
        candidate = uint32_t(candidate_set.size());
        candidate_set.push_back(s);
        candidate_owner.push_back(w);
      }
      edges.push_back({candidate, u});
    }
  }

  const uint32_t tau =
      std::max<uint32_t>(1, uint32_t(ISqrt(uint64_t(n) * parties)));
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
                           uint32_t shards) {
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
    CertificateMerge merge = MergeCertificates(locals, shards);
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
