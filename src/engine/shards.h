#ifndef SETCOVER_ENGINE_SHARDS_H_
#define SETCOVER_ENGINE_SHARDS_H_

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "run/checkpoint.h"
#include "stream/edge_source.h"

namespace setcover {
namespace engine {
namespace internal {

/// Machinery of the W set-modulo pipelines that Execute() pulls
/// through and a Session pushes into: the owner hot-loop dispatch, the
/// per-shard stream filter, the W-slot checkpoint file, and the
/// deterministic-protocol cover merge. Internal to src/engine/.

using CheckpointSink = std::function<bool(const Checkpoint&, std::string*)>;

// Owner functors of the W > 1 shard screens: shard s % W owns set s,
// a mask at power-of-two W (screened by the select_masked_pairs SIMD
// kernel) and one integer modulo per edge otherwise.
struct MaskOwner {
  uint32_t mask;
  uint32_t operator()(SetId s) const { return s & mask; }
};
struct ModOwner {
  uint32_t shards;
  uint32_t operator()(SetId s) const { return s % shards; }
};

template <typename Fn>
void WithOwner(uint32_t shards, Fn&& fn) {
  if ((shards & (shards - 1)) == 0) {
    fn(MaskOwner{shards - 1});
  } else {
    fn(ModOwner{shards});
  }
}

/// Shard `shard`'s view of a W > 1 run: exactly its slice of the
/// (possibly scheduled, possibly fault-injected) record sequence. Each
/// pull screens the inner source's spans into one batch of up to
/// `max_edges` owned records — the run's only copy of them. A kCorrupt
/// record reaches exactly one shard, the owner of its (possibly
/// damaged) set id, so the aggregate corrupt count stays W-invariant.
///
/// The filter stops right after the record that fills the batch and
/// keeps the rest of the inner span for the next pull, so Position()
/// is always the inner position right after the shard's last delivered
/// record — the coordinate the shard's checkpoint slot stores. An inner
/// event met after some owned records is held back and returned by the
/// next pull.
class ShardFilterSource : public EdgeSource {
 public:
  ShardFilterSource(EdgeSource* inner, uint32_t shard, uint32_t shards)
      : inner_(inner), shard_(shard), shards_(shards) {}

  const StreamMetadata& Meta() const override { return inner_->Meta(); }
  EdgeBatch NextBatch(size_t max_edges) override;
  size_t Position() const override {
    return held_ ? held_position_ : inner_->Position() - rest_.size();
  }
  bool SeekTo(size_t position) override {
    rest_ = {};
    held_ = false;
    return inner_->SeekTo(position);
  }
  bool HasPendingReplay() const override {
    if (held_) return held_pending_replay_;
    return rest_.empty() && inner_->HasPendingReplay();
  }
  bool Truncated() const override { return inner_->Truncated(); }

 private:
  uint32_t OwnerOf(SetId s) const { return s % shards_; }
  /// Copies the shard's records of `slice` to `out`, in order, and
  /// returns how many; `out` has room for the whole slice.
  size_t Screen(std::span<const Edge> slice, Edge* out) const;

  EdgeSource* inner_;
  uint32_t shard_;
  uint32_t shards_;

  std::vector<Edge> out_;
  /// The unscreened tail of the inner source's last kOk span.
  std::span<const Edge> rest_;
  /// An inner event held back behind a batch of owned records, and the
  /// position and replay state right after that batch's last record.
  bool held_ = false;
  EdgeBatch held_event_;
  Edge held_corrupt_{0, 0};
  size_t held_position_ = 0;
  bool held_pending_replay_ = false;
};

/// Loads the resume slots for a W-way run from `path`, refusing a file
/// written at another W.
bool LoadResumeSlots(const std::string& path, uint32_t shards,
                     std::vector<std::optional<Checkpoint>>* slots,
                     std::string* error);

/// The one checkpoint sidecar of an Execute() run: thread-safe slot
/// folding, rewritten atomically (SaveShardedCheckpoint) whenever any
/// shard reaches its checkpoint cadence.
class AggregateCheckpointWriter {
 public:
  AggregateCheckpointWriter(std::string path, uint32_t shards,
                            std::vector<std::optional<Checkpoint>> slots);

  /// Folds shard `w`'s snapshot in and rewrites the sidecar. Safe from
  /// concurrent shard threads.
  bool Store(uint32_t shard, const Checkpoint& checkpoint,
             std::string* error);

  /// A DriveOptions::checkpoint_sink bound to one shard's slot.
  CheckpointSink SinkFor(uint32_t shard);

 private:
  std::mutex mutex_;
  std::string path_;
  ShardedCheckpoint aggregate_;
};

/// One deterministic-protocol merge of W local covers (paper §3):
/// certificate groups become shard-disjoint candidate sets,
/// threshold-greedy at τ = max(1, ⌊√(n·W)⌋) picks the heavy
/// candidates, the patching scan covers the rest. Candidate order is
/// the certificate scan order (party-major, elements ascending), so
/// the merge is deterministic.
struct CertificateMerge {
  CoverSolution solution;
  uint32_t merge_threshold = 0;
  uint64_t max_message_words = 0;
  uint64_t message_words_bound = 0;
  uint64_t threshold_sets = 0;
  uint64_t patched_sets = 0;
};
CertificateMerge MergeCertificates(
    const std::vector<const CoverSolution*>& locals, uint32_t parties);

/// Folds W completed shard reports into `report`: counter sums, stage
/// maxima, per-shard stats, then the certificate merge. At W == 1 the
/// single shard report *is* the run (merge skipped). `report` enters
/// with its own setup_seconds stamped; the shards' setup time adds on.
void AggregateShardReports(RunReport* report,
                           std::vector<RunReport>& shard_reports,
                           uint32_t shards);

}  // namespace internal
}  // namespace engine
}  // namespace setcover

#endif  // SETCOVER_ENGINE_SHARDS_H_
