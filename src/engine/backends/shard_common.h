#ifndef SETCOVER_ENGINE_BACKENDS_SHARD_COMMON_H_
#define SETCOVER_ENGINE_BACKENDS_SHARD_COMMON_H_

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

/// Machinery of the W set-partitioned pipelines that Execute() runs and
/// that ShardedSession pushes into: the partitioner hot-loop dispatch,
/// the per-shard stream filter, the aggregate checkpoint sidecar, and
/// the deterministic-protocol cover merge. Internal to src/engine/.

using CheckpointSink = std::function<bool(const Checkpoint&, std::string*)>;

// Owner functors for the hot compaction loops: W = 1 owns everything
// (the fast loops then skip compaction altogether), the set-modulo
// default compiles to a mask (power-of-two W) or one integer modulo per
// edge; only custom partitioners pay a std::function call.
struct KeepAll {
  uint32_t operator()(SetId) const { return 0; }
};
struct MaskOwner {
  uint32_t mask;
  uint32_t operator()(SetId s) const { return s & mask; }
};
struct ModOwner {
  uint32_t shards;
  uint32_t operator()(SetId s) const { return s % shards; }
};
struct FnOwner {
  const std::function<uint32_t(SetId, uint32_t)>* fn;
  uint32_t shards;
  uint32_t operator()(SetId s) const { return (*fn)(s, shards); }
};

template <typename Fn>
void WithOwner(const ShardPartitioner& partitioner, uint32_t shards,
               Fn&& fn) {
  if (shards == 1) {
    fn(KeepAll{});
  } else if (!partitioner.index) {
    if ((shards & (shards - 1)) == 0) {
      fn(MaskOwner{shards - 1});
    } else {
      fn(ModOwner{shards});
    }
  } else {
    fn(FnOwner{&partitioner.index, shards});
  }
}

/// Supervised-path filter: surfaces exactly this shard's slice of the
/// (possibly fault-injected) record sequence. Stateless, so the inner
/// source's positions remain the checkpoint coordinate — Position,
/// SeekTo, and replay state pass straight through.
class ShardFilterSource : public EdgeSource {
 public:
  ShardFilterSource(EdgeSource* inner, uint32_t shard, uint32_t shards,
                    const ShardPartitioner& partitioner)
      : inner_(inner),
        shard_(shard),
        shards_(shards),
        partitioner_(partitioner) {}

  const StreamMetadata& Meta() const override { return inner_->Meta(); }

  ReadStatus Next(Edge* edge) override {
    for (;;) {
      const ReadStatus status = inner_->Next(edge);
      if (status == ReadStatus::kTransient || status == ReadStatus::kEnd) {
        return status;
      }
      // kOk and kCorrupt records both carry a set id (a corrupt one
      // possibly damaged); exactly one shard surfaces each record, so
      // the aggregate corrupt count stays W-invariant.
      if (OwnerOf(edge->set) == shard_) return status;
    }
  }

  size_t Position() const override { return inner_->Position(); }
  bool SeekTo(size_t position) override { return inner_->SeekTo(position); }
  bool HasPendingReplay() const override {
    return inner_->HasPendingReplay();
  }
  bool Truncated() const override { return inner_->Truncated(); }

 private:
  uint32_t OwnerOf(SetId s) const {
    return partitioner_.index ? partitioner_.index(s, shards_)
                              : s % shards_;
  }

  EdgeSource* inner_;
  uint32_t shard_;
  uint32_t shards_;
  const ShardPartitioner& partitioner_;
};

/// Loads the resume slots for a W-way run from `path`. W == 1 reads a
/// plain single-run SCKP sidecar; W > 1 reads the aggregate SCSH format
/// and refuses a shard-count or partitioner mismatch.
bool LoadResumeSlots(const std::string& path, uint32_t shards,
                     const std::string& partitioner_name,
                     std::vector<std::optional<Checkpoint>>* slots,
                     std::string* error);

/// The one aggregate checkpoint sidecar of a W-way run: thread-safe
/// slot folding, rewritten atomically whenever any shard reaches its
/// checkpoint cadence. At W == 1 it degenerates to the plain single-run
/// SaveCheckpoint (matching LoadResumeSlots).
class AggregateCheckpointWriter {
 public:
  AggregateCheckpointWriter(std::string path, uint32_t shards,
                            std::string partitioner_name,
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
/// threshold-greedy at τ = √(n·W) (unless overridden) picks the heavy
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
    const std::vector<const CoverSolution*>& locals, uint32_t parties,
    uint32_t merge_threshold_override);

/// Folds W completed shard reports into `report`: counter sums, stage
/// maxima, per-shard stats, then the certificate merge. At W == 1 the
/// single shard report *is* the run (merge skipped); `report` enters
/// with setup_seconds stamped and keeps it.
void AggregateShardReports(RunReport* report,
                           std::vector<RunReport>& shard_reports,
                           uint32_t shards, uint32_t merge_threshold);

}  // namespace internal
}  // namespace engine
}  // namespace setcover

#endif  // SETCOVER_ENGINE_BACKENDS_SHARD_COMMON_H_
