#ifndef SETCOVER_ENGINE_PUMP_H_
#define SETCOVER_ENGINE_PUMP_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "engine/engine.h"
#include "run/checkpoint.h"

namespace setcover {
namespace engine {
namespace internal {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

inline uint64_t CountUncovered(const CoverSolution& solution) {
  uint64_t uncovered = 0;
  for (SetId s : solution.certificate)
    if (s == kNoSet) ++uncovered;
  return uncovered;
}

/// One pipeline of a run: its algorithm plus the RunReport its counters
/// accumulate in. Every drive loop in src/engine/ feeds one — Drive()'s
/// per-record supervisor, the fast loops of Execute(), and each of a
/// Session's W pipelines — and keeps only its own cut-point logic
/// (where batches end, when to checkpoint, when to stop). The pump is
/// push-shaped: start, feed batches, snapshot, finish. Feed() is the
/// engine's only ProcessEdgeBatch call. Internal to src/engine/.
class Pump {
 public:
  /// Drives a caller-owned algorithm, which must outlive the pump.
  explicit Pump(StreamingSetCoverAlgorithm& algorithm);
  /// Drives (and owns) `algorithm`.
  explicit Pump(std::unique_ptr<StreamingSetCoverAlgorithm> algorithm);

  /// Starts a fresh stream of shape `meta`.
  void Begin(const StreamMetadata& meta);

  /// Starts from `checkpoint` instead: refuses a checkpoint written by
  /// another algorithm or for another stream shape, decodes the state,
  /// and restores the carried counters. False with *error.
  bool Resume(const StreamMetadata& meta, const Checkpoint& checkpoint,
              std::string* error);

  /// Applies one batch and counts it.
  void Feed(std::span<const Edge> batch);

  /// Feed() through ProcessBatchCheckedForEquivalence: the debug-build
  /// batch/per-edge spot check of the in-memory fast loop.
  void FeedSpotChecked(std::span<const Edge> batch);

  /// The recoverable state at stream `position` and exactly-once
  /// `sequence` (0 outside sessions).
  Checkpoint Snapshot(uint64_t position, uint64_t sequence) const;

  /// Finalizes the algorithm into the report: solution, timing,
  /// uncovered count, meter.
  void Finish();

  /// Records the meter on a path that stops without finalizing.
  void StampMeter();

  RunReport& report() { return report_; }
  const RunReport& report() const { return report_; }
  const StreamingSetCoverAlgorithm& algorithm() const { return *algorithm_; }

 private:
  std::unique_ptr<StreamingSetCoverAlgorithm> owned_;
  StreamingSetCoverAlgorithm* algorithm_;
  StreamMetadata meta_;
  RunReport report_;
};

}  // namespace internal
}  // namespace engine
}  // namespace setcover

#endif  // SETCOVER_ENGINE_PUMP_H_
