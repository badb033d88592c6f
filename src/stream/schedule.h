#ifndef SETCOVER_STREAM_SCHEDULE_H_
#define SETCOVER_STREAM_SCHEDULE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "stream/edge_source.h"

namespace setcover {

/// Declarative arrival schedule for a run's source stage: how the
/// underlying one-pass record sequence is presented to the algorithm.
/// The default (passes == 1, window == 0) is the plain one-pass feed
/// and adds no wrapper at all.
///
/// Schedules compose as source backends: the engine layers
/// ScheduledSource *under* the fault injector, so fault decisions key
/// on scheduled positions and the whole stack stays deterministic and
/// (for pass schedules) checkpointable.
struct ScheduleSpec {
  /// k >= 1 repeated passes over the underlying stream (Chakrabarti–
  /// Wirth style multi-pass). Each pass replays the identical record
  /// sequence via SeekTo(0); scheduled position p maps to pass p / N,
  /// record p % N, so checkpoints compose with multi-pass runs.
  uint32_t passes = 1;

  /// Sliding-window replay: keep the last `window` delivered records
  /// and re-deliver them (oldest first) after every `replay_every`
  /// fresh records — a duplicate-heavy arrival feed. Replayed records
  /// do not advance Position() and are flagged via HasPendingReplay(),
  /// so supervisors never checkpoint mid-replay; window schedules are
  /// not resumable (the window contents are not position-addressable)
  /// and the engine rejects them combined with checkpointing.
  uint32_t window = 0;
  uint32_t replay_every = 0;

  /// True when the schedule is the plain one-pass feed.
  bool Trivial() const { return passes <= 1 && window == 0; }

  bool Validate(std::string* error) const;
};

/// EdgeSource combinator applying a ScheduleSpec to an inner source.
/// Non-owning: the inner source must outlive the schedule. Fresh
/// records pass through in the inner source's spans; a window pull
/// stops at the record that triggers a replay, and the replay is served
/// out of the schedule's own copy of the window.
class ScheduledSource : public EdgeSource {
 public:
  ScheduledSource(EdgeSource* inner, const ScheduleSpec& spec);

  const StreamMetadata& Meta() const override { return inner_->Meta(); }
  EdgeBatch NextBatch(size_t max_edges) override;

  /// Scheduled coordinate: pass * N + inner position for pass
  /// schedules; replayed window records do not advance it.
  size_t Position() const override;
  bool SeekTo(size_t position) override;
  bool HasPendingReplay() const override;
  bool Truncated() const override { return inner_->Truncated(); }

 private:
  EdgeSource* inner_;
  ScheduleSpec spec_;
  size_t inner_length_;
  uint32_t pass_ = 0;

  // Sliding-window replay state; the replay is owed while
  // replay_pos_ < replay_.size().
  std::deque<Edge> window_;
  std::vector<Edge> replay_;
  size_t replay_pos_ = 0;
  uint32_t fresh_ = 0;
};

}  // namespace setcover

#endif  // SETCOVER_STREAM_SCHEDULE_H_
