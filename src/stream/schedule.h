#ifndef SETCOVER_STREAM_SCHEDULE_H_
#define SETCOVER_STREAM_SCHEDULE_H_

#include <cstdint>
#include <string>

#include "stream/edge_source.h"

namespace setcover {

/// Declarative arrival schedule for a run's source stage: how the
/// underlying one-pass record sequence is presented to the algorithm.
/// The default (passes == 1) is the plain one-pass feed and adds no
/// wrapper at all.
///
/// Schedules compose as source backends: the engine layers
/// ScheduledSource *under* the fault injector, so fault decisions key
/// on scheduled positions and the whole stack stays deterministic and
/// checkpointable.
struct ScheduleSpec {
  /// k >= 1 repeated passes over the underlying stream (Chakrabarti–
  /// Wirth style multi-pass). Each pass replays the identical record
  /// sequence via SeekTo(0); scheduled position p maps to pass p / N,
  /// record p % N, so checkpoints compose with multi-pass runs.
  uint32_t passes = 1;

  /// True when the schedule is the plain one-pass feed.
  bool Trivial() const { return passes <= 1; }

  bool Validate(std::string* error) const;
};

/// EdgeSource combinator applying a ScheduleSpec to an inner source.
/// Non-owning: the inner source must outlive the schedule. Records pass
/// through in the inner source's spans.
class ScheduledSource : public EdgeSource {
 public:
  ScheduledSource(EdgeSource* inner, const ScheduleSpec& spec);

  const StreamMetadata& Meta() const override { return inner_->Meta(); }
  EdgeBatch NextBatch(size_t max_edges) override;

  /// Scheduled coordinate: pass * N + inner position.
  size_t Position() const override;
  bool SeekTo(size_t position) override;
  bool HasPendingReplay() const override {
    return inner_->HasPendingReplay();
  }
  bool Truncated() const override { return inner_->Truncated(); }

 private:
  EdgeSource* inner_;
  ScheduleSpec spec_;
  size_t inner_length_;
  uint32_t pass_ = 0;
};

}  // namespace setcover

#endif  // SETCOVER_STREAM_SCHEDULE_H_
