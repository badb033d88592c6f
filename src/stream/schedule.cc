#include "stream/schedule.h"

namespace setcover {

bool ScheduleSpec::Validate(std::string* error) const {
  if (passes == 0) {
    if (error != nullptr) *error = "schedule needs passes >= 1";
    return false;
  }
  return true;
}

ScheduledSource::ScheduledSource(EdgeSource* inner, const ScheduleSpec& spec)
    : inner_(inner), spec_(spec), inner_length_(inner->Meta().stream_length) {}

EdgeBatch ScheduledSource::NextBatch(size_t max_edges) {
  for (;;) {
    const EdgeBatch batch = inner_->NextBatch(max_edges);
    if (batch.status != ReadStatus::kEnd) return batch;
    // A truncated/damaged pass ends the whole schedule: replaying a
    // stream that did not deliver its N records would feed the
    // algorithm a different sequence per pass.
    if (inner_->Truncated()) return batch;
    if (pass_ + 1 >= spec_.passes) return batch;
    if (!inner_->SeekTo(0)) return batch;
    ++pass_;
  }
}

size_t ScheduledSource::Position() const {
  return size_t(pass_) * inner_length_ + inner_->Position();
}

bool ScheduledSource::SeekTo(size_t position) {
  size_t pass = inner_length_ == 0 ? 0 : position / inner_length_;
  size_t offset = inner_length_ == 0 ? 0 : position % inner_length_;
  if (pass >= spec_.passes) {
    // position == passes * N is the end of the schedule: park the
    // cursor at the end of the final pass.
    if (pass == spec_.passes && offset == 0 && inner_length_ > 0) {
      pass = spec_.passes - 1;
      offset = inner_length_;
    } else {
      return false;
    }
  }
  if (!inner_->SeekTo(offset)) return false;
  pass_ = uint32_t(pass);
  return true;
}

}  // namespace setcover
