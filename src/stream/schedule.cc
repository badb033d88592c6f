#include "stream/schedule.h"

#include <algorithm>

namespace setcover {

bool ScheduleSpec::Validate(std::string* error) const {
  if (passes == 0) {
    if (error != nullptr) *error = "schedule needs passes >= 1";
    return false;
  }
  if (window > 0 && replay_every == 0) {
    if (error != nullptr)
      *error = "windowed schedule needs replay_every >= 1";
    return false;
  }
  if (window == 0 && replay_every > 0) {
    if (error != nullptr)
      *error = "schedule sets replay_every without a window";
    return false;
  }
  return true;
}

ScheduledSource::ScheduledSource(EdgeSource* inner, const ScheduleSpec& spec)
    : inner_(inner), spec_(spec), inner_length_(inner->Meta().stream_length) {}

EdgeBatch ScheduledSource::NextBatch(size_t max_edges) {
  // Owed window replay is served before any fresh record.
  if (replay_pos_ < replay_.size()) {
    const size_t take = std::min(max_edges, replay_.size() - replay_pos_);
    const std::span<const Edge> batch(replay_.data() + replay_pos_, take);
    replay_pos_ += take;
    return {ReadStatus::kOk, batch};
  }
  for (;;) {
    // A window pull ends at the record that triggers the next replay.
    const size_t want =
        spec_.window > 0
            ? std::min<size_t>(max_edges, spec_.replay_every - fresh_)
            : max_edges;
    const EdgeBatch batch = inner_->NextBatch(want);
    if (batch.status == ReadStatus::kEnd) {
      // A truncated/damaged pass ends the whole schedule: replaying a
      // stream that did not deliver its N records would feed the
      // algorithm a different sequence per pass.
      if (inner_->Truncated()) return batch;
      if (pass_ + 1 >= spec_.passes) return batch;
      if (!inner_->SeekTo(0)) return batch;
      ++pass_;
      window_.clear();
      fresh_ = 0;
      continue;
    }
    if (batch.status == ReadStatus::kOk && spec_.window > 0) {
      for (const Edge& edge : batch.edges) {
        window_.push_back(edge);
        if (window_.size() > spec_.window) window_.pop_front();
      }
      fresh_ += uint32_t(batch.edges.size());
      if (fresh_ >= spec_.replay_every) {
        fresh_ = 0;
        replay_.assign(window_.begin(), window_.end());
        replay_pos_ = 0;
      }
    }
    return batch;
  }
}

size_t ScheduledSource::Position() const {
  return size_t(pass_) * inner_length_ + inner_->Position();
}

bool ScheduledSource::SeekTo(size_t position) {
  if (spec_.window > 0) {
    // Window contents are not position-addressable; only a full rewind
    // is supported (and the engine rejects checkpointing these feeds).
    if (position != 0) return false;
    if (!inner_->SeekTo(0)) return false;
    pass_ = 0;
    window_.clear();
    replay_.clear();
    replay_pos_ = 0;
    fresh_ = 0;
    return true;
  }
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

bool ScheduledSource::HasPendingReplay() const {
  return replay_pos_ < replay_.size() || inner_->HasPendingReplay();
}

}  // namespace setcover
