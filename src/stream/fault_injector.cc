#include "stream/fault_injector.h"

#include <algorithm>

namespace setcover {
namespace {

// SplitMix64 finalizer — a stateless position hash, so fault decisions
// are a pure function of (seed, position) and survive SeekTo replay.
uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultSchedule FaultSchedule::AllKinds(uint64_t seed, double rate_each) {
  FaultSchedule schedule;
  schedule.seed = seed;
  schedule.transient_rate = rate_each;
  schedule.duplicate_rate = rate_each;
  schedule.drop_rate = rate_each;
  schedule.corrupt_rate = rate_each;
  return schedule;
}

FaultInjector::FaultInjector(EdgeSource* base, FaultSchedule schedule)
    : base_(base), schedule_(schedule) {
  double sum = schedule_.transient_rate + schedule_.duplicate_rate +
               schedule_.drop_rate + schedule_.corrupt_rate;
  scale_ = sum > 1.0 ? 1.0 / sum : 1.0;
}

double FaultInjector::UniformAt(size_t p) const {
  return double(Mix64(schedule_.seed ^ (uint64_t{p} + 1) *
                                           0xD1B54A32D192ED03ULL) >>
                11) *
         0x1.0p-53;
}

FaultKind FaultInjector::KindAt(size_t p) const {
  double u = UniformAt(p);
  double edge = schedule_.transient_rate * scale_;
  if (u < edge) return FaultKind::kTransient;
  edge += schedule_.duplicate_rate * scale_;
  if (u < edge) return FaultKind::kDuplicate;
  edge += schedule_.drop_rate * scale_;
  if (u < edge) return FaultKind::kDrop;
  edge += schedule_.corrupt_rate * scale_;
  if (u < edge) return FaultKind::kCorrupt;
  return FaultKind::kNone;
}

size_t FaultInjector::Position() const {
  return duplicate_pending_ ? pending_position_ : base_->Position();
}

bool FaultInjector::SeekTo(size_t position) {
  if (!base_->SeekTo(position)) return false;
  duplicate_pending_ = false;
  transient_delivered_ = 0;
  return true;
}

EdgeBatch FaultInjector::NextBatch(size_t max_edges) {
  if (duplicate_pending_) {
    duplicate_pending_ = false;
    return {ReadStatus::kOk, {&duplicate_, 1}};
  }
  for (;;) {
    const size_t p = base_->Position();
    const FaultKind kind = KindAt(p);
    if (kind == FaultKind::kTransient &&
        transient_delivered_ < schedule_.transient_failures) {
      ++transient_delivered_;
      ++delivered_[static_cast<size_t>(FaultKind::kTransient)];
      return {ReadStatus::kTransient, {}};
    }
    // A record at a transient position reads cleanly once its failures
    // are delivered. While the base replays records at one position
    // (HasPendingReplay), every record there gets that position's
    // verdict, so those are pulled one at a time.
    size_t run = 1;
    if (kind == FaultKind::kNone || kind == FaultKind::kTransient) {
      if (!base_->HasPendingReplay()) {
        while (run < max_edges && KindAt(p + run) == FaultKind::kNone) ++run;
      }
    }
    const EdgeBatch batch = base_->NextBatch(run);
    if (batch.status != ReadStatus::kOk) return batch;
    transient_delivered_ = 0;
    switch (kind) {
      case FaultKind::kDrop:
        ++delivered_[static_cast<size_t>(FaultKind::kDrop)];
        continue;  // the record is lost; move on to the next one
      case FaultKind::kDuplicate:
        duplicate_ = batch.edges[0];
        duplicate_pending_ = true;
        pending_position_ = p;
        ++delivered_[static_cast<size_t>(FaultKind::kDuplicate)];
        return batch;
      case FaultKind::kCorrupt: {
        // Garble both ids out of range — detectably damaged, the way a
        // checksum-failing record surfaces after decoding.
        uint64_t h = Mix64(schedule_.seed ^ uint64_t{p} ^
                           0xC2B2AE3D27D4EB4FULL);
        corrupt_.set = Meta().num_sets + static_cast<uint32_t>(h % 1009);
        corrupt_.element =
            Meta().num_elements + static_cast<uint32_t>((h >> 32) % 1013);
        ++delivered_[static_cast<size_t>(FaultKind::kCorrupt)];
        return {ReadStatus::kCorrupt, {&corrupt_, 1}};
      }
      default:
        return batch;
    }
  }
}

}  // namespace setcover
