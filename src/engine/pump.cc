#include "engine/pump.h"

#include <utility>

#include "util/serialize.h"

namespace setcover {
namespace engine {
namespace internal {

Pump::Pump(StreamingSetCoverAlgorithm& algorithm) : algorithm_(&algorithm) {
  report_.algorithm_name = algorithm.Name();
}

Pump::Pump(std::unique_ptr<StreamingSetCoverAlgorithm> algorithm)
    : owned_(std::move(algorithm)), algorithm_(owned_.get()) {
  report_.algorithm_name = algorithm_->Name();
}

void Pump::Begin(const StreamMetadata& meta) {
  meta_ = meta;
  algorithm_->Begin(meta);
}

bool Pump::Resume(const StreamMetadata& meta, const Checkpoint& checkpoint,
                  std::string* error) {
  if (checkpoint.algorithm_name != report_.algorithm_name) {
    *error = "checkpoint was written by algorithm '" +
             checkpoint.algorithm_name + "', not '" +
             report_.algorithm_name + "'";
    return false;
  }
  if (checkpoint.meta.num_sets != meta.num_sets ||
      checkpoint.meta.num_elements != meta.num_elements ||
      checkpoint.meta.stream_length != meta.stream_length) {
    *error = "checkpoint stream shape does not match the stream";
    return false;
  }
  if (!algorithm_->DecodeState(meta, checkpoint.state_words)) {
    *error = "algorithm '" + report_.algorithm_name +
             "' could not decode the checkpointed state";
    return false;
  }
  meta_ = meta;
  report_.resumed = true;
  report_.resumed_at = checkpoint.stream_position;
  report_.edges_delivered = checkpoint.edges_delivered;
  report_.transient_retries = checkpoint.transient_retries;
  report_.corrupt_records_skipped = checkpoint.corrupt_skipped;
  report_.faults_survived = checkpoint.faults_survived;
  return true;
}

void Pump::Feed(std::span<const Edge> batch) {
  algorithm_->ProcessEdgeBatch(batch);
  ++report_.stages.batches;
  report_.edges_delivered += batch.size();
}

void Pump::FeedSpotChecked(std::span<const Edge> batch) {
  ProcessBatchCheckedForEquivalence(*algorithm_, meta_, batch);
  ++report_.stages.batches;
  report_.edges_delivered += batch.size();
}

Checkpoint Pump::Snapshot(uint64_t position, uint64_t sequence) const {
  StateEncoder encoder;
  algorithm_->EncodeState(&encoder);
  Checkpoint checkpoint;
  checkpoint.algorithm_name = report_.algorithm_name;
  checkpoint.meta = meta_;
  checkpoint.stream_position = position;
  checkpoint.edges_delivered = report_.edges_delivered;
  checkpoint.transient_retries = report_.transient_retries;
  checkpoint.corrupt_skipped = report_.corrupt_records_skipped;
  checkpoint.faults_survived = report_.faults_survived;
  checkpoint.session_sequence = sequence;
  checkpoint.state_words = encoder.Words();
  return checkpoint;
}

void Pump::Finish() {
  const auto start = Clock::now();
  report_.solution = algorithm_->Finalize();
  report_.stages.finalize_seconds = Seconds(start);
  report_.uncovered_elements = CountUncovered(report_.solution);
  report_.completed = true;
  StampMeter();
}

void Pump::StampMeter() {
  report_.peak_words = algorithm_->Meter().PeakWords();
  report_.current_words = algorithm_->Meter().CurrentWords();
  report_.meter_breakdown = algorithm_->Meter().BreakdownString();
}

}  // namespace internal
}  // namespace engine
}  // namespace setcover
