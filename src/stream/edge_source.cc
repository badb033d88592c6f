#include "stream/edge_source.h"

#include <algorithm>

namespace setcover {

EdgeBatch VectorEdgeSource::NextBatch(size_t max_edges) {
  if (offset_ >= edges_.size()) return {ReadStatus::kEnd, {}};
  const size_t take = std::min(max_edges, edges_.size() - offset_);
  const std::span<const Edge> batch = edges_.subspan(offset_, take);
  offset_ += take;
  return {ReadStatus::kOk, batch};
}

bool VectorEdgeSource::SeekTo(size_t position) {
  if (position < base_ || position > base_ + edges_.size()) return false;
  offset_ = position - base_;
  return true;
}

std::unique_ptr<StreamFileSource> StreamFileSource::Open(
    const std::string& path, std::string* error) {
  return Open(path, StreamReadOptions{}, error);
}

std::unique_ptr<StreamFileSource> StreamFileSource::Open(
    const std::string& path, const StreamReadOptions& options,
    std::string* error) {
  auto reader = OpenBatchEdgeReader(path, options, error);
  if (reader == nullptr) return nullptr;
  return std::unique_ptr<StreamFileSource>(
      new StreamFileSource(std::move(reader)));
}

EdgeBatch StreamFileSource::NextBatch(size_t max_edges) {
  if (rest_.empty()) {
    rest_ = reader_->NextBatch();
    if (rest_.empty()) {
      if (reader_->ChecksumFailed() && !corrupt_reported_) {
        // Report the damaged chunk once; the reader already refuses to
        // surface its edges, so the stream effectively ends here.
        corrupt_reported_ = true;
        return {ReadStatus::kCorrupt, {&corrupt_, 1}};
      }
      return {ReadStatus::kEnd, {}};
    }
  }
  const std::span<const Edge> batch =
      rest_.first(std::min(max_edges, rest_.size()));
  rest_ = rest_.subspan(batch.size());
  return {ReadStatus::kOk, batch};
}

}  // namespace setcover
