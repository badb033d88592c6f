#include "stream/prefetch_decoder.h"

namespace setcover {
namespace {

constexpr size_t kChunkEdges = kIngestBatchEdges;

}  // namespace

std::unique_ptr<PrefetchDecoder> PrefetchDecoder::Create(
    std::unique_ptr<StreamFileReader> reader) {
  auto decoder =
      std::unique_ptr<PrefetchDecoder>(new PrefetchDecoder(std::move(reader)));
  decoder->StartWorker(0);
  return decoder;
}

PrefetchDecoder::PrefetchDecoder(std::unique_ptr<StreamFileReader> reader)
    : reader_(std::move(reader)), num_chunks_(reader_->NumChunks()) {
  for (size_t i = 0; i < StagePipe<Unit>::kSlots; ++i)
    pipe_.PayloadAt(i).chunks.resize(kUnitChunks);
}

PrefetchDecoder::~PrefetchDecoder() { StopWorker(); }

void PrefetchDecoder::StartWorker(size_t first_chunk) {
  worker_ = std::thread([this, first_chunk] { WorkerLoop(first_chunk); });
}

void PrefetchDecoder::StopWorker() {
  pipe_.Stop();
  if (worker_.joinable()) worker_.join();
}

void PrefetchDecoder::WorkerLoop(size_t first_chunk) {
  size_t chunk = first_chunk;
  while (true) {
    Unit* unit = pipe_.BeginFill();
    if (unit == nullptr) return;  // stopped
    // Decode outside the pipe's lock: the consumer never touches a unit
    // it has handed back, so the worker owns it exclusively here.
    unit->first_chunk = chunk;
    unit->count = 0;
    bool damaged = false;
    for (size_t i = 0; i < kUnitChunks && chunk < num_chunks_; ++i) {
      StreamFileReader::DecodedChunk& decoded = unit->chunks[i];
      reader_->DecodeChunk(chunk, &decoded);
      ++unit->count;
      ++chunk;
      if (decoded.truncated || decoded.checksum_failed) {
        // The stream ends at the damaged chunk; decoding further would
        // be wasted work the consumer must never see anyway.
        damaged = true;
        break;
      }
    }
    pipe_.FinishFill();
    if (damaged || chunk >= num_chunks_) {
      pipe_.FinishProducing();
      return;
    }
  }
}

const StreamFileReader::DecodedChunk* PrefetchDecoder::AcquireChunk(
    size_t chunk) {
  if (chunk >= num_chunks_) return nullptr;
  if (active_unit_ != nullptr) {
    if (active_index_ + 1 < active_unit_->count) {
      ++active_index_;
      return &active_unit_->chunks[active_index_];
    }
    // Unit drained: hand it back to the worker.
    pipe_.FinishDrain();
    active_unit_ = nullptr;
  }
  Unit* unit = pipe_.BeginDrain();
  if (unit == nullptr) return nullptr;  // producer done; nothing pending
  active_unit_ = unit;
  active_index_ = 0;
  if (unit->count == 0) return nullptr;  // empty stream
  return &unit->chunks[0];
}

bool PrefetchDecoder::FillBuffer() {
  const size_t chunk = edges_read_ / kChunkEdges;
  const StreamFileReader::DecodedChunk* decoded = AcquireChunk(chunk);
  if (decoded == nullptr) {
    // Out of chunks before N edges: the stream ended early, exactly as
    // the synchronous reader reports a chunk the file does not hold.
    truncated_ = true;
    return false;
  }
  current_valid_ = true;
  if (decoded->checksum_failed) {
    checksum_failed_ = true;
    current_ = {};
    return false;
  }
  current_ = decoded->edges;
  if (decoded->truncated) truncated_ = true;
  current_pos_ = edges_read_ - chunk * kChunkEdges;
  return current_pos_ < current_.size();
}

std::span<const Edge> PrefetchDecoder::NextBatch() {
  if (checksum_failed_ || edges_read_ >= Meta().stream_length) return {};
  if (!current_valid_ || current_pos_ >= current_.size()) {
    if (truncated_ || !FillBuffer()) return {};
  }
  std::span<const Edge> batch = current_.subspan(current_pos_);
  current_pos_ = current_.size();
  edges_read_ += batch.size();
  return batch;
}

bool PrefetchDecoder::SeekToEdge(size_t index) {
  if (index > Meta().stream_length) return false;
  // Seeks happen on the resume path, not the hot path: tear the
  // pipeline down, rewind the consumer cursor, and restart the worker
  // at the containing chunk.
  StopWorker();
  pipe_.Reset();
  active_unit_ = nullptr;
  active_index_ = 0;
  current_ = {};
  current_pos_ = 0;
  current_valid_ = false;
  truncated_ = false;
  checksum_failed_ = false;
  edges_read_ = index;
  StartWorker(index / kChunkEdges);
  return true;
}

std::unique_ptr<BatchEdgeReader> OpenBatchEdgeReader(
    const std::string& path, const StreamReadOptions& options,
    std::string* error) {
  auto reader = StreamFileReader::Open(path, error);
  if (reader == nullptr) return nullptr;
  if (!options.prefetch) return reader;
  return PrefetchDecoder::Create(std::move(reader));
}

}  // namespace setcover
