#ifndef SETCOVER_STREAM_PREFETCH_DECODER_H_
#define SETCOVER_STREAM_PREFETCH_DECODER_H_

#include <memory>
#include <thread>

#include "stream/stream_file.h"
#include "util/stage_pipe.h"

namespace setcover {

/// Pipelined file replay: a background thread decodes and CRC-checks
/// chunks one pipeline unit (kUnitChunks chunks) ahead of the consumer,
/// so decode/verify cost overlaps the algorithm's per-edge work instead
/// of serializing with it. The stage boundary is a StagePipe — the
/// generic two-slot SPSC handoff — with each payload grouping several
/// chunks so the handoff cost amortizes over tens of thousands of
/// edges.
///
/// Presents the same BatchEdgeReader contract as the synchronous
/// StreamFileReader it wraps, with identical damage semantics (a bad
/// chunk surfaces as flags and an ended stream, never as edges), so the
/// two are drop-in interchangeable and must produce bit-identical runs.
///
/// Threading: all public methods are consumer-thread-only. The worker
/// is the sole caller of StreamFileReader::DecodeChunk; SeekToEdge
/// joins the worker, rewinds, and restarts it (seeks are a resume-path
/// rarity, so simplicity beats cleverness there).
class PrefetchDecoder : public BatchEdgeReader {
 public:
  /// Takes ownership of an open reader and starts prefetching chunk 0.
  static std::unique_ptr<PrefetchDecoder> Create(
      std::unique_ptr<StreamFileReader> reader);

  ~PrefetchDecoder() override;
  PrefetchDecoder(const PrefetchDecoder&) = delete;
  PrefetchDecoder& operator=(const PrefetchDecoder&) = delete;

  const StreamMetadata& Meta() const override { return reader_->Meta(); }
  std::span<const Edge> NextBatch() override;
  bool SeekToEdge(size_t index) override;
  bool Truncated() const override { return truncated_; }
  bool ChecksumFailed() const override { return checksum_failed_; }
  size_t EdgesRead() const override { return edges_read_; }

  /// Chunks decoded per pipeline unit.
  static constexpr size_t kUnitChunks = 8;

 private:
  /// One pipeline unit: a run of sequentially decoded chunks.
  struct Unit {
    std::vector<StreamFileReader::DecodedChunk> chunks;
    size_t first_chunk = 0;
    size_t count = 0;
  };

  explicit PrefetchDecoder(std::unique_ptr<StreamFileReader> reader);

  void StartWorker(size_t first_chunk);
  void StopWorker();
  void WorkerLoop(size_t first_chunk);

  /// Returns the decoded chunk at index `chunk` (the consumer's next
  /// sequential chunk), blocking on the pipeline if the worker has not
  /// produced it yet; nullptr when the pipeline holds no such chunk.
  const StreamFileReader::DecodedChunk* AcquireChunk(size_t chunk);
  bool FillBuffer();

  std::unique_ptr<StreamFileReader> reader_;
  size_t num_chunks_ = 0;

  StagePipe<Unit> pipe_;
  std::thread worker_;

  // Consumer-side cursor (mirrors StreamFileReader's).
  size_t edges_read_ = 0;
  bool truncated_ = false;
  bool checksum_failed_ = false;
  Unit* active_unit_ = nullptr;  // unit the consumer currently owns
  size_t active_index_ = 0;      // position of the current chunk in it
  std::span<const Edge> current_;
  size_t current_pos_ = 0;
  bool current_valid_ = false;
};

}  // namespace setcover

#endif  // SETCOVER_STREAM_PREFETCH_DECODER_H_
