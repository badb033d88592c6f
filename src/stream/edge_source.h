#ifndef SETCOVER_STREAM_EDGE_SOURCE_H_
#define SETCOVER_STREAM_EDGE_SOURCE_H_

#include <memory>
#include <span>
#include <string>

#include "stream/stream.h"
#include "stream/stream_file.h"

namespace setcover {

/// Outcome of one pull from an EdgeSource.
enum class ReadStatus {
  kOk,         // the pull returned records
  kEnd,        // the stream is exhausted (or ended early — see Truncated)
  kTransient,  // momentary failure; retrying the same call may succeed
  kCorrupt,    // the record was damaged and must not reach an algorithm
};

/// What one NextBatch() call returns: kOk with 1..max_edges records,
/// kCorrupt with exactly its one damaged record (for diagnostics), or
/// kTransient / kEnd with none. `edges` aliases storage owned by the
/// source (or by whatever it reads from) and stays valid until the
/// next NextBatch() or SeekTo() on that source.
struct EdgeBatch {
  ReadStatus status = ReadStatus::kEnd;
  std::span<const Edge> edges;
};

/// A positioned, resumable supply of stream edges — what engine::Drive
/// pulls every run from. Unlike the raw in-memory EdgeStream, an
/// EdgeSource can fail: NextBatch() reports transient faults (worth
/// retrying) and corrupt records (detected, skipped, counted) distinctly
/// from end-of-stream, which is what makes a supervised run recoverable.
///
/// Sources are batch-shaped and stack as span transforms (file or
/// memory -> schedule -> fault injector -> shard filter). The batch
/// contract: for any sequence of `max_edges` >= 1, the concatenated
/// records and events a source yields are the same, and Position() and
/// HasPendingReplay() after a call are their values right after the
/// call's last record. No source consumes input past what it returns
/// (or it accounts for the surplus in Position()). Records of a kOk
/// batch pulled while HasPendingReplay() is false occupy consecutive
/// positions, so a layer above can tell each record's position.
///
/// `Position()` counts *underlying* records consumed, which is the
/// coordinate checkpoints store and SeekTo() restores; a conforming
/// implementation replays the identical record sequence (including any
/// injected faults) from any position it previously reported at a
/// checkpoint boundary.
class EdgeSource {
 public:
  virtual ~EdgeSource() = default;

  virtual const StreamMetadata& Meta() const = 0;

  /// Pulls the next records, at most `max_edges` (>= 1) of them, or
  /// the next event. The position advances past a kCorrupt record.
  virtual EdgeBatch NextBatch(size_t max_edges) = 0;

  /// Underlying records consumed so far.
  virtual size_t Position() const = 0;

  /// Repositions so the next record is the one at `position`. Returns
  /// false if unsupported or out of range.
  virtual bool SeekTo(size_t position) = 0;

  /// True when the source holds buffered replay state (e.g. the second
  /// copy of a duplicated record) that a position-based checkpoint
  /// could not reconstruct. Supervisors only checkpoint when this is
  /// false.
  virtual bool HasPendingReplay() const { return false; }

  /// True once the underlying stream ended before Meta().stream_length
  /// records were produced.
  virtual bool Truncated() const { return false; }
};

/// In-memory source over a span of edges that starts at stream
/// position `base_position` (0 for a whole materialized EdgeStream; a
/// session's cursor for one ingest batch, where end-of-span reads as
/// kEnd). Every kOk batch aliases the span itself: no copy.
class VectorEdgeSource : public EdgeSource {
 public:
  explicit VectorEdgeSource(const EdgeStream& stream)
      : VectorEdgeSource(stream.meta, stream.edges, 0) {}
  VectorEdgeSource(const StreamMetadata& meta, std::span<const Edge> edges,
                   size_t base_position)
      : meta_(meta), edges_(edges), base_(base_position) {}

  const StreamMetadata& Meta() const override { return meta_; }
  EdgeBatch NextBatch(size_t max_edges) override;
  size_t Position() const override { return base_ + offset_; }
  bool SeekTo(size_t position) override;

 private:
  const StreamMetadata& meta_;
  std::span<const Edge> edges_;
  size_t base_;
  size_t offset_ = 0;
};

/// File-backed source over the binary stream-file format. Hands out the
/// reader's CRC-verified chunk spans in place, cut at `max_edges`.
/// Surfaces a chunk checksum failure as one kCorrupt record (after
/// which the stream ends) and early EOF as kEnd with Truncated() set.
class StreamFileSource : public EdgeSource {
 public:
  /// Opens `path` with default read options (mmap + prefetch); nullptr
  /// (with *error) on open/header failure.
  static std::unique_ptr<StreamFileSource> Open(const std::string& path,
                                                std::string* error);
  static std::unique_ptr<StreamFileSource> Open(
      const std::string& path, const StreamReadOptions& options,
      std::string* error);

  const StreamMetadata& Meta() const override { return reader_->Meta(); }
  EdgeBatch NextBatch(size_t max_edges) override;
  size_t Position() const override {
    return reader_->EdgesRead() - rest_.size();
  }
  bool SeekTo(size_t position) override {
    rest_ = {};
    corrupt_reported_ = false;
    return reader_->SeekToEdge(position);
  }
  /// A checksum-failed chunk also ends the stream before N records —
  /// that is truncation as far as a supervised run is concerned, so
  /// the run is reported degraded, not silently complete.
  bool Truncated() const override {
    return reader_->Truncated() || reader_->ChecksumFailed();
  }

 private:
  explicit StreamFileSource(std::unique_ptr<BatchEdgeReader> reader)
      : reader_(std::move(reader)) {}

  std::unique_ptr<BatchEdgeReader> reader_;
  /// The part of the reader's last chunk span not yet handed out.
  std::span<const Edge> rest_;
  Edge corrupt_{0, 0};
  bool corrupt_reported_ = false;
};

}  // namespace setcover

#endif  // SETCOVER_STREAM_EDGE_SOURCE_H_
