#ifndef SETCOVER_STREAM_STREAM_FILE_H_
#define SETCOVER_STREAM_STREAM_FILE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/streaming_algorithm.h"
#include "stream/mmap_file.h"
#include "stream/stream.h"

namespace setcover {

/// The binary on-disk edge-stream format, so streams larger than memory
/// can be produced once and replayed through any algorithm — the
/// operating mode an actual deployment of these one-pass algorithms
/// would use. All integers are little-endian.
///
/// Format v3 — delta-varint compressed chunks + offset index:
///   header     magic "SCES" (4 bytes), version u32 = 3,
///              m u32, n u32, N u64,
///              header_crc u32   CRC-32 of the 20 bytes after the magic
///   chunks     ⌈N / 4096⌉ chunks of up to 4096 edges each:
///                count u32, payload_bytes u32,
///                payload_crc u32 (CRC-32C), payload
///              payload encodes each edge as two LEB128 varints
///              (util/varint.h): zig-zag(set − previous set in chunk,
///              starting from 0) then the raw element id. Sort-free:
///              any arrival order round-trips; orders with set-id
///              locality (set-major, element-major) compress hardest.
///   index      ⌈N / 4096⌉ × u64   absolute offset of each chunk
///   footer     index_crc u32 (CRC-32C of the index bytes),
///              index_offset u64, magic "SCIX" (4 bytes)
///   The trailing index keeps SeekToEdge O(1) despite variable-size
///   chunks; a reader that finds the footer damaged falls back to a
///   linear header scan (payload_bytes makes chunks self-delimiting),
///   so a truncated file still replays its intact prefix.
///   Decode contract: a payload decodes through the active SIMD tier's
///   varint kernel (simd::Kernels::decode_varint_pairs) plus a scalar
///   GetVarint loop for what the kernel leaves, and the result — edges,
///   ChecksumFailed(), Truncated() — is the scalar reference's on every
///   input, hostile ones included (tests/hostile_payload_test.cc). A
///   payload is damaged when a varint is truncated or over 10 bytes,
///   bytes are left after the last edge, or an id falls outside m × n
///   (a set delta below 0 included). A damaged chunk is reported like a
///   CRC failure, even when its CRC holds — ChecksumFailed(), none of
///   its edges served — because every algorithm indexes its per-set and
///   per-element state by id.
///
/// Versions 1 and 2 (raw 8-byte edges, without and with CRC'd chunks)
/// are refused at open with an error that names the version.
///
/// The writer stages into `path + ".tmp"` and atomically renames
/// (util/atomic_file.h), so a crash mid-write never leaves a half-valid
/// file at `path`; it fails (returning false with an errno-derived
/// *error) on I/O errors. The reader maps the file (stream/mmap_file.h),
/// validates the header and surfaces truncation/corruption via flags
/// rather than crashing.

/// On-disk format selector for WriteStreamFile.
enum class StreamFormat : uint32_t { kV3 = 3 };

/// Writes `stream` to `path` in the requested format. On failure
/// returns false and, when `error` is non-null, stores an
/// errno-derived message (e.g. "write to s.bin.tmp failed: No space
/// left on device").
bool WriteStreamFile(const EdgeStream& stream, const std::string& path,
                     StreamFormat format, std::string* error);

/// How to read a stream file back.
struct StreamReadOptions {
  /// Decode and CRC-check chunks on a background pipeline thread, one
  /// pipeline unit ahead of the consumer (stream/prefetch_decoder.h).
  /// Honoured by OpenBatchEdgeReader / StreamFileSource (so by
  /// engine::Execute); a bare StreamFileReader is always synchronous.
  bool prefetch = true;
};

/// What every positioned reader of decoded stream-file edges looks
/// like — implemented synchronously by StreamFileReader and
/// asynchronously by PrefetchDecoder, so its consumers (StreamFileSource
/// and with it engine::Execute) are agnostic to where decoding runs.
class BatchEdgeReader {
 public:
  virtual ~BatchEdgeReader() = default;

  virtual const StreamMetadata& Meta() const = 0;

  /// Returns the remainder of the current CRC-verified chunk (decoding
  /// the next chunk when the buffer is drained) and advances the
  /// cursor past it — at most kIngestBatchEdges edges, exactly a chunk
  /// when the cursor sits on a chunk boundary. Empty at end of stream,
  /// after truncation, or after a checksum failure. The span aliases
  /// reader-owned storage and is invalidated by the next read or seek.
  virtual std::span<const Edge> NextBatch() = 0;

  /// Repositions the cursor so the next batch starts at edge `index`
  /// (0-based; `index` may equal N to position at end). Returns false
  /// on an out-of-range index. The containing chunk is decoded and
  /// CRC-verified on the following read; damage there surfaces as an
  /// ended stream with Truncated()/ChecksumFailed() set — never as
  /// garbage edges.
  virtual bool SeekToEdge(size_t index) = 0;

  /// True if the file ended before the declared N edges were read.
  virtual bool Truncated() const = 0;

  /// True once a chunk failed its CRC (or its headers are
  /// inconsistent, or it names an id outside m × n); the stream stops
  /// there and the damaged chunk's edges are never surfaced.
  virtual bool ChecksumFailed() const = 0;

  /// Edges returned so far (equals the cursor position).
  virtual size_t EdgesRead() const = 0;
};

/// Incremental synchronous reader: maps the file, exposes the metadata,
/// and yields edges chunk by chunk without materializing the stream.
class StreamFileReader : public BatchEdgeReader {
 public:
  /// Maps `path`. Returns nullptr (and sets *error) on a file that
  /// cannot be opened or mapped, or a malformed header (bad magic, a
  /// version other than 3, header CRC mismatch).
  static std::unique_ptr<StreamFileReader> Open(const std::string& path,
                                                std::string* error);

  StreamFileReader(const StreamFileReader&) = delete;
  StreamFileReader& operator=(const StreamFileReader&) = delete;

  const StreamMetadata& Meta() const override { return meta_; }
  std::span<const Edge> NextBatch() override;
  bool SeekToEdge(size_t index) override;
  bool Truncated() const override { return truncated_; }
  bool ChecksumFailed() const override { return checksum_failed_; }
  size_t EdgesRead() const override { return edges_read_; }

  /// Chunks the open file declares (⌈N / 4096⌉), whether or not they
  /// all survive on disk.
  size_t NumChunks() const;

  /// One decoded chunk plus its damage report. `edges` aliases
  /// `storage`; it stays valid until the DecodedChunk is reused or the
  /// reader is destroyed.
  struct DecodedChunk {
    std::vector<Edge> storage;
    std::span<const Edge> edges;
    bool truncated = false;
    bool checksum_failed = false;
  };

  /// Decodes chunk `chunk` into *out (reusing its buffers); returns
  /// false only when `chunk >= NumChunks()`. Damage is reported in the
  /// DecodedChunk, and a damaged chunk never exposes payload edges.
  /// Does not move the reader's cursor, and only reads the immutable
  /// mapping, so it is safe to call from a thread other than the
  /// cursor's — the contract the prefetch decoder is built on.
  bool DecodeChunk(size_t chunk, DecodedChunk* out);

 private:
  StreamFileReader() = default;
  bool FillBuffer();
  void LoadOffsets();
  bool ReadRaw(uint64_t offset, void* out, size_t bytes) const;

  MmapFile map_;
  StreamMetadata meta_;
  size_t edges_read_ = 0;
  bool truncated_ = false;
  bool checksum_failed_ = false;

  /// Absolute offset of each chunk that is physically locatable — from
  /// the trailing index when its footer verifies, else from a linear
  /// header scan (shorter than NumChunks() on truncated files).
  std::vector<uint64_t> offsets_;
  /// First byte past the chunk area (index start when the footer
  /// verified, file size otherwise) — the bound chunk payloads must
  /// respect.
  uint64_t data_end_ = 0;

  DecodedChunk current_;
  size_t current_pos_ = 0;
  bool current_valid_ = false;
};

/// Opens `path` as a positioned batch reader per `options`: the plain
/// synchronous reader, or one wrapped in the background
/// PrefetchDecoder when `options.prefetch` is set. Defined in
/// stream/prefetch_decoder.cc.
std::unique_ptr<BatchEdgeReader> OpenBatchEdgeReader(
    const std::string& path, const StreamReadOptions& options,
    std::string* error);

}  // namespace setcover

#endif  // SETCOVER_STREAM_STREAM_FILE_H_
