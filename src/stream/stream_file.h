#ifndef SETCOVER_STREAM_STREAM_FILE_H_
#define SETCOVER_STREAM_STREAM_FILE_H_

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/streaming_algorithm.h"
#include "stream/mmap_file.h"
#include "stream/stream.h"

namespace setcover {

/// Binary on-disk edge-stream formats, so streams larger than memory
/// can be produced once and replayed through any algorithm — the
/// operating mode an actual deployment of these one-pass algorithms
/// would use. Three format versions share the same magic/header
/// envelope and are auto-detected by the reader; all integers are
/// little-endian.
///
/// Common header:
///   magic      "SCES"            (4 bytes)
///   version    u32 = 1 | 2 | 3
///   m          u32, n u32, N u64
///   header_crc u32               CRC-32 of the 20 bytes above it
///                                (absent in v1)
///
/// Format v2 — fixed-size CRC'd chunks:
///   chunks     ⌈N / 4096⌉ chunks of up to 4096 edges each:
///                count u32, payload_crc u32 (CRC-32),
///                count × (set u32, elem u32)
///   The fixed chunk capacity makes chunk offsets computable, so a
///   reader can seek to any edge index without scanning, and the
///   per-chunk CRC turns silent on-disk corruption into a detected,
///   reported condition instead of garbage edges fed to an algorithm.
///
/// Format v3 — delta-varint compressed chunks + offset index:
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
///   bytes are left after the last edge, or an id falls outside m × n.
///
/// Every format: a chunk naming a set ≥ m or an element ≥ n (a v3 set
/// delta below 0 included) is damaged like a CRC failure, even when its
/// CRC holds — ChecksumFailed(), none of its edges served — because
/// every algorithm indexes its per-set and per-element state by id.
///
/// Format v1 (legacy, still readable): the header without header_crc,
/// followed by N raw edges with no checksums.
///
/// Writers stage into `path + ".tmp"` and atomically rename, so a
/// crash mid-write never leaves a half-valid file at `path`. Writers
/// fail (returning false with an errno-derived *error) on I/O errors;
/// the reader validates the header and surfaces truncation/corruption
/// via flags rather than crashing.

/// On-disk format selector for WriteStreamFile. kV1 exists for
/// compatibility tests; new files should be kV3 (the CLI default).
enum class StreamFormat : uint32_t { kV1 = 1, kV2 = 2, kV3 = 3 };

/// Writes `stream` to `path` in the requested format. On failure
/// returns false and, when `error` is non-null, stores an
/// errno-derived message (e.g. "rename failed: No space left on
/// device").
bool WriteStreamFile(const EdgeStream& stream, const std::string& path,
                     StreamFormat format, std::string* error);

/// Legacy two-argument writer: format v2, errors reported only as
/// `false` (byte layout relied on by existing corruption tests).
inline bool WriteStreamFile(const EdgeStream& stream,
                            const std::string& path) {
  return WriteStreamFile(stream, path, StreamFormat::kV2, nullptr);
}

/// How to read a stream file back.
struct StreamReadOptions {
  /// Map the file and decode straight out of the page cache (zero-copy
  /// for v1/v2 payloads). Falls back to the portable stdio reader when
  /// the platform has no mmap or the mapping fails.
  bool use_mmap = true;

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

  /// Format version of the open file (1, 2 or 3).
  virtual uint32_t Version() const = 0;

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

/// Incremental synchronous reader: opens the file, exposes the
/// metadata, and yields edges chunk by chunk without materializing the
/// stream. With the mmap backend, v1/v2 batches are served zero-copy
/// straight out of the mapping.
class StreamFileReader : public BatchEdgeReader {
 public:
  /// Opens `path` with default options (mmap preferred). Returns
  /// nullptr (and sets *error) on a missing file or malformed header
  /// (bad magic, bad version, header CRC mismatch).
  static std::unique_ptr<StreamFileReader> Open(const std::string& path,
                                                std::string* error);
  static std::unique_ptr<StreamFileReader> Open(
      const std::string& path, const StreamReadOptions& options,
      std::string* error);

  ~StreamFileReader() override;
  StreamFileReader(const StreamFileReader&) = delete;
  StreamFileReader& operator=(const StreamFileReader&) = delete;

  const StreamMetadata& Meta() const override { return meta_; }
  uint32_t Version() const override { return version_; }
  std::span<const Edge> NextBatch() override;
  bool SeekToEdge(size_t index) override;
  bool Truncated() const override { return truncated_; }
  bool ChecksumFailed() const override { return checksum_failed_; }
  size_t EdgesRead() const override { return edges_read_; }

  /// True when the reader serves reads from a memory mapping rather
  /// than stdio.
  bool UsesMmap() const { return map_.IsOpen(); }

  /// Chunks the open file declares (⌈N / 4096⌉), whether or not they
  /// all survive on disk.
  size_t NumChunks() const;

  /// One decoded chunk plus its damage report. `edges` aliases either
  /// `storage` or, for zero-copy formats on the mmap backend, the
  /// mapping itself; it stays valid until the DecodedChunk is reused
  /// or the reader is destroyed.
  struct DecodedChunk {
    std::vector<Edge> storage;
    std::vector<uint8_t> scratch;  // stdio-backend payload staging
    std::span<const Edge> edges;
    bool truncated = false;
    bool checksum_failed = false;
  };

  /// Decodes chunk `chunk` into *out (reusing its buffers); returns
  /// false only when `chunk >= NumChunks()`. Damage is reported in the
  /// DecodedChunk, and a damaged chunk never exposes payload edges
  /// (except v1, which has no checksums and surfaces the intact
  /// prefix). Does not move the reader's cursor. With the mmap backend
  /// this is safe to call from a thread other than the cursor's — the
  /// contract the prefetch decoder is built on; the stdio backend must
  /// only ever be driven by one thread at a time.
  bool DecodeChunk(size_t chunk, DecodedChunk* out);

 private:
  StreamFileReader() = default;
  bool FillBuffer();
  bool LoadV3Offsets(std::string* error);
  bool ReadRaw(uint64_t offset, void* out, size_t bytes);

  MmapFile map_;
  std::FILE* file_ = nullptr;
  uint64_t file_size_ = 0;
  StreamMetadata meta_;
  uint32_t version_ = 0;
  size_t edges_read_ = 0;
  bool truncated_ = false;
  bool checksum_failed_ = false;

  /// v3: absolute offset of each chunk that is physically locatable —
  /// from the trailing index when its footer verifies, else from a
  /// linear header scan (shorter than NumChunks() on truncated files).
  std::vector<uint64_t> v3_offsets_;
  /// v3: first byte past the chunk area (index start when the footer
  /// verified, file size otherwise) — the bound chunk payloads must
  /// respect.
  uint64_t v3_data_end_ = 0;

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
