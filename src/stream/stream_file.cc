#include "stream/stream_file.h"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"
#include "util/simd.h"
#include "util/varint.h"

namespace setcover {
namespace {

constexpr char kMagic[4] = {'S', 'C', 'E', 'S'};
constexpr char kIndexMagic[4] = {'S', 'C', 'I', 'X'};
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersionV2 = 2;
constexpr uint32_t kVersionV3 = 3;
constexpr size_t kChunkEdges = 4096;
// The ingestion batch size is pinned to the on-disk chunk capacity so
// batched drivers flush exactly once per chunk and checkpoint positions
// stay aligned with chunk boundaries.
static_assert(kChunkEdges == kIngestBatchEdges,
              "stream-file chunk capacity must match kIngestBatchEdges");
// The mmap backend serves v1/v2 payloads as Edge spans straight out of
// the mapping; that requires the on-disk layout to be the in-memory
// layout and every payload offset to be Edge-aligned (header offsets
// 24/28/36 and the v2 chunk stride are all multiples of 4).
static_assert(sizeof(Edge) == 8 && alignof(Edge) <= 4,
              "zero-copy chunk views require 8-byte, 4-aligned edges");
// The v3 payload kernel writes each (delta, element) pair straight into
// an Edge, read as two u32s.
static_assert(offsetof(Edge, set) == 0 &&
                  offsetof(Edge, element) == sizeof(uint32_t),
              "the v3 payload kernel writes Edge arrays as u32 pairs");
// magic + version + m + n + N [+ header_crc in v2/v3].
constexpr uint64_t kHeaderBytesV1 = 4 + 4 + 4 + 4 + 8;
constexpr uint64_t kHeaderBytesV2 = kHeaderBytesV1 + 4;
constexpr uint64_t kChunkHeaderBytesV2 = 4 + 4;       // count + crc
constexpr uint64_t kChunkHeaderBytesV3 = 4 + 4 + 4;   // + payload_bytes
constexpr uint64_t kFooterBytesV3 = 4 + 8 + 4;  // index_crc + offset + magic

bool WriteAll(std::FILE* f, const void* data, size_t bytes) {
  if (bytes == 0) return true;  // fwrite(nullptr, ...) is UB even for 0
  return std::fwrite(data, 1, bytes, f) == bytes;
}

size_t ChunkEdgeCount(size_t stream_length, size_t chunk_index) {
  size_t start = chunk_index * kChunkEdges;
  if (start >= stream_length) return 0;
  return std::min(kChunkEdges, stream_length - start);
}

uint64_t ChunkFileOffsetV1(size_t chunk_index) {
  return kHeaderBytesV1 + uint64_t(chunk_index) * kChunkEdges * sizeof(Edge);
}

uint64_t ChunkFileOffsetV2(size_t chunk_index) {
  return kHeaderBytesV2 +
         uint64_t(chunk_index) *
             (kChunkHeaderBytesV2 + kChunkEdges * sizeof(Edge));
}

void FailErrno(std::string* error, const char* what) {
  if (error != nullptr) {
    *error = std::string(what) + ": " + std::strerror(errno);
  }
}

/// Delta-varint encodes one chunk's edges (the v3 payload).
void EncodeV3Payload(const Edge* edges, size_t count,
                     std::vector<uint8_t>* out) {
  out->clear();
  int64_t previous_set = 0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t set = int64_t(edges[i].set);
    AppendVarint(out, ZigZagEncode(set - previous_set));
    AppendVarint(out, edges[i].element);
    previous_set = set;
  }
}

/// Decodes one v3 payload of `count` edges into `edges`. False when it
/// is damaged: a varint that is truncated or longer than 10 bytes, a
/// set id below 0 or at m and above, an element at n and above, or
/// bytes left over after the last edge. The SIMD kernel
/// (simd::Kernels::decode_varint_pairs) writes each pair's raw zig-zag
/// delta and element straight into `edges`, and one prefix pass turns
/// the deltas into set ids and checks every id against m × n. A pair
/// the kernel leaves — a varint over 5 bytes, a value of 2^32 or more,
/// or damage — goes through GetVarint here, and the kernel resumes
/// after it, so every input decodes as the GetVarint loop alone would.
bool DecodeV3Payload(const uint8_t* payload, size_t payload_bytes,
                     const StreamMetadata& meta, Edge* edges, size_t count) {
  const simd::Kernels& kernels = simd::Active();
  const uint8_t* cursor = payload;
  const uint8_t* const end = payload + payload_bytes;
  // The running set id wraps as a u64: the first step that leaves
  // [0, m), below 0 or at m and above, lands at m or above, so the
  // largest id seen checks both ends.
  uint64_t set = 0;
  uint64_t max_set = 0;
  uint64_t max_element = 0;
  size_t done = 0;
  for (;;) {
    size_t consumed = 0;
    const size_t taken = kernels.decode_varint_pairs(
        cursor, size_t(end - cursor), count - done,
        reinterpret_cast<uint32_t*>(edges + done), &consumed);
    uint32_t max_taken = 0;
    for (Edge* edge = edges + done; edge != edges + done + taken; ++edge) {
      const uint32_t zigzag = edge->set;
      set += uint64_t(int64_t(int32_t((zigzag >> 1) ^ (0u - (zigzag & 1)))));
      max_set = std::max(max_set, set);
      max_taken = std::max(max_taken, edge->element);
      edge->set = SetId(set);
    }
    max_element = std::max<uint64_t>(max_element, max_taken);
    done += taken;
    cursor += consumed;
    if (done == count) break;
    uint64_t delta = 0, element = 0;
    if (!GetVarint(&cursor, end, &delta) ||
        !GetVarint(&cursor, end, &element)) {
      return false;
    }
    set += uint64_t(ZigZagDecode(delta));
    max_set = std::max(max_set, set);
    max_element = std::max(max_element, element);
    edges[done++] = Edge{SetId(set), ElementId(element)};
    if (done == count) break;
  }
  // Leftover payload after the declared count: a CRC-passing encode
  // could only do this through a writer bug; refuse it all the same.
  return max_set < meta.num_sets && max_element < meta.num_elements &&
         cursor == end;
}

/// The id-range rule (stream.h's EdgesInRange) for the raw-edge
/// formats v1 and v2: a chunk naming an id outside m × n is damaged,
/// and none of its edges are served.
void RejectOutOfRange(const StreamMetadata& meta,
                      StreamFileReader::DecodedChunk* out) {
  if (EdgesInRange(out->edges, meta)) return;
  out->edges = {};
  out->truncated = false;
  out->checksum_failed = true;
}

}  // namespace

bool WriteStreamFile(const EdgeStream& stream, const std::string& path,
                     StreamFormat format, std::string* error) {
  const uint32_t version = static_cast<uint32_t>(format);
  // Stage into a sibling temp file and rename into place, so a crash
  // mid-write can never leave a half-valid file under the final name.
  const std::string temp = path + ".tmp";
  std::FILE* f = std::fopen(temp.c_str(), "wb");
  if (f == nullptr) {
    FailErrno(error, ("cannot create " + temp).c_str());
    return false;
  }

  uint32_t m = stream.meta.num_sets;
  uint32_t n = stream.meta.num_elements;
  uint64_t big_n = stream.edges.size();
  unsigned char header[20];
  std::memcpy(header, &version, 4);
  std::memcpy(header + 4, &m, 4);
  std::memcpy(header + 8, &n, 4);
  std::memcpy(header + 12, &big_n, 8);
  bool ok = WriteAll(f, kMagic, 4) && WriteAll(f, header, sizeof(header));
  if (version != kVersionV1) {
    uint32_t header_crc = Crc32(header, sizeof(header));
    ok = ok && WriteAll(f, &header_crc, 4);
  }

  const size_t num_chunks =
      (stream.edges.size() + kChunkEdges - 1) / kChunkEdges;
  if (version == kVersionV1) {
    ok = ok && WriteAll(f, stream.edges.data(),
                        stream.edges.size() * sizeof(Edge));
  } else if (version == kVersionV2) {
    for (size_t chunk = 0; ok && chunk < num_chunks; ++chunk) {
      uint32_t count =
          static_cast<uint32_t>(ChunkEdgeCount(stream.edges.size(), chunk));
      const Edge* payload = stream.edges.data() + chunk * kChunkEdges;
      uint32_t payload_crc = Crc32(payload, count * sizeof(Edge));
      ok = WriteAll(f, &count, 4) && WriteAll(f, &payload_crc, 4) &&
           WriteAll(f, payload, count * sizeof(Edge));
    }
  } else {
    std::vector<uint64_t> offsets;
    offsets.reserve(num_chunks);
    std::vector<uint8_t> payload;
    uint64_t offset = kHeaderBytesV2;
    for (size_t chunk = 0; ok && chunk < num_chunks; ++chunk) {
      uint32_t count =
          static_cast<uint32_t>(ChunkEdgeCount(stream.edges.size(), chunk));
      EncodeV3Payload(stream.edges.data() + chunk * kChunkEdges, count,
                      &payload);
      uint32_t payload_bytes = static_cast<uint32_t>(payload.size());
      uint32_t payload_crc = Crc32c(payload.data(), payload.size());
      ok = WriteAll(f, &count, 4) && WriteAll(f, &payload_bytes, 4) &&
           WriteAll(f, &payload_crc, 4) &&
           WriteAll(f, payload.data(), payload.size());
      offsets.push_back(offset);
      offset += kChunkHeaderBytesV3 + payload_bytes;
    }
    // Trailing chunk-offset index + self-locating footer: O(1) seeks
    // despite variable-size chunks, recoverable by header scan if the
    // tail is lost.
    const uint64_t index_offset = offset;
    uint32_t index_crc =
        Crc32c(offsets.data(), offsets.size() * sizeof(uint64_t));
    ok = ok &&
         WriteAll(f, offsets.data(), offsets.size() * sizeof(uint64_t)) &&
         WriteAll(f, &index_crc, 4) && WriteAll(f, &index_offset, 8) &&
         WriteAll(f, kIndexMagic, 4);
  }
  if (!ok) FailErrno(error, ("write to " + temp + " failed").c_str());

  if (std::fflush(f) != 0 && ok) {
    FailErrno(error, ("flush of " + temp + " failed").c_str());
    ok = false;
  }
  if (std::fclose(f) != 0 && ok) {
    FailErrno(error, ("close of " + temp + " failed").c_str());
    ok = false;
  }
  if (ok && std::rename(temp.c_str(), path.c_str()) != 0) {
    FailErrno(error, ("rename to " + path + " failed").c_str());
    ok = false;
  }
  if (!ok) std::remove(temp.c_str());
  return ok;
}

std::unique_ptr<StreamFileReader> StreamFileReader::Open(
    const std::string& path, std::string* error) {
  return Open(path, StreamReadOptions{}, error);
}

std::unique_ptr<StreamFileReader> StreamFileReader::Open(
    const std::string& path, const StreamReadOptions& options,
    std::string* error) {
  auto reader = std::unique_ptr<StreamFileReader>(new StreamFileReader());
  if (options.use_mmap && reader->map_.Open(path, error)) {
    reader->file_size_ = reader->map_.size();
  } else {
    // Portable fallback (also the explicit choice when use_mmap is
    // off): plain stdio with per-chunk reads.
    reader->file_ = std::fopen(path.c_str(), "rb");
    if (reader->file_ == nullptr) {
      FailErrno(error, ("cannot open " + path).c_str());
      return nullptr;
    }
    if (std::fseek(reader->file_, 0, SEEK_END) != 0) {
      FailErrno(error, ("cannot size " + path).c_str());
      return nullptr;
    }
    reader->file_size_ = static_cast<uint64_t>(std::ftell(reader->file_));
  }

  auto fail = [&](const char* msg) -> std::unique_ptr<StreamFileReader> {
    if (error != nullptr) *error = msg;
    return nullptr;
  };
  char magic[4];
  if (!reader->ReadRaw(0, magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return fail("bad magic");
  }
  unsigned char header[20];
  if (!reader->ReadRaw(4, header, sizeof(header))) {
    return fail("truncated header");
  }
  uint32_t version = 0, m = 0, n = 0;
  uint64_t big_n = 0;
  std::memcpy(&version, header, 4);
  std::memcpy(&m, header + 4, 4);
  std::memcpy(&n, header + 8, 4);
  std::memcpy(&big_n, header + 12, 8);
  if (version != kVersionV1 && version != kVersionV2 &&
      version != kVersionV3) {
    return fail("unsupported version");
  }
  if (version != kVersionV1) {
    uint32_t stored_crc = 0;
    if (!reader->ReadRaw(24, &stored_crc, 4)) {
      return fail("truncated header");
    }
    if (stored_crc != Crc32(header, sizeof(header))) {
      return fail("header checksum mismatch");
    }
  }
  reader->version_ = version;
  reader->meta_ = {m, n, big_n};
  if (version == kVersionV3 && !reader->LoadV3Offsets(error)) {
    return nullptr;
  }
  return reader;
}

StreamFileReader::~StreamFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool StreamFileReader::ReadRaw(uint64_t offset, void* out, size_t bytes) {
  if (map_.IsOpen()) {
    if (offset + bytes > file_size_) return false;
    std::memcpy(out, map_.data() + offset, bytes);
    return true;
  }
  if (std::fseek(file_, long(offset), SEEK_SET) != 0) return false;
  return std::fread(out, 1, bytes, file_) == bytes;
}

size_t StreamFileReader::NumChunks() const {
  return (size_t{meta_.stream_length} + kChunkEdges - 1) / kChunkEdges;
}

bool StreamFileReader::LoadV3Offsets(std::string*) {
  const size_t chunks = NumChunks();
  v3_offsets_.clear();
  v3_data_end_ = file_size_;
  if (chunks == 0) return true;

  // Fast path: the trailing index, validated end to end (footer magic,
  // size arithmetic, CRC, monotonicity) before a single offset is
  // trusted.
  const uint64_t index_bytes = uint64_t(chunks) * sizeof(uint64_t);
  uint8_t footer[kFooterBytesV3];
  if (file_size_ >= kHeaderBytesV2 + index_bytes + kFooterBytesV3 &&
      ReadRaw(file_size_ - kFooterBytesV3, footer, kFooterBytesV3)) {
    uint32_t index_crc = 0;
    uint64_t index_offset = 0;
    std::memcpy(&index_crc, footer, 4);
    std::memcpy(&index_offset, footer + 4, 8);
    if (std::memcmp(footer + 12, kIndexMagic, 4) == 0 &&
        index_offset >= kHeaderBytesV2 &&
        index_offset + index_bytes + kFooterBytesV3 == file_size_) {
      std::vector<uint64_t> offsets(chunks);
      if (ReadRaw(index_offset, offsets.data(), index_bytes) &&
          Crc32c(offsets.data(), index_bytes) == index_crc) {
        bool sane = offsets[0] == kHeaderBytesV2;
        for (size_t c = 1; sane && c < chunks; ++c) {
          sane = offsets[c] > offsets[c - 1] && offsets[c] < index_offset;
        }
        if (sane) {
          v3_offsets_ = std::move(offsets);
          v3_data_end_ = index_offset;
          return true;
        }
      }
    }
  }

  // Fallback: linear header scan — payload_bytes makes chunks
  // self-delimiting, so a file with a damaged or missing index (e.g. a
  // truncated tail) still yields every chunk that physically survives.
  uint64_t offset = kHeaderBytesV2;
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    uint8_t chunk_header[kChunkHeaderBytesV3];
    if (offset + kChunkHeaderBytesV3 > file_size_ ||
        !ReadRaw(offset, chunk_header, kChunkHeaderBytesV3)) {
      break;
    }
    v3_offsets_.push_back(offset);
    uint32_t payload_bytes = 0;
    std::memcpy(&payload_bytes, chunk_header + 4, 4);
    offset += kChunkHeaderBytesV3 + payload_bytes;
    if (offset > file_size_) break;  // truncated payload; chunk recorded
  }
  return true;
}

bool StreamFileReader::DecodeChunk(size_t chunk, DecodedChunk* out) {
  out->edges = {};
  out->truncated = false;
  out->checksum_failed = false;
  const size_t want = ChunkEdgeCount(meta_.stream_length, chunk);
  if (want == 0) return false;

  if (version_ == kVersionV1) {
    const uint64_t offset = ChunkFileOffsetV1(chunk);
    // No checksums in v1: surface whatever prefix of the chunk exists.
    if (map_.IsOpen()) {
      const uint64_t avail =
          offset < file_size_ ? (file_size_ - offset) / sizeof(Edge) : 0;
      const size_t got = std::min(want, size_t(avail));
      out->edges = std::span<const Edge>(
          reinterpret_cast<const Edge*>(map_.data() + offset), got);
      out->truncated = got < want;
    } else {
      out->storage.resize(want);
      size_t got = 0;
      if (std::fseek(file_, long(offset), SEEK_SET) == 0) {
        got = std::fread(out->storage.data(), sizeof(Edge), want, file_);
      }
      out->storage.resize(got);
      out->edges = std::span<const Edge>(out->storage);
      out->truncated = got < want;
    }
    RejectOutOfRange(meta_, out);
    return true;
  }

  if (version_ == kVersionV2) {
    const uint64_t offset = ChunkFileOffsetV2(chunk);
    uint8_t chunk_header[kChunkHeaderBytesV2];
    if (!ReadRaw(offset, chunk_header, kChunkHeaderBytesV2)) {
      out->truncated = true;
      return true;
    }
    uint32_t count = 0, stored_crc = 0;
    std::memcpy(&count, chunk_header, 4);
    std::memcpy(&stored_crc, chunk_header + 4, 4);
    if (count != want) {
      // A corrupted count would otherwise desynchronize every following
      // chunk; the expected count is implied by N, so treat any
      // mismatch as corruption.
      out->checksum_failed = true;
      return true;
    }
    const uint64_t payload_offset = offset + kChunkHeaderBytesV2;
    const size_t payload_bytes = want * sizeof(Edge);
    if (map_.IsOpen()) {
      if (payload_offset + payload_bytes > file_size_) {
        out->truncated = true;
        return true;
      }
      const uint8_t* payload = map_.data() + payload_offset;
      if (Crc32(payload, payload_bytes) != stored_crc) {
        out->checksum_failed = true;
        return true;
      }
      // Zero-copy: the CRC-verified payload is served straight from
      // the mapping.
      out->edges = std::span<const Edge>(
          reinterpret_cast<const Edge*>(payload), want);
    } else {
      out->storage.resize(want);
      if (!ReadRaw(payload_offset, out->storage.data(), payload_bytes)) {
        out->truncated = true;
        return true;
      }
      if (Crc32(out->storage.data(), payload_bytes) != stored_crc) {
        out->checksum_failed = true;
        return true;
      }
      out->edges = std::span<const Edge>(out->storage);
    }
    RejectOutOfRange(meta_, out);
    return true;
  }

  // v3: locate via the offset table, CRC32C-check the compressed
  // payload, then delta-varint decode.
  if (chunk >= v3_offsets_.size()) {
    out->truncated = true;  // the file ended before this chunk
    return true;
  }
  const uint64_t offset = v3_offsets_[chunk];
  uint8_t chunk_header[kChunkHeaderBytesV3];
  if (offset + kChunkHeaderBytesV3 > v3_data_end_ ||
      !ReadRaw(offset, chunk_header, kChunkHeaderBytesV3)) {
    out->truncated = true;
    return true;
  }
  uint32_t count = 0, payload_bytes = 0, stored_crc = 0;
  std::memcpy(&count, chunk_header, 4);
  std::memcpy(&payload_bytes, chunk_header + 4, 4);
  std::memcpy(&stored_crc, chunk_header + 8, 4);
  if (count != want) {
    out->checksum_failed = true;
    return true;
  }
  const uint64_t payload_offset = offset + kChunkHeaderBytesV3;
  if (payload_offset + payload_bytes > v3_data_end_) {
    out->truncated = true;
    return true;
  }
  const uint8_t* payload = nullptr;
  if (map_.IsOpen()) {
    payload = map_.data() + payload_offset;
  } else {
    out->scratch.resize(payload_bytes);
    if (!ReadRaw(payload_offset, out->scratch.data(), payload_bytes)) {
      out->truncated = true;
      return true;
    }
    payload = out->scratch.data();
  }
  if (Crc32c(payload, payload_bytes) != stored_crc) {
    out->checksum_failed = true;
    return true;
  }
  out->storage.resize(want);
  if (!DecodeV3Payload(payload, payload_bytes, meta_, out->storage.data(),
                       want)) {
    out->checksum_failed = true;
    return true;
  }
  out->edges = std::span<const Edge>(out->storage);
  return true;
}

bool StreamFileReader::FillBuffer() {
  // The cursor may sit mid-chunk after a SeekToEdge; the containing
  // chunk is decoded whole and the prefix skipped.
  const size_t chunk = edges_read_ / kChunkEdges;
  if (!DecodeChunk(chunk, &current_)) return false;
  current_valid_ = true;
  if (current_.checksum_failed) {
    checksum_failed_ = true;
    current_.edges = {};
    return false;
  }
  if (current_.truncated) truncated_ = true;
  current_pos_ = edges_read_ - chunk * kChunkEdges;
  return current_pos_ < current_.edges.size();
}

std::span<const Edge> StreamFileReader::NextBatch() {
  if (checksum_failed_ || edges_read_ >= meta_.stream_length) return {};
  if (!current_valid_ || current_pos_ >= current_.edges.size()) {
    if (truncated_ || !FillBuffer()) return {};
  }
  std::span<const Edge> batch = current_.edges.subspan(current_pos_);
  current_pos_ = current_.edges.size();
  edges_read_ += batch.size();
  return batch;
}

bool StreamFileReader::SeekToEdge(size_t index) {
  if (index > meta_.stream_length) return false;
  current_valid_ = false;
  current_.edges = {};
  current_pos_ = 0;
  checksum_failed_ = false;
  truncated_ = false;
  edges_read_ = index;
  return true;
}

}  // namespace setcover
