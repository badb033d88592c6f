#include "stream/stream_file.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/simd.h"
#include "util/varint.h"

namespace setcover {
namespace {

constexpr char kMagic[4] = {'S', 'C', 'E', 'S'};
constexpr char kIndexMagic[4] = {'S', 'C', 'I', 'X'};
constexpr uint32_t kVersion = 3;
constexpr size_t kChunkEdges = 4096;
// The ingestion batch size is pinned to the on-disk chunk capacity so
// batched drivers flush exactly once per chunk and checkpoint positions
// stay aligned with chunk boundaries.
static_assert(kChunkEdges == kIngestBatchEdges,
              "stream-file chunk capacity must match kIngestBatchEdges");
// The v3 payload kernel writes each (delta, element) pair straight into
// an Edge, read as two u32s.
static_assert(offsetof(Edge, set) == 0 &&
                  offsetof(Edge, element) == sizeof(uint32_t),
              "the v3 payload kernel writes Edge arrays as u32 pairs");
// magic + version + m + n + N + header_crc.
constexpr uint64_t kHeaderBytes = 4 + 4 + 4 + 4 + 8 + 4;
constexpr uint64_t kChunkHeaderBytes = 4 + 4 + 4;  // count, bytes, crc
constexpr uint64_t kFooterBytes = 4 + 8 + 4;  // index_crc + offset + magic

size_t ChunkEdgeCount(size_t stream_length, size_t chunk_index) {
  size_t start = chunk_index * kChunkEdges;
  if (start >= stream_length) return 0;
  return std::min(kChunkEdges, stream_length - start);
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

}  // namespace

bool WriteStreamFile(const EdgeStream& stream, const std::string& path,
                     StreamFormat format, std::string* error) {
  const uint32_t version = static_cast<uint32_t>(format);
  const uint32_t m = stream.meta.num_sets;
  const uint32_t n = stream.meta.num_elements;
  const uint64_t big_n = stream.edges.size();
  return WriteFileAtomically(
      path,
      [&](std::FILE* f) {
        unsigned char header[20];
        std::memcpy(header, &version, 4);
        std::memcpy(header + 4, &m, 4);
        std::memcpy(header + 8, &n, 4);
        std::memcpy(header + 12, &big_n, 8);
        const uint32_t header_crc = Crc32(header, sizeof(header));
        if (!WriteBytes(f, kMagic, 4) ||
            !WriteBytes(f, header, sizeof(header)) ||
            !WriteBytes(f, &header_crc, 4)) {
          return false;
        }
        // Chunk by chunk: the file is never buffered whole.
        const size_t num_chunks = (big_n + kChunkEdges - 1) / kChunkEdges;
        std::vector<uint64_t> offsets;
        offsets.reserve(num_chunks);
        std::vector<uint8_t> payload;
        uint64_t offset = kHeaderBytes;
        for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
          const uint32_t count =
              static_cast<uint32_t>(ChunkEdgeCount(big_n, chunk));
          EncodeV3Payload(stream.edges.data() + chunk * kChunkEdges, count,
                          &payload);
          const uint32_t payload_bytes = static_cast<uint32_t>(payload.size());
          const uint32_t payload_crc = Crc32c(payload.data(), payload.size());
          if (!WriteBytes(f, &count, 4) || !WriteBytes(f, &payload_bytes, 4) ||
              !WriteBytes(f, &payload_crc, 4) ||
              !WriteBytes(f, payload.data(), payload.size())) {
            return false;
          }
          offsets.push_back(offset);
          offset += kChunkHeaderBytes + payload_bytes;
        }
        // Trailing chunk-offset index + self-locating footer: O(1) seeks
        // despite variable-size chunks, recoverable by header scan if
        // the tail is lost.
        const uint64_t index_offset = offset;
        const uint32_t index_crc =
            Crc32c(offsets.data(), offsets.size() * sizeof(uint64_t));
        return WriteBytes(f, offsets.data(),
                          offsets.size() * sizeof(uint64_t)) &&
               WriteBytes(f, &index_crc, 4) &&
               WriteBytes(f, &index_offset, 8) &&
               WriteBytes(f, kIndexMagic, 4);
      },
      error);
}

std::unique_ptr<StreamFileReader> StreamFileReader::Open(
    const std::string& path, std::string* error) {
  auto reader = std::unique_ptr<StreamFileReader>(new StreamFileReader());
  if (!reader->map_.Open(path, error)) return nullptr;

  auto fail = [&](const std::string& msg) -> std::unique_ptr<StreamFileReader> {
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
  // Ahead of the CRC check: a version 1 header has no CRC to check.
  if (version != kVersion) {
    return fail(path + ": stream format version " + std::to_string(version) +
                " is not supported (this build reads version " +
                std::to_string(kVersion) + ")");
  }
  uint32_t stored_crc = 0;
  if (!reader->ReadRaw(kHeaderBytes - 4, &stored_crc, 4)) {
    return fail("truncated header");
  }
  if (stored_crc != Crc32(header, sizeof(header))) {
    return fail("header checksum mismatch");
  }
  reader->meta_ = {m, n, big_n};
  reader->LoadOffsets();
  return reader;
}

bool StreamFileReader::ReadRaw(uint64_t offset, void* out,
                               size_t bytes) const {
  if (offset > map_.size() || bytes > map_.size() - offset) return false;
  std::memcpy(out, map_.data() + offset, bytes);
  return true;
}

size_t StreamFileReader::NumChunks() const {
  // Rounded up without the + 4095 that would wrap an N near 2^64.
  const uint64_t big_n = meta_.stream_length;
  return size_t(big_n / kChunkEdges + (big_n % kChunkEdges != 0));
}

void StreamFileReader::LoadOffsets() {
  const size_t chunks = NumChunks();
  const uint64_t file_size = map_.size();
  offsets_.clear();
  data_end_ = file_size;
  if (chunks == 0) return;

  // Fast path: the trailing index, validated end to end (footer magic,
  // size arithmetic, CRC, monotonicity) before a single offset is
  // trusted.
  const uint64_t index_bytes = uint64_t(chunks) * sizeof(uint64_t);
  uint8_t footer[kFooterBytes];
  if (file_size >= kHeaderBytes + index_bytes + kFooterBytes &&
      ReadRaw(file_size - kFooterBytes, footer, kFooterBytes)) {
    uint32_t index_crc = 0;
    uint64_t index_offset = 0;
    std::memcpy(&index_crc, footer, 4);
    std::memcpy(&index_offset, footer + 4, 8);
    if (std::memcmp(footer + 12, kIndexMagic, 4) == 0 &&
        index_offset >= kHeaderBytes &&
        index_offset + index_bytes + kFooterBytes == file_size) {
      std::vector<uint64_t> offsets(chunks);
      if (ReadRaw(index_offset, offsets.data(), index_bytes) &&
          Crc32c(offsets.data(), index_bytes) == index_crc) {
        bool sane = offsets[0] == kHeaderBytes;
        for (size_t c = 1; sane && c < chunks; ++c) {
          sane = offsets[c] > offsets[c - 1] && offsets[c] < index_offset;
        }
        if (sane) {
          offsets_ = std::move(offsets);
          data_end_ = index_offset;
          return;
        }
      }
    }
  }

  // Fallback: linear header scan — payload_bytes makes chunks
  // self-delimiting, so a file with a damaged or missing index (e.g. a
  // truncated tail) still yields every chunk that physically survives.
  uint64_t offset = kHeaderBytes;
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    uint8_t chunk_header[kChunkHeaderBytes];
    if (!ReadRaw(offset, chunk_header, kChunkHeaderBytes)) break;
    offsets_.push_back(offset);
    uint32_t payload_bytes = 0;
    std::memcpy(&payload_bytes, chunk_header + 4, 4);
    offset += kChunkHeaderBytes + payload_bytes;
    if (offset > file_size) break;  // truncated payload; chunk recorded
  }
}

bool StreamFileReader::DecodeChunk(size_t chunk, DecodedChunk* out) {
  out->edges = {};
  out->truncated = false;
  out->checksum_failed = false;
  const size_t want = ChunkEdgeCount(meta_.stream_length, chunk);
  if (want == 0) return false;

  // Locate via the offset table, CRC32C-check the compressed payload,
  // then delta-varint decode.
  if (chunk >= offsets_.size()) {
    out->truncated = true;  // the file ended before this chunk
    return true;
  }
  const uint64_t offset = offsets_[chunk];
  uint8_t chunk_header[kChunkHeaderBytes];
  if (offset + kChunkHeaderBytes > data_end_ ||
      !ReadRaw(offset, chunk_header, kChunkHeaderBytes)) {
    out->truncated = true;
    return true;
  }
  uint32_t count = 0, payload_bytes = 0, stored_crc = 0;
  std::memcpy(&count, chunk_header, 4);
  std::memcpy(&payload_bytes, chunk_header + 4, 4);
  std::memcpy(&stored_crc, chunk_header + 8, 4);
  if (count != want) {
    // A count other than the one N implies would desynchronize every
    // following chunk: damage.
    out->checksum_failed = true;
    return true;
  }
  const uint64_t payload_offset = offset + kChunkHeaderBytes;
  if (payload_offset + payload_bytes > data_end_) {
    out->truncated = true;
    return true;
  }
  const uint8_t* payload = map_.data() + payload_offset;
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
