#include "run/checkpoint.h"

#include <bit>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"

namespace setcover {
namespace {

constexpr uint32_t kMagic = 0x504B4353u;  // "SCKP" little-endian
// v2 added session_sequence (the session server's exactly-once cursor);
// v1 files load with session_sequence = 0.
constexpr uint32_t kVersion = 2;

constexpr uint32_t kShardedMagic = 0x48534353u;  // "SCSH" little-endian
constexpr uint32_t kShardedVersion = 1;

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

/// Bounds-checked little-endian cursor over the loaded file bytes.
struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  bool ok = true;

  uint32_t U32() {
    if (pos + 4 > size) {
      ok = false;
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(data[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }

  uint64_t U64() {
    if (pos + 8 > size) {
      ok = false;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(data[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }

  bool String(std::string* out) {
    const uint32_t len = U32();
    if (!ok || pos + len > size) {
      ok = false;
      return false;
    }
    out->assign(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    return true;
  }
};

/// Bytes AppendCheckpointBody writes: the name's length and bytes, two
/// u32 meta fields, eight u64 fields (the last one the state length),
/// and the state words. Writers size their buffer from it once.
size_t CheckpointBodyBytes(const Checkpoint& checkpoint) {
  return 4 + checkpoint.algorithm_name.size() + 2 * 4 + 8 * 8 +
         checkpoint.state_words.size() * 8;
}

/// The checkpoint body — everything between the header and the CRC of
/// the single-run format. The sharded aggregate embeds one body per
/// present slot, byte-identical to the single-run layout.
void AppendCheckpointBody(std::vector<uint8_t>* bytes,
                          const Checkpoint& checkpoint) {
  AppendU32(bytes, uint32_t(checkpoint.algorithm_name.size()));
  for (char c : checkpoint.algorithm_name) bytes->push_back(uint8_t(c));
  AppendU32(bytes, checkpoint.meta.num_sets);
  AppendU32(bytes, checkpoint.meta.num_elements);
  AppendU64(bytes, checkpoint.meta.stream_length);
  AppendU64(bytes, checkpoint.stream_position);
  AppendU64(bytes, checkpoint.edges_delivered);
  AppendU64(bytes, checkpoint.transient_retries);
  AppendU64(bytes, checkpoint.corrupt_skipped);
  AppendU64(bytes, checkpoint.faults_survived);
  AppendU64(bytes, checkpoint.session_sequence);
  AppendU64(bytes, checkpoint.state_words.size());
  if (checkpoint.state_words.empty()) return;
  // The words are stored little-endian: on a little-endian host that is
  // their memory image, copied in one go.
  if constexpr (std::endian::native == std::endian::little) {
    const size_t at = bytes->size();
    const size_t state_bytes = checkpoint.state_words.size() * 8;
    bytes->resize(at + state_bytes);
    std::memcpy(bytes->data() + at, checkpoint.state_words.data(),
                state_bytes);
  } else {
    for (uint64_t w : checkpoint.state_words) AppendU64(bytes, w);
  }
}

bool ParseCheckpointBody(ByteReader* in, uint32_t version,
                         Checkpoint* checkpoint) {
  if (!in->String(&checkpoint->algorithm_name)) return false;
  checkpoint->meta.num_sets = in->U32();
  checkpoint->meta.num_elements = in->U32();
  checkpoint->meta.stream_length = in->U64();
  checkpoint->stream_position = in->U64();
  checkpoint->edges_delivered = in->U64();
  checkpoint->transient_retries = in->U64();
  checkpoint->corrupt_skipped = in->U64();
  checkpoint->faults_survived = in->U64();
  checkpoint->session_sequence = version >= 2 ? in->U64() : 0;
  const uint64_t state_len = in->U64();
  if (!in->ok || state_len > (in->size - in->pos) / 8) return false;
  checkpoint->state_words.clear();
  checkpoint->state_words.reserve(state_len);
  for (uint64_t i = 0; i < state_len; ++i)
    checkpoint->state_words.push_back(in->U64());
  return in->ok;
}

/// Appends the CRC and writes `bytes` to `path` via tmp + atomic rename.
bool WriteAtomically(std::vector<uint8_t>* bytes, const std::string& path,
                     std::string* error) {
  AppendU32(bytes, Crc32(bytes->data() + 4, bytes->size() - 4));

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + tmp + " for writing";
    return false;
  }
  const bool wrote =
      std::fwrite(bytes->data(), 1, bytes->size(), f) == bytes->size() &&
      std::fflush(f) == 0;
  // A failed close can lose buffered bytes: never rename its file into
  // place.
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "failed writing checkpoint " + path;
    return false;
  }
  return true;
}

/// Loads `path`, verifies header magic/version bounds and the trailing
/// CRC, and leaves a ByteReader positioned after the version field.
bool LoadVerified(const std::string& path, uint32_t magic,
                  uint32_t max_version, std::vector<uint8_t>* bytes,
                  uint32_t* version, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open checkpoint " + path;
    return false;
  }
  uint8_t buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof buffer, f)) > 0)
    bytes->insert(bytes->end(), buffer, buffer + got);
  std::fclose(f);

  ByteReader in{bytes->data(), bytes->size()};
  const uint32_t file_magic = in.U32();
  *version = in.U32();
  if (file_magic != magic || *version < 1 || *version > max_version) {
    if (error != nullptr) *error = path + ": not a checkpoint file";
    return false;
  }
  // The trailing CRC covers everything between the magic and itself.
  if (bytes->size() < 12) {
    if (error != nullptr) *error = path + ": truncated checkpoint";
    return false;
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes->data() + bytes->size() - 4, 4);
  if (Crc32(bytes->data() + 4, bytes->size() - 8) != stored_crc) {
    if (error != nullptr) *error = path + ": checkpoint checksum mismatch";
    return false;
  }
  return true;
}

}  // namespace

bool SaveCheckpoint(const Checkpoint& checkpoint, const std::string& path,
                    std::string* error) {
  std::vector<uint8_t> bytes;
  bytes.reserve(8 + CheckpointBodyBytes(checkpoint) + 4);  // + CRC
  AppendU32(&bytes, kMagic);
  AppendU32(&bytes, kVersion);
  AppendCheckpointBody(&bytes, checkpoint);
  return WriteAtomically(&bytes, path, error);
}

std::optional<Checkpoint> LoadCheckpoint(const std::string& path,
                                         std::string* error) {
  std::vector<uint8_t> bytes;
  uint32_t version = 0;
  if (!LoadVerified(path, kMagic, kVersion, &bytes, &version, error)) {
    return std::nullopt;
  }
  ByteReader in{bytes.data(), bytes.size(), /*pos=*/8};
  Checkpoint checkpoint;
  if (!ParseCheckpointBody(&in, version, &checkpoint) ||
      in.pos + 4 != bytes.size()) {
    if (error != nullptr) *error = path + ": malformed checkpoint";
    return std::nullopt;
  }
  return checkpoint;
}

bool SaveShardedCheckpoint(const ShardedCheckpoint& checkpoint,
                           const std::string& path, std::string* error) {
  if (checkpoint.shard_states.size() != checkpoint.shards) {
    if (error != nullptr)
      *error = "sharded checkpoint has " +
               std::to_string(checkpoint.shard_states.size()) +
               " slots for " + std::to_string(checkpoint.shards) + " shards";
    return false;
  }
  size_t size = 16 + checkpoint.partitioner.size() + 4;  // header + CRC
  for (const std::optional<Checkpoint>& slot : checkpoint.shard_states) {
    size += 4 + (slot.has_value() ? CheckpointBodyBytes(*slot) : 0);
  }
  std::vector<uint8_t> bytes;
  bytes.reserve(size);
  AppendU32(&bytes, kShardedMagic);
  AppendU32(&bytes, kShardedVersion);
  AppendU32(&bytes, checkpoint.shards);
  AppendU32(&bytes, uint32_t(checkpoint.partitioner.size()));
  for (char c : checkpoint.partitioner) bytes.push_back(uint8_t(c));
  for (const std::optional<Checkpoint>& slot : checkpoint.shard_states) {
    AppendU32(&bytes, slot.has_value() ? 1 : 0);
    if (slot.has_value()) AppendCheckpointBody(&bytes, *slot);
  }
  return WriteAtomically(&bytes, path, error);
}

std::optional<ShardedCheckpoint> LoadShardedCheckpoint(
    const std::string& path, std::string* error) {
  std::vector<uint8_t> bytes;
  uint32_t version = 0;
  if (!LoadVerified(path, kShardedMagic, kShardedVersion, &bytes, &version,
                    error)) {
    return std::nullopt;
  }
  ByteReader in{bytes.data(), bytes.size(), /*pos=*/8};
  ShardedCheckpoint checkpoint;
  checkpoint.shards = in.U32();
  // Oversized shard counts would try to reserve garbage; anything that
  // cannot fit present-flags in the remaining bytes is malformed.
  if (!in.ok || !in.String(&checkpoint.partitioner) ||
      checkpoint.shards > (in.size - in.pos) / 4) {
    if (error != nullptr) *error = path + ": malformed checkpoint";
    return std::nullopt;
  }
  checkpoint.shard_states.resize(checkpoint.shards);
  for (uint32_t w = 0; w < checkpoint.shards; ++w) {
    const uint32_t present = in.U32();
    if (!in.ok || present > 1) {
      if (error != nullptr) *error = path + ": malformed checkpoint";
      return std::nullopt;
    }
    if (present == 0) continue;
    Checkpoint slot;
    // Slot bodies always use the current single-run layout.
    if (!ParseCheckpointBody(&in, kVersion, &slot)) {
      if (error != nullptr) *error = path + ": malformed checkpoint";
      return std::nullopt;
    }
    checkpoint.shard_states[w] = std::move(slot);
  }
  if (!in.ok || in.pos + 4 != bytes.size()) {
    if (error != nullptr) *error = path + ": malformed checkpoint";
    return std::nullopt;
  }
  return checkpoint;
}

}  // namespace setcover
