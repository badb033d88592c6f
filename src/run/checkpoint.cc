#include "run/checkpoint.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "util/atomic_file.h"
#include "util/crc32.h"

namespace setcover {
namespace {

constexpr uint32_t kMagic = 0x504B4353u;  // "SCKP" little-endian
// v4 holds W slots at every W under a CRC-32C. v1–v3 held one
// unslotted body under a CRC-32 (v1 without session_sequence, v2 with
// adversarial-level state short of its promotion countdown word); they
// are refused, never decoded.
constexpr uint32_t kVersion = 4;

// The retired multi-slot format of W > 1 runs (versions 1 and 2).
// Server state dirs may still hold such sidecars; they are refused by
// name and version.
constexpr uint32_t kRetiredShardedMagic = 0x48534353u;  // "SCSH"

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
/// and the state words. The writer sizes its buffer from it once.
size_t CheckpointBodyBytes(const Checkpoint& checkpoint) {
  return 4 + checkpoint.algorithm_name.size() + 2 * 4 + 8 * 8 +
         checkpoint.state_words.size() * 8;
}

/// One present slot's body, name through state words.
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

bool ParseCheckpointBody(ByteReader* in, Checkpoint* checkpoint) {
  if (!in->String(&checkpoint->algorithm_name)) return false;
  checkpoint->meta.num_sets = in->U32();
  checkpoint->meta.num_elements = in->U32();
  checkpoint->meta.stream_length = in->U64();
  checkpoint->stream_position = in->U64();
  checkpoint->edges_delivered = in->U64();
  checkpoint->transient_retries = in->U64();
  checkpoint->corrupt_skipped = in->U64();
  checkpoint->faults_survived = in->U64();
  checkpoint->session_sequence = in->U64();
  const uint64_t state_len = in->U64();
  if (!in->ok || state_len > (in->size - in->pos) / 8) return false;
  checkpoint->state_words.clear();
  checkpoint->state_words.reserve(state_len);
  for (uint64_t i = 0; i < state_len; ++i)
    checkpoint->state_words.push_back(in->U64());
  return in->ok;
}

/// Writes the file of `slots` (null: an absent slot) via tmp + atomic
/// rename.
bool WriteSlots(std::span<const Checkpoint* const> slots,
                const std::string& path, std::string* error) {
  size_t size = 12 + 4;  // header + CRC
  for (const Checkpoint* slot : slots) {
    size += 4 + (slot != nullptr ? CheckpointBodyBytes(*slot) : 0);
  }
  std::vector<uint8_t> bytes;
  bytes.reserve(size);
  AppendU32(&bytes, kMagic);
  AppendU32(&bytes, kVersion);
  AppendU32(&bytes, uint32_t(slots.size()));
  for (const Checkpoint* slot : slots) {
    AppendU32(&bytes, slot != nullptr ? 1 : 0);
    if (slot != nullptr) AppendCheckpointBody(&bytes, *slot);
  }
  AppendU32(&bytes, Crc32c(bytes.data() + 4, bytes.size() - 4));
  return WriteFileAtomically(
      path,
      [&bytes](std::FILE* f) {
        return WriteBytes(f, bytes.data(), bytes.size());
      },
      error);
}

/// Loads `path` and verifies its magic, its version and the trailing
/// CRC; false with *error naming what was refused.
bool LoadVerified(const std::string& path, std::vector<uint8_t>* bytes,
                  std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open checkpoint " + path;
    return false;
  }
  uint8_t buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof buffer, f)) > 0)
    bytes->insert(bytes->end(), buffer, buffer + got);
  std::fclose(f);

  ByteReader in{bytes->data(), bytes->size()};
  const uint32_t magic = in.U32();
  const uint32_t version = in.U32();
  if (in.ok && magic == kRetiredShardedMagic) {
    *error = path + ": SCSH checkpoint format version " +
             std::to_string(version) +
             " is not supported (this build reads SCKP version " +
             std::to_string(kVersion) + ")";
    return false;
  }
  if (!in.ok || magic != kMagic) {
    *error = path + ": not a checkpoint file";
    return false;
  }
  if (version != kVersion) {
    *error = path + ": checkpoint format version " +
             std::to_string(version) +
             " is not supported (this build reads version " +
             std::to_string(kVersion) + ")";
    return false;
  }
  // The trailing CRC covers everything between the magic and itself.
  if (bytes->size() < 16) {
    *error = path + ": truncated checkpoint";
    return false;
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes->data() + bytes->size() - 4, 4);
  if (Crc32c(bytes->data() + 4, bytes->size() - 8) != stored_crc) {
    *error = path + ": checkpoint checksum mismatch";
    return false;
  }
  return true;
}

}  // namespace

bool SaveCheckpoint(const Checkpoint& checkpoint, const std::string& path,
                    std::string* error) {
  const Checkpoint* slot = &checkpoint;
  return WriteSlots({&slot, 1}, path, error);
}

bool SaveShardedCheckpoint(const ShardedCheckpoint& checkpoint,
                           const std::string& path, std::string* error) {
  if (checkpoint.shard_states.size() != checkpoint.shards) {
    *error = "sharded checkpoint has " +
             std::to_string(checkpoint.shard_states.size()) +
             " slots for " + std::to_string(checkpoint.shards) + " shards";
    return false;
  }
  std::vector<const Checkpoint*> slots;
  slots.reserve(checkpoint.shards);
  for (const std::optional<Checkpoint>& slot : checkpoint.shard_states) {
    slots.push_back(slot.has_value() ? &*slot : nullptr);
  }
  return WriteSlots(slots, path, error);
}

std::optional<ShardedCheckpoint> LoadShardedCheckpoint(
    const std::string& path, std::string* error) {
  std::vector<uint8_t> bytes;
  if (!LoadVerified(path, &bytes, error)) return std::nullopt;
  ByteReader in{bytes.data(), bytes.size(), /*pos=*/8};
  ShardedCheckpoint checkpoint;
  checkpoint.shards = in.U32();
  // Oversized shard counts would try to reserve garbage; anything that
  // cannot fit present-flags in the remaining bytes is malformed.
  if (!in.ok || checkpoint.shards > (in.size - in.pos) / 4) {
    *error = path + ": malformed checkpoint";
    return std::nullopt;
  }
  checkpoint.shard_states.resize(checkpoint.shards);
  for (uint32_t w = 0; w < checkpoint.shards; ++w) {
    const uint32_t present = in.U32();
    if (!in.ok || present > 1) {
      *error = path + ": malformed checkpoint";
      return std::nullopt;
    }
    if (present == 0) continue;
    Checkpoint slot;
    if (!ParseCheckpointBody(&in, &slot)) {
      *error = path + ": malformed checkpoint";
      return std::nullopt;
    }
    checkpoint.shard_states[w] = std::move(slot);
  }
  if (!in.ok || in.pos + 4 != bytes.size()) {
    *error = path + ": malformed checkpoint";
    return std::nullopt;
  }
  return checkpoint;
}

}  // namespace setcover
