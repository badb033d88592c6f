#include "server/protocol.h"

#include <bit>
#include <cstring>

#include "util/crc32.h"

namespace setcover {
namespace server {
namespace {

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

void PutDouble(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  PutU64(out, bits);
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, uint32_t(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

void PutU32Vector(std::vector<uint8_t>* out,
                  const std::vector<uint32_t>& values) {
  PutU32(out, uint32_t(values.size()));
  for (uint32_t v : values) PutU32(out, v);
}

// An Edge is two packed little-endian u32s on the wire — on a
// little-endian host that is exactly its in-memory layout, so whole
// batches move with one memcpy instead of per-field byte loops. The
// big-endian fallback keeps the wire format identical.
static_assert(sizeof(Edge) == 8, "Edge wire layout assumes two packed u32s");

void PutEdges(std::vector<uint8_t>* out, std::span<const Edge> edges) {
  PutU32(out, uint32_t(edges.size()));
  if (edges.empty()) return;
  if constexpr (std::endian::native == std::endian::little) {
    const size_t at = out->size();
    out->resize(at + edges.size() * sizeof(Edge));
    std::memcpy(out->data() + at, edges.data(), edges.size() * sizeof(Edge));
  } else {
    for (const Edge& edge : edges) {
      PutU32(out, edge.set);
      PutU32(out, edge.element);
    }
  }
}

/// Bounds-checked little-endian cursor (the checkpoint loader's
/// ByteReader, grown strings/doubles). Any overrun latches `ok = false`
/// and further reads return zero values.
struct Cursor {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  bool ok = true;

  uint8_t U8() {
    if (pos + 1 > size) {
      ok = false;
      return 0;
    }
    return data[pos++];
  }
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
  double Double() {
    uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string String(size_t max_len) {
    const uint32_t len = U32();
    if (!ok || len > max_len || pos + len > size) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    return s;
  }
  std::vector<uint32_t> U32Vector(size_t max_count) {
    const uint32_t count = U32();
    std::vector<uint32_t> values;
    if (!ok || count > max_count || pos + size_t(count) * 4 > size) {
      ok = false;
      return values;
    }
    values.reserve(count);
    for (uint32_t i = 0; i < count; ++i) values.push_back(U32());
    return values;
  }
};

void EncodeSessionStats(std::vector<uint8_t>* out,
                        const engine::SessionStats& stats) {
  PutU64(out, stats.edges_delivered);
  PutU64(out, stats.batches);
  PutU64(out, stats.ingest_calls);
  PutU64(out, stats.duplicate_ingests);
  PutU64(out, stats.checkpoints_written);
  PutU64(out, stats.transient_retries);
  PutU64(out, stats.corrupt_records_skipped);
  PutU64(out, stats.faults_survived);
  PutU64(out, stats.last_sequence);
  PutU8(out, stats.resumed ? 1 : 0);
  PutU8(out, stats.finalized ? 1 : 0);
  PutU8(out, stats.degraded ? 1 : 0);
  PutDouble(out, stats.setup_seconds);
  PutDouble(out, stats.stream_seconds);
  PutDouble(out, stats.finalize_seconds);
  PutU64(out, stats.peak_words);
  PutU64(out, stats.current_words);
}

engine::SessionStats DecodeSessionStats(Cursor* in) {
  engine::SessionStats stats;
  stats.edges_delivered = in->U64();
  stats.batches = in->U64();
  stats.ingest_calls = in->U64();
  stats.duplicate_ingests = in->U64();
  stats.checkpoints_written = in->U64();
  stats.transient_retries = in->U64();
  stats.corrupt_records_skipped = in->U64();
  stats.faults_survived = in->U64();
  stats.last_sequence = in->U64();
  stats.resumed = in->U8() != 0;
  stats.finalized = in->U8() != 0;
  stats.degraded = in->U8() != 0;
  stats.setup_seconds = in->Double();
  stats.stream_seconds = in->Double();
  stats.finalize_seconds = in->Double();
  stats.peak_words = in->U64();
  stats.current_words = in->U64();
  return stats;
}

}  // namespace

std::vector<uint8_t> EncodeMessage(const Message& message) {
  std::vector<uint8_t> out;
  EncodeMessage(message, &out);
  return out;
}

void EncodeMessage(const Message& message, std::vector<uint8_t>* out_ptr) {
  std::vector<uint8_t>& out = *out_ptr;
  out.clear();
  PutU8(&out, uint8_t(message.type));
  PutU64(&out, message.session_id);
  switch (message.type) {
    case MessageType::kOpen:
      PutString(&out, message.open.algorithm);
      PutU64(&out, message.open.seed);
      PutU32(&out, message.open.meta.num_sets);
      PutU32(&out, message.open.meta.num_elements);
      PutU64(&out, message.open.meta.stream_length);
      PutU64(&out, message.open.checkpoint_every);
      PutU32(&out, message.open.workers);
      PutU8(&out, message.open.faults.has_value() ? 1 : 0);
      if (message.open.faults.has_value()) {
        const FaultSchedule& faults = *message.open.faults;
        PutU64(&out, faults.seed);
        PutDouble(&out, faults.transient_rate);
        PutDouble(&out, faults.duplicate_rate);
        PutDouble(&out, faults.drop_rate);
        PutDouble(&out, faults.corrupt_rate);
        PutU32(&out, faults.transient_failures);
      }
      break;
    case MessageType::kIngest:
      PutU64(&out, message.sequence);
      PutEdges(&out, message.edges);
      break;
    case MessageType::kFinalize:
      // The fence: the cursor the client believes the session is at.
      // Rejected on mismatch, so a finalize re-sent blindly after a
      // crash cannot seal a session that rolled back to an older
      // checkpoint. 0 = unfenced.
      PutU64(&out, message.sequence);
      break;
    case MessageType::kCheckpoint:
    case MessageType::kStats:
    case MessageType::kClose:
    case MessageType::kCloseOk:
      break;  // envelope only
    case MessageType::kOpenOk:
      PutU8(&out, message.resumed ? 1 : 0);
      PutU64(&out, message.last_sequence);
      PutU64(&out, message.edges_delivered);
      break;
    case MessageType::kIngestOk:
      PutU8(&out, message.duplicate ? 1 : 0);
      PutU64(&out, message.last_sequence);
      PutU64(&out, message.checkpoints_written);
      break;
    case MessageType::kCheckpointOk:
      PutU64(&out, message.checkpoints_written);
      break;
    case MessageType::kFinalizeOk:
      PutU8(&out, message.degraded ? 1 : 0);
      PutU64(&out, message.edges_delivered);
      PutU64(&out, message.uncovered_elements);
      PutU64(&out, message.peak_words);
      PutU64(&out, message.current_words);
      PutU64(&out, message.transient_retries);
      PutU64(&out, message.corrupt_records_skipped);
      PutU64(&out, message.faults_survived);
      PutU32Vector(&out, message.cover);
      PutU32Vector(&out, message.certificate);
      break;
    case MessageType::kStatsOk:
      if (message.session_id != 0) {
        EncodeSessionStats(&out, message.session_stats);
      } else {
        PutU64(&out, message.open_sessions);
        PutU64(&out, message.frames_received);
        PutU64(&out, message.sheds);
        PutU64(&out, message.total_edges_delivered);
      }
      break;
    case MessageType::kRetryAfter:
      PutU64(&out, message.retry_after_us);
      PutU8(&out, uint8_t(message.retry_reason));
      break;
    case MessageType::kError:
      PutString(&out, message.error);
      break;
    case MessageType::kInvalid:
      break;
  }
  PutU32(&out, Crc32c(out.data(), out.size()));
}

void EncodeIngest(uint64_t session_id, uint64_t sequence,
                  std::span<const Edge> edges, std::vector<uint8_t>* out_ptr) {
  std::vector<uint8_t>& out = *out_ptr;
  out.clear();
  PutU8(&out, uint8_t(MessageType::kIngest));
  PutU64(&out, session_id);
  PutU64(&out, sequence);
  PutEdges(&out, edges);
  PutU32(&out, Crc32c(out.data(), out.size()));
}

std::optional<Message> DecodeMessage(const std::vector<uint8_t>& payload,
                                     std::string* error) {
  auto fail = [&](const char* what) -> std::optional<Message> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  if (payload.size() > kMaxFrameBytes) return fail("frame too large");
  if (payload.size() < 1 + 8 + 4) return fail("frame too short");
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, payload.data() + payload.size() - 4, 4);
  if (Crc32c(payload.data(), payload.size() - 4) != stored_crc)
    return fail("frame checksum mismatch");

  Cursor in{payload.data(), payload.size() - 4};
  Message message;
  const uint8_t type = in.U8();
  message.type = MessageType(type);
  message.session_id = in.U64();
  switch (message.type) {
    case MessageType::kOpen: {
      message.open.algorithm = in.String(256);
      message.open.seed = in.U64();
      message.open.meta.num_sets = in.U32();
      message.open.meta.num_elements = in.U32();
      message.open.meta.stream_length = in.U64();
      message.open.checkpoint_every = in.U64();
      message.open.workers = in.U32();
      if (message.open.workers > kMaxSessionWorkers) {
        return fail("open asks for more than kMaxSessionWorkers workers");
      }
      if (in.U8() != 0) {
        FaultSchedule faults;
        faults.seed = in.U64();
        faults.transient_rate = in.Double();
        faults.duplicate_rate = in.Double();
        faults.drop_rate = in.Double();
        faults.corrupt_rate = in.Double();
        faults.transient_failures = in.U32();
        message.open.faults = faults;
      }
      break;
    }
    case MessageType::kIngest: {
      message.sequence = in.U64();
      const uint32_t count = in.U32();
      if (!in.ok || count > kMaxIngestEdges ||
          in.pos + size_t(count) * 8 > in.size) {
        return fail("malformed ingest batch");
      }
      if constexpr (std::endian::native == std::endian::little) {
        message.edges.resize(count);
        if (count > 0) {
          std::memcpy(message.edges.data(), in.data + in.pos,
                      size_t(count) * sizeof(Edge));
        }
        in.pos += size_t(count) * sizeof(Edge);
      } else {
        message.edges.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          Edge edge;
          edge.set = in.U32();
          edge.element = in.U32();
          message.edges.push_back(edge);
        }
      }
      break;
    }
    case MessageType::kFinalize:
      message.sequence = in.U64();
      break;
    case MessageType::kCheckpoint:
    case MessageType::kStats:
    case MessageType::kClose:
    case MessageType::kCloseOk:
      break;
    case MessageType::kOpenOk:
      message.resumed = in.U8() != 0;
      message.last_sequence = in.U64();
      message.edges_delivered = in.U64();
      break;
    case MessageType::kIngestOk:
      message.duplicate = in.U8() != 0;
      message.last_sequence = in.U64();
      message.checkpoints_written = in.U64();
      break;
    case MessageType::kCheckpointOk:
      message.checkpoints_written = in.U64();
      break;
    case MessageType::kFinalizeOk:
      message.degraded = in.U8() != 0;
      message.edges_delivered = in.U64();
      message.uncovered_elements = in.U64();
      message.peak_words = in.U64();
      message.current_words = in.U64();
      message.transient_retries = in.U64();
      message.corrupt_records_skipped = in.U64();
      message.faults_survived = in.U64();
      message.cover = in.U32Vector(kMaxFrameBytes / 4);
      message.certificate = in.U32Vector(kMaxFrameBytes / 4);
      break;
    case MessageType::kStatsOk:
      if (message.session_id != 0) {
        message.session_stats = DecodeSessionStats(&in);
      } else {
        message.open_sessions = in.U64();
        message.frames_received = in.U64();
        message.sheds = in.U64();
        message.total_edges_delivered = in.U64();
      }
      break;
    case MessageType::kRetryAfter:
      message.retry_after_us = in.U64();
      message.retry_reason = RetryReason(in.U8());
      break;
    case MessageType::kError:
      message.error = in.String(4096);
      break;
    case MessageType::kInvalid:
    default:
      return fail("unknown message type");
  }
  if (!in.ok) return fail("truncated message body");
  if (in.pos != in.size) return fail("trailing bytes after message body");
  return message;
}

Message MakeError(uint64_t session_id, std::string what) {
  Message message;
  message.type = MessageType::kError;
  message.session_id = session_id;
  message.error = std::move(what);
  return message;
}

Message MakeRetryAfter(uint64_t session_id, uint64_t delay_us,
                       RetryReason reason) {
  Message message;
  message.type = MessageType::kRetryAfter;
  message.session_id = session_id;
  message.retry_after_us = delay_us;
  message.retry_reason = reason;
  return message;
}

}  // namespace server
}  // namespace setcover
