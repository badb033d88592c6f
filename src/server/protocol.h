#ifndef SETCOVER_SERVER_PROTOCOL_H_
#define SETCOVER_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/session.h"
#include "stream/edge.h"
#include "stream/fault_injector.h"

namespace setcover {
namespace server {

/// The session-server wire protocol: small, length-prefixed,
/// CRC-framed messages multiplexing many ingest sessions over one
/// connection.
///
/// Every message travels as one *frame*:
///
///   u32 payload_length            (transport framing, little-endian)
///   payload:
///     u8  type                    (MessageType)
///     u64 session_id
///     ... type-specific body ...
///     u32 crc                     CRC-32C of every payload byte before
///                                 the crc itself
///
/// The CRC lives inside the payload, so it is checked by
/// DecodeMessage regardless of transport — the in-process
/// LocalTransport exercises exactly the same framing validation as the
/// unix-domain socket. A frame whose payload exceeds kMaxFrameBytes,
/// whose CRC mismatches, whose body is truncated, or which carries
/// trailing bytes, is rejected (DecodeMessage returns nullopt) — the
/// server answers kError, it never crashes on hostile bytes
/// (tests/protocol_test.cc flips every byte and asserts this, under
/// ASan in scripts/check.sh).
///
/// Idempotency (what makes client retries safe):
///   kOpen      — open-or-attach: re-sending returns the current
///                durable cursor instead of failing.
///   kIngest    — exactly-once keyed by (session_id, sequence).
///   kFinalize  — idempotent (the report is cached server-side) and
///                fenced on the cursor: the request carries the
///                sequence the client believes is applied, so a blind
///                re-send cannot seal a session that a crash rolled
///                back to an older checkpoint (the client resyncs and
///                refills the tail instead).
///   kCheckpoint/kClose — naturally idempotent.
///   kStats     — read-only.
enum class MessageType : uint8_t {
  kInvalid = 0,

  // Requests.
  kOpen = 1,        // create or re-attach a session
  kIngest = 2,      // one sequenced edge batch
  kCheckpoint = 3,  // checkpoint now (drain, or a cautious client)
  kFinalize = 4,    // end of stream: cover + certificate
  kStats = 5,       // per-session (session_id != 0) or server-wide (0)
  kClose = 6,       // forget the session and delete its durable state

  // Replies.
  kOpenOk = 64,
  kIngestOk = 65,
  kCheckpointOk = 66,
  kFinalizeOk = 67,
  kStatsOk = 68,
  kCloseOk = 69,
  kRetryAfter = 80,  // shed: try again after a delay (see RetryReason)
  kError = 81,       // request-level failure, connection stays usable
};

/// Why the server asked the client to come back later.
enum class RetryReason : uint8_t {
  kOverloaded = 0,  // admission control: every slot busy, waiters full
  kDraining = 1,    // graceful shutdown in progress
  kEvicted = 2,     // idle TTL eviction: state checkpointed, re-open to resume
};

/// Hard ceiling on one frame's payload bytes; bounds server-side
/// allocation before any content is trusted.
inline constexpr size_t kMaxFrameBytes = 1u << 20;

/// Largest edge batch one kIngest frame can carry (fits kMaxFrameBytes
/// with room for the envelope).
inline constexpr size_t kMaxIngestEdges = 65536;

/// Largest worker fan-out a kOpen may ask for. A session builds one
/// algorithm pipeline per worker, so the decoder refuses anything above
/// this before a session is built.
inline constexpr uint32_t kMaxSessionWorkers = 64;

/// What kOpen carries — everything the server needs to build (or
/// rebuild, after a crash) the engine::Session. The server persists
/// the encoded kOpen frame as the session's manifest, so recovery
/// re-decodes exactly what the client declared.
struct OpenBody {
  std::string algorithm;
  uint64_t seed = 1;
  StreamMetadata meta;
  uint64_t checkpoint_every = 0;
  /// Worker fan-out behind the session (engine::SessionConfig::workers);
  /// 0 or 1 = one pipeline, at most kMaxSessionWorkers. Requires a
  /// shardable algorithm and no fault schedule when > 1.
  uint32_t workers = 0;
  std::optional<FaultSchedule> faults;
};

/// One decoded protocol message; `type` says which fields are
/// meaningful. A single struct (rather than one per type) keeps
/// encode/decode/dispatch table-flat — the body overhead of unused
/// fields is a few words per in-flight message.
struct Message {
  MessageType type = MessageType::kInvalid;
  uint64_t session_id = 0;

  // kOpen
  OpenBody open;

  // kIngest (the batch's sequence) / kFinalize (the cursor fence;
  // 0 = unfenced)
  uint64_t sequence = 0;
  std::vector<Edge> edges;

  // kOpenOk / kIngestOk / kCheckpointOk. `last_sequence` is a
  // *cumulative* ack: the session's durable cursor after applying this
  // request, so one kIngestOk acknowledges every batch up to and
  // including that sequence — a pipelined sender (client.h's ingest
  // window) retires its whole in-flight prefix from a single reply.
  bool resumed = false;
  bool duplicate = false;
  uint64_t last_sequence = 0;
  uint64_t checkpoints_written = 0;

  // kFinalizeOk
  bool degraded = false;
  uint64_t edges_delivered = 0;
  uint64_t uncovered_elements = 0;
  uint64_t peak_words = 0;
  uint64_t current_words = 0;
  uint64_t transient_retries = 0;
  uint64_t corrupt_records_skipped = 0;
  uint64_t faults_survived = 0;
  std::vector<uint32_t> cover;
  std::vector<uint32_t> certificate;

  // kStatsOk, session scope (session_id != 0)
  engine::SessionStats session_stats;

  // kStatsOk, server scope (session_id == 0)
  uint64_t open_sessions = 0;
  uint64_t frames_received = 0;
  uint64_t sheds = 0;
  uint64_t total_edges_delivered = 0;

  // kRetryAfter
  uint64_t retry_after_us = 0;
  RetryReason retry_reason = RetryReason::kOverloaded;

  // kError
  std::string error;
};

/// Serializes `message` into one frame payload (type + session_id +
/// body + CRC-32C), ready for Connection::Send.
std::vector<uint8_t> EncodeMessage(const Message& message);

/// Arena-reuse overload: clears *out and fills it with the identical
/// bytes. A caller that keeps `out` alive across calls (SessionClient
/// does) pays zero allocations per message once the buffer has grown
/// to its working size.
void EncodeMessage(const Message& message, std::vector<uint8_t>* out);

/// Encodes a kIngest frame straight from the caller's edge buffer —
/// byte-identical to EncodeMessage on an equivalent Message, without
/// ever copying the batch into Message::edges. This is the zero-copy
/// hot path of the windowed ingest sender.
void EncodeIngest(uint64_t session_id, uint64_t sequence,
                  std::span<const Edge> edges, std::vector<uint8_t>* out);

/// Parses and CRC-verifies one frame payload. nullopt (with *error) on
/// any malformation — unknown type, bad CRC, truncation, trailing
/// bytes, out-of-bounds counts.
std::optional<Message> DecodeMessage(const std::vector<uint8_t>& payload,
                                     std::string* error);

/// Convenience constructors for the common replies.
Message MakeError(uint64_t session_id, std::string what);
Message MakeRetryAfter(uint64_t session_id, uint64_t delay_us,
                       RetryReason reason);

}  // namespace server
}  // namespace setcover

#endif  // SETCOVER_SERVER_PROTOCOL_H_
