#include "server/session_manager.h"

#include <cstdio>
#include <utility>
#include <vector>

namespace setcover {
namespace server {
namespace {

/// Delay hint on the evicted-session kRetryAfter: recovery is one
/// sidecar read away, so the client can come back almost immediately.
constexpr uint64_t kEvictedRetryUs = 1000;

/// Writes `bytes` to `path` atomically (tmp + rename), the same
/// crash-safety discipline as SaveCheckpoint: a manifest is either the
/// complete encoded kOpen frame or absent, never torn.
bool WriteFileAtomic(const std::string& path,
                     const std::vector<uint8_t>& bytes, std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    if (error != nullptr) *error = "cannot write " + tmp;
    return false;
  }
  const bool wrote =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), out) ==
                           bytes.size();
  if (std::fclose(out) != 0 || !wrote ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "cannot persist " + path;
    return false;
  }
  return true;
}

bool ReadFile(const std::string& path, std::vector<uint8_t>* bytes) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return false;
  std::fseek(in, 0, SEEK_END);
  const long size = std::ftell(in);
  std::fseek(in, 0, SEEK_SET);
  bytes->resize(size > 0 ? size_t(size) : 0);
  const bool read_ok =
      bytes->empty() ||
      std::fread(bytes->data(), 1, bytes->size(), in) == bytes->size();
  std::fclose(in);
  return read_ok;
}

std::vector<uint32_t> ToU32(const std::vector<SetId>& ids) {
  return std::vector<uint32_t>(ids.begin(), ids.end());
}

}  // namespace

SessionManager::SessionManager(std::string state_dir)
    : SessionManager(std::move(state_dir), [] { return Clock::now(); }) {}

SessionManager::SessionManager(std::string state_dir,
                               std::function<Clock::time_point()> clock)
    : state_dir_(std::move(state_dir)), clock_(std::move(clock)) {}

std::string SessionManager::CheckpointPath(uint64_t id) const {
  return state_dir_ + "/" + std::to_string(id) + ".sckp";
}

std::string SessionManager::ManifestPath(uint64_t id) const {
  return state_dir_ + "/" + std::to_string(id) + ".open";
}

void SessionManager::RemoveSidecars(uint64_t id) const {
  std::remove(CheckpointPath(id).c_str());
  std::remove(ManifestPath(id).c_str());
}

std::unique_ptr<engine::Session> SessionManager::BuildSession(
    uint64_t id, const OpenBody& open, bool resume, std::string* error) {
  engine::SessionConfig config;
  config.algorithm = open.algorithm;
  config.options.seed = open.seed;
  config.meta = open.meta;
  config.faults = open.faults;
  config.workers = open.workers;
  if (!state_dir_.empty()) {
    config.checkpoint_path = CheckpointPath(id);
    config.checkpoint_every = open.checkpoint_every;
  }
  return engine::Session::Open(config, resume, error);
}

std::optional<Message> SessionManager::EvictionGateLocked(uint64_t id) {
  auto it = evicted_.find(id);
  if (it == evicted_.end()) return std::nullopt;
  // One-shot: the retry takes the normal on-demand recovery path.
  evicted_.erase(it);
  Message reply =
      MakeRetryAfter(id, kEvictedRetryUs, RetryReason::kEvicted);
  return reply;
}

Message SessionManager::HandleOpen(const Message& request) {
  const uint64_t id = request.session_id;
  if (id == 0) return MakeError(0, "session id 0 is reserved");
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::optional<Message> gate = EvictionGateLocked(id)) return *gate;

  Message reply;
  reply.type = MessageType::kOpenOk;
  reply.session_id = id;

  auto it = sessions_.find(id);
  if (it == sessions_.end() && !state_dir_.empty()) {
    // Unknown in memory — maybe a previous incarnation of this server
    // opened it. The manifest decides.
    std::vector<uint8_t> manifest;
    if (ReadFile(ManifestPath(id), &manifest)) {
      std::string error;
      std::optional<Message> persisted = DecodeMessage(manifest, &error);
      if (!persisted || persisted->type != MessageType::kOpen)
        return MakeError(id, "corrupt session manifest: " + error);
      auto entry = std::make_shared<Entry>();
      entry->session = BuildSession(id, persisted->open, /*resume=*/true,
                                    &error);
      if (entry->session == nullptr)
        return MakeError(id, "session recovery failed: " + error);
      it = sessions_.emplace(id, std::move(entry)).first;
    }
  }

  if (it != sessions_.end()) {
    // Re-attach (client retry of a lost kOpenOk, or a reconnect after a
    // server crash): report the durable cursor so the client resumes
    // sending from last_sequence + 1.
    it->second->last_touch = clock_();
    engine::Session& session = *it->second->session;
    reply.resumed = true;
    reply.last_sequence = session.LastSequence();
    reply.edges_delivered = session.Stats().edges_delivered;
    return reply;
  }

  // Fresh session. Persist the manifest before any state exists, so a
  // crash at any later point can always rebuild the config.
  if (!state_dir_.empty()) {
    std::string error;
    if (!WriteFileAtomic(ManifestPath(id), EncodeMessage(request), &error))
      return MakeError(id, error);
  }
  std::string error;
  auto entry = std::make_shared<Entry>();
  entry->session = BuildSession(id, request.open, /*resume=*/false, &error);
  if (entry->session == nullptr) {
    if (!state_dir_.empty()) std::remove(ManifestPath(id).c_str());
    return MakeError(id, error);
  }
  entry->last_touch = clock_();
  sessions_.emplace(id, std::move(entry));
  reply.resumed = false;
  reply.last_sequence = 0;
  reply.edges_delivered = 0;
  return reply;
}

std::shared_ptr<SessionManager::Entry> SessionManager::FindOrRecover(
    uint64_t id, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  if (it != sessions_.end()) {
    it->second->last_touch = clock_();
    return it->second;
  }
  if (!state_dir_.empty()) {
    std::vector<uint8_t> manifest;
    if (ReadFile(ManifestPath(id), &manifest)) {
      std::string decode_error;
      std::optional<Message> persisted =
          DecodeMessage(manifest, &decode_error);
      if (!persisted || persisted->type != MessageType::kOpen) {
        if (error != nullptr)
          *error = "corrupt session manifest: " + decode_error;
        return nullptr;
      }
      auto entry = std::make_shared<Entry>();
      entry->session =
          BuildSession(id, persisted->open, /*resume=*/true, error);
      if (entry->session == nullptr) return nullptr;
      entry->last_touch = clock_();
      return sessions_.emplace(id, std::move(entry)).first->second;
    }
  }
  if (error != nullptr)
    *error = "unknown session " + std::to_string(id);
  return nullptr;
}

Message SessionManager::HandleClose(const Message& request) {
  const uint64_t id = request.session_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.erase(id);
    evicted_.erase(id);  // close ends the session; no retry gate needed
  }
  if (!state_dir_.empty()) RemoveSidecars(id);
  Message reply;  // idempotent: closing an unknown id succeeds
  reply.type = MessageType::kCloseOk;
  reply.session_id = id;
  return reply;
}

Message SessionManager::Handle(const Message& request) {
  switch (request.type) {
    case MessageType::kOpen:
      return HandleOpen(request);
    case MessageType::kClose:
      return HandleClose(request);
    default:
      break;
  }

  // Server-scope stats never touch a session.
  if (request.type == MessageType::kStats && request.session_id == 0) {
    Message reply;
    reply.type = MessageType::kStatsOk;
    reply.session_id = 0;
    reply.open_sessions = OpenSessions();
    reply.total_edges_delivered = TotalEdgesDelivered();
    return reply;  // the server layer fills frames_received / sheds
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::optional<Message> gate = EvictionGateLocked(request.session_id))
      return *gate;
  }

  std::string error;
  std::shared_ptr<Entry> entry = FindOrRecover(request.session_id, &error);
  if (entry == nullptr) return MakeError(request.session_id, error);
  std::lock_guard<std::mutex> session_lock(entry->mutex);
  engine::Session& session = *entry->session;

  Message reply;
  reply.session_id = request.session_id;
  switch (request.type) {
    case MessageType::kIngest: {
      const engine::IngestResult result =
          session.Ingest(request.sequence, request.edges, &error);
      if (result.status == engine::IngestStatus::kOutOfOrder)
        return MakeError(request.session_id,
                         "ingest sequence gap: session is at " +
                             std::to_string(result.last_sequence));
      if (result.status == engine::IngestStatus::kFailed)
        return MakeError(request.session_id, error);
      reply.type = MessageType::kIngestOk;
      reply.duplicate = result.status == engine::IngestStatus::kDuplicate;
      reply.last_sequence = result.last_sequence;
      reply.checkpoints_written = result.checkpoints_written;
      return reply;
    }
    case MessageType::kCheckpoint: {
      if (!session.WriteCheckpoint(&error))
        return MakeError(request.session_id, error);
      reply.type = MessageType::kCheckpointOk;
      reply.checkpoints_written = session.Stats().checkpoints_written;
      return reply;
    }
    case MessageType::kFinalize: {
      // The cursor fence. A finalize re-sent blindly after a server
      // crash may land on a session recovered from a checkpoint older
      // than everything the client saw acked; sealing it there would
      // silently drop the tail of the stream. Reject so the client
      // re-attaches and refills the gap first.
      const uint64_t cursor = session.Stats().last_sequence;
      if (request.sequence != 0 && request.sequence != cursor)
        return MakeError(request.session_id,
                         "finalize fence mismatch: session is at " +
                             std::to_string(cursor) + ", client expects " +
                             std::to_string(request.sequence));
      const engine::RunReport& report = session.Finalize();
      reply.type = MessageType::kFinalizeOk;
      reply.degraded = report.degraded;
      reply.edges_delivered = report.edges_delivered;
      reply.uncovered_elements = report.uncovered_elements;
      reply.peak_words = report.peak_words;
      reply.current_words = report.current_words;
      reply.transient_retries = report.transient_retries;
      reply.corrupt_records_skipped = report.corrupt_records_skipped;
      reply.faults_survived = report.faults_survived;
      reply.cover = ToU32(report.solution.cover);
      reply.certificate = ToU32(report.solution.certificate);
      return reply;
    }
    case MessageType::kStats: {
      reply.type = MessageType::kStatsOk;
      reply.session_stats = session.Stats();
      return reply;
    }
    default:
      return MakeError(request.session_id, "unexpected message type");
  }
}

size_t SessionManager::CheckpointAll(size_t* failures) {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(sessions_.size());
    for (auto& [id, entry] : sessions_) entries.push_back(entry);
  }
  size_t written = 0, failed = 0;
  for (auto& entry : entries) {
    std::lock_guard<std::mutex> session_lock(entry->mutex);
    std::string error;
    if (entry->session->WriteCheckpoint(&error)) {
      ++written;
    } else {
      ++failed;
    }
  }
  if (failures != nullptr) *failures = failed;
  return written;
}

size_t SessionManager::EvictIdle(Clock::duration ttl) {
  if (state_dir_.empty()) return 0;  // volatile sessions are never evicted
  const Clock::time_point now = clock_();
  // The whole sweep holds the registry lock (mutex_ before Entry::mutex,
  // the same order every request path uses), so no request can slip in
  // between a session's eviction checkpoint and its removal and advance
  // state that would then be dropped.
  std::lock_guard<std::mutex> lock(mutex_);
  size_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    // Pin the Entry past the erase below: the map may hold the last
    // reference, and session_lock must not outlive the mutex it guards.
    std::shared_ptr<Entry> entry = it->second;
    std::lock_guard<std::mutex> session_lock(entry->mutex);
    if (now - entry->last_touch < ttl) {
      ++it;
      continue;
    }
    std::string error;
    if (!entry->session->WriteCheckpoint(&error)) {
      ++it;  // never drop state that is not on disk
      continue;
    }
    evicted_.insert(it->first);
    it = sessions_.erase(it);
    ++evicted;
  }
  return evicted;
}

uint64_t SessionManager::OpenSessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

uint64_t SessionManager::TotalEdgesDelivered() const {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(sessions_.size());
    for (auto& [id, entry] : sessions_) entries.push_back(entry);
  }
  uint64_t total = 0;
  for (auto& entry : entries) {
    std::lock_guard<std::mutex> session_lock(entry->mutex);
    total += entry->session->Stats().edges_delivered;
  }
  return total;
}

}  // namespace server
}  // namespace setcover
