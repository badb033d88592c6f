#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace setcover {
namespace server {

SessionServer::SessionServer(ServerOptions options,
                             std::unique_ptr<Listener> listener)
    : options_(std::move(options)),
      listener_(std::move(listener)),
      manager_(options_.state_dir),
      max_running_(std::max<size_t>(1, options_.worker_threads)),
      max_waiting_(std::max<size_t>(1, options_.max_queue)) {}

SessionServer::~SessionServer() { Abort(); }

void SessionServer::Start() {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (options_.session_ttl_us > 0 && !options_.state_dir.empty()) {
    // The TTL sweep: idle sessions get checkpointed and dropped so a
    // long-lived daemon's memory tracks its *active* set, not every id
    // ever opened. Interruptible sleep — DrainAndStop must not wait
    // out the sweep interval.
    eviction_thread_ = std::thread([this] {
      const auto ttl = std::chrono::microseconds(options_.session_ttl_us);
      const auto sweep =
          std::chrono::microseconds(options_.eviction_sweep_us);
      std::unique_lock<std::mutex> lock(eviction_mutex_);
      while (!eviction_cv_.wait_for(lock, sweep,
                                    [this] { return stopped_.load(); })) {
        manager_.EvictIdle(ttl);
      }
    });
  }
}

void SessionServer::AcceptLoop() {
  for (;;) {
    std::unique_ptr<Connection> accepted = listener_->Accept();
    if (accepted == nullptr) return;  // listener shut down
    std::shared_ptr<Connection> connection = std::move(accepted);
    std::lock_guard<std::mutex> lock(threads_mutex_);
    if (stopped_.load()) {
      connection->Close();
      continue;
    }
    // Join the loops that ended since the last accept, so a long-lived
    // daemon holds threads for its live connections only.
    for (std::thread::id id : finished_threads_) {
      auto it = std::find_if(
          connection_threads_.begin(), connection_threads_.end(),
          [id](const std::thread& thread) { return thread.get_id() == id; });
      it->join();
      connection_threads_.erase(it);
    }
    finished_threads_.clear();
    connections_.push_back(connection);
    connection_threads_.emplace_back(
        [this, connection] { ConnectionLoop(connection); });
  }
}

bool SessionServer::Admit(RetryReason* refused) {
  std::unique_lock<std::mutex> lock(admission_mutex_);
  if (draining_) {
    *refused = RetryReason::kDraining;
    return false;
  }
  if (running_ >= max_running_) {
    if (waiting_ >= max_waiting_) {
      *refused = RetryReason::kOverloaded;
      return false;
    }
    ++waiting_;
    admission_cv_.wait(lock, [this] { return running_ < max_running_; });
    --waiting_;
  }
  ++running_;
  return true;
}

void SessionServer::Release() {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  --running_;
  // Waiters want the slot; a drain wants to see the last one go.
  if (waiting_ > 0 || draining_) admission_cv_.notify_all();
}

void SessionServer::ConnectionLoop(std::shared_ptr<Connection> connection) {
  // The whole request runs here, on the connection's own thread, so
  // its replies leave in arrival order by construction. Frames a
  // pipelining client sends behind the current one wait in the
  // transport until this loop receives them.
  std::vector<uint8_t> payload;
  // Reply arena: on the ingest hot path a reply allocates nothing once
  // the buffer reaches working size.
  std::vector<uint8_t> encoded;
  auto reply = [&](const Message& message) {
    EncodeMessage(message, &encoded);
    connection->Send(encoded);
  };
  while (connection->Receive(&payload)) {
    frames_received_.fetch_add(1, std::memory_order_relaxed);

    std::string error;
    std::optional<Message> request = DecodeMessage(payload, &error);
    if (!request) {
      // Hostile or damaged bytes never reach the manager; the
      // connection stays usable for the client's (CRC-intact) retry.
      reply(MakeError(0, "bad frame: " + error));
      continue;
    }

    RetryReason refused = RetryReason::kOverloaded;
    if (!Admit(&refused)) {
      if (refused == RetryReason::kOverloaded)
        sheds_.fetch_add(1, std::memory_order_relaxed);
      reply(MakeRetryAfter(request->session_id, options_.retry_after_us,
                           refused));
      continue;
    }
    Message answer = manager_.Handle(*request);
    if (answer.type == MessageType::kStatsOk && answer.session_id == 0) {
      answer.frames_received =
          frames_received_.load(std::memory_order_relaxed);
      answer.sheds = sheds_.load(std::memory_order_relaxed);
    }
    // The slot is held through the send, so a drain that has seen every
    // slot free knows every admitted request has its reply on the wire.
    reply(answer);
    Release();
  }
  // The peer is gone (or the server closed it): let the connection go
  // now instead of at shutdown.
  std::lock_guard<std::mutex> lock(threads_mutex_);
  std::erase(connections_, connection);
  finished_threads_.push_back(std::this_thread::get_id());
}

void SessionServer::StopInternal(bool drain) {
  if (stopped_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    draining_ = true;
  }

  // Stop the intake: no new connections.
  listener_->Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  eviction_cv_.notify_all();
  if (eviction_thread_.joinable()) eviction_thread_.join();

  // Graceful drain answers every admitted request while the
  // connections are still open, so no reply is lost. Nothing is
  // admitted after draining_ was set, so this wait is final.
  if (drain) {
    std::unique_lock<std::mutex> lock(admission_mutex_);
    admission_cv_.wait(lock,
                       [this] { return running_ == 0 && waiting_ == 0; });
  }

  // Unblock and collect the connection threads. A request still being
  // served (Abort) finishes; its reply fails on the closed connection.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (auto& connection : connections_) connection->Close();
    threads.swap(connection_threads_);
    connections_.clear();
    finished_threads_.clear();
  }
  for (std::thread& thread : threads) thread.join();

  if (drain) {
    // The drain sweep: every open session's state and exactly-once
    // cursor hit disk, so a restarted server resumes with zero replay.
    manager_.CheckpointAll(nullptr);
  }
}

void SessionServer::DrainAndStop() { StopInternal(/*drain=*/true); }

void SessionServer::Abort() { StopInternal(/*drain=*/false); }

ServerStats SessionServer::Stats() const {
  ServerStats stats;
  stats.open_sessions = manager_.OpenSessions();
  stats.frames_received = frames_received_.load(std::memory_order_relaxed);
  stats.sheds = sheds_.load(std::memory_order_relaxed);
  stats.total_edges_delivered = manager_.TotalEdgesDelivered();
  return stats;
}

}  // namespace server
}  // namespace setcover
