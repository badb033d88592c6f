// setcover_server — the long-lived session daemon: binds a unix-domain
// socket and serves the session protocol (open / ingest / checkpoint /
// finalize / stats / close) over the engine until SIGTERM or SIGINT,
// which triggers a graceful drain (every open session checkpointed, so
// a restart on the same --state-dir resumes with zero replay).
//
// Usage:
//   setcover_server --socket=/tmp/setcover.sock --state-dir=/var/lib/sc
//                   [--workers=2] [--max-queue=64] [--retry-after-us=500]
//
// Each connection is served on its own thread. --workers bounds the
// requests executing at once, --max-queue the requests waiting for a
// free slot; a request beyond both is shed with a retry-after hint.

#include <csignal>
#include <cstdio>
#include <string>

#include <semaphore.h>

#include "server/server.h"
#include "util/flags.h"

namespace {

// Async-signal-safe shutdown latch: the handler posts, main waits.
sem_t g_shutdown;

void HandleSignal(int) { sem_post(&g_shutdown); }

}  // namespace

int main(int argc, char** argv) {
  using namespace setcover;
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  const std::string socket_path =
      flags.GetString("socket", "/tmp/setcover.sock");

  server::ServerOptions options;
  options.state_dir = flags.GetString("state-dir", "");
  options.worker_threads = size_t(flags.GetInt("workers", 2));
  options.max_queue = size_t(flags.GetInt("max-queue", 64));
  options.retry_after_us = uint64_t(flags.GetInt("retry-after-us", 500));

  for (const std::string& key : flags.UnusedKeys())
    std::fprintf(stderr, "warning: unknown flag --%s\n", key.c_str());

  std::string error;
  auto listener = server::ListenUnix(socket_path, &error);
  if (listener == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  sem_init(&g_shutdown, 0, 0);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  server::SessionServer server(options, std::move(listener));
  server.Start();
  std::fprintf(stderr, "setcover_server: listening on %s (state dir: %s)\n",
               socket_path.c_str(),
               options.state_dir.empty() ? "<volatile>"
                                         : options.state_dir.c_str());

  while (sem_wait(&g_shutdown) != 0) {
  }

  std::fprintf(stderr, "setcover_server: draining...\n");
  server.DrainAndStop();
  const server::ServerStats stats = server.Stats();
  std::fprintf(stderr,
               "setcover_server: drained. sessions=%llu frames=%llu "
               "sheds=%llu edges=%llu\n",
               (unsigned long long)stats.open_sessions,
               (unsigned long long)stats.frames_received,
               (unsigned long long)stats.sheds,
               (unsigned long long)stats.total_edges_delivered);
  return 0;
}
