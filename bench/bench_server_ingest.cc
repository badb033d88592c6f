// Server ingest-path throughput: edges/second a whole client→server
// session sustains across the transport × batch-size × window matrix —
// {in-process local, unix socket, same-host shm ring} × {512, 4096}
// × K ∈ {1, 8, 64}. Strict unix K=1 is the pre-pipelining wire path;
// shm+window is the zero-copy fast path this matrix exists to prove
// out (the check.sh --bench-smoke gate holds the `transport-ingest/*`
// rows to the committed baseline, and the acceptance bar is
// shm+window ≥ 2× strict unix).
//
// Every iteration runs a full session — open, sequenced ingest,
// finalize, close — against a live SessionServer with 2 worker
// threads, and the first iteration's cover is checked against the
// engine::Execute oracle: a transport that corrupts or reorders
// batches fails loudly, it does not post a number.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "server/transport.h"
#include "stream/orderings.h"

namespace setcover {
namespace {

using server::ClientOptions;
using server::ConnectShm;
using server::ConnectUnix;
using server::kDefaultShmRingBytes;
using server::Listener;
using server::ListenUnix;
using server::LocalEndpoint;
using server::Message;
using server::OpenBody;
using server::RunSessionOptions;
using server::RunSessionToCompletion;
using server::ServerOptions;
using server::SessionClient;
using server::SessionServer;

enum Transport { kLocal = 0, kUnix = 1, kShm = 2 };

const char* TransportName(int transport) {
  switch (transport) {
    case kLocal:
      return "local";
    case kUnix:
      return "unix";
    case kShm:
      return "shm";
  }
  return "?";
}

// Small enough that a measured iteration is milliseconds, big enough
// that the wire path dominates setup: ~160k edges per session.
const SetCoverInstance& SharedInstance() {
  static const SetCoverInstance instance =
      bench::PlantedWorkload(1024, 65536, 8, /*seed=*/4242);
  return instance;
}

const EdgeStream& SharedStream() {
  static const EdgeStream stream = [] {
    Rng rng(17);
    return OrderedStream(SharedInstance(), StreamOrder::kRandom, rng);
  }();
  return stream;
}

constexpr char kAlgorithm[] = "kk";
constexpr uint64_t kSeed = 3;

const engine::RunReport& Oracle() {
  static const engine::RunReport report = [] {
    engine::RunConfig config;
    config.algorithm = kAlgorithm;
    config.options.seed = kSeed;
    config.source = engine::SourceSpec::InMemory(SharedStream());
    return engine::Execute(config);
  }();
  return report;
}

std::string SocketPath() {
  return "/tmp/setcover_bench_ingest_" + std::to_string(::getpid()) +
         ".sock";
}

void BM_TransportIngest(benchmark::State& state) {
  const int transport = int(state.range(0));
  const size_t batch_edges = size_t(state.range(1));
  const size_t window = size_t(state.range(2));
  const EdgeStream& stream = SharedStream();

  LocalEndpoint endpoint;
  std::unique_ptr<Listener> listener;
  std::string error;
  if (transport == kLocal) {
    listener = endpoint.Listen();
  } else {
    listener = ListenUnix(SocketPath(), &error);
    if (listener == nullptr) {
      state.SkipWithError(("listen: " + error).c_str());
      return;
    }
  }
  ServerOptions server_options;
  // One slot: a one-client bench has one connection, and a connection
  // holds at most one admitted request, so a second slot would idle.
  server_options.worker_threads = 1;
  server_options.max_queue = 256;
  SessionServer server(server_options, std::move(listener));
  server.Start();

  ClientOptions client_options;
  client_options.backoff.max_retries = 64;
  client_options.backoff.initial_delay_us = 100;
  client_options.backoff.max_delay_us = 10000;
  SessionClient client(
      [transport, &endpoint](std::string* dial_error) {
        switch (transport) {
          case kUnix:
            return ConnectUnix(SocketPath(), dial_error);
          case kShm:
            return ConnectShm(SocketPath(), kDefaultShmRingBytes,
                              dial_error);
          default:
            return endpoint.Connect(dial_error);
        }
      },
      client_options);

  OpenBody open;
  open.algorithm = kAlgorithm;
  open.seed = kSeed;
  open.meta = stream.meta;

  RunSessionOptions run;
  run.batch_edges = batch_edges;
  run.window = window;

  const engine::RunReport& oracle = Oracle();
  if (!oracle.completed) {
    state.SkipWithError(("oracle: " + oracle.error).c_str());
    return;
  }
  const std::vector<uint32_t> expected(oracle.solution.cover.begin(),
                                       oracle.solution.cover.end());

  uint64_t session_id = 1;
  bool checked = false;
  for (auto _ : state) {
    Message reply;
    if (!RunSessionToCompletion(&client, session_id, open, stream.edges,
                                run, &reply, &error)) {
      state.SkipWithError(("session: " + error).c_str());
      break;
    }
    if (!checked) {
      checked = true;
      if (reply.cover != expected) {
        state.SkipWithError("cover mismatch vs engine oracle");
        break;
      }
    }
    Message closed;
    if (!client.Close(session_id, &closed, &error)) {
      state.SkipWithError(("close: " + error).c_str());
      break;
    }
    ++session_id;
  }
  server.DrainAndStop();

  state.SetLabel(std::string("transport-ingest/") +
                 TransportName(transport) + "/b" +
                 std::to_string(batch_edges) + "/k" +
                 std::to_string(window));
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.edges.size()));
  state.counters["window"] = double(window);
  // The session pipeline spans client + 2 server workers; real host
  // parallelism decides how they overlap, so rows are only comparable
  // on the committed-core-count host (the gate skips otherwise).
  state.counters["threads"] = 2.0;
  state.counters["num_cpus"] = double(std::thread::hardware_concurrency());
}

BENCHMARK(BM_TransportIngest)
    ->Args({kLocal, 4096, 1})
    ->Args({kLocal, 4096, 8})
    ->Args({kUnix, 128, 1})
    ->Args({kShm, 128, 8})
    ->Args({kUnix, 512, 1})
    ->Args({kUnix, 512, 8})
    ->Args({kUnix, 4096, 1})
    ->Args({kUnix, 4096, 8})
    ->Args({kShm, 512, 8})
    ->Args({kShm, 4096, 1})
    ->Args({kShm, 4096, 8})
    ->Args({kShm, 4096, 64})
    ->UseRealTime()  // wall-clock of the pipeline, not client CPU
    ->MinTime(0.5);

}  // namespace
}  // namespace setcover

BENCHMARK_MAIN();
