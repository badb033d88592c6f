// SessionServer end-to-end over the in-process transport (and a
// unix-socket smoke): concurrent sessions multiplexed over the engine,
// idempotent retries, admission-control shedding with client backoff,
// graceful drain, and hostile-byte handling. The final covers are
// always compared against engine::Execute oracles — the server must be
// an observationally invisible layer over the engine.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "engine/engine.h"
#include "instance/generators.h"
#include "server/client.h"
#include "server/server.h"
#include "stream/orderings.h"
#include "util/rng.h"

namespace setcover {
namespace server {
namespace {

struct Fixture {
  SetCoverInstance instance;
  EdgeStream stream;
};

Fixture MakeFixture(uint64_t seed) {
  Rng rng(seed);
  UniformRandomParams p;
  p.num_elements = 60;
  p.num_sets = 80;
  Fixture fixture{GenerateUniformRandom(p, rng), {}};
  fixture.stream = OrderedStream(fixture.instance, StreamOrder::kRandom, rng);
  return fixture;
}

engine::RunReport Oracle(const std::string& algorithm, uint64_t seed,
                         const Fixture& fixture) {
  engine::RunConfig config;
  config.algorithm = algorithm;
  config.options.seed = seed;
  config.source = engine::SourceSpec::InMemory(fixture.stream);
  engine::RunReport report = engine::Execute(config);
  EXPECT_TRUE(report.completed) << report.error;
  return report;
}

std::vector<uint32_t> ToU32(const std::vector<SetId>& ids) {
  return std::vector<uint32_t>(ids.begin(), ids.end());
}

ClientOptions FastClientOptions(uint64_t jitter_seed) {
  ClientOptions options;
  options.backoff.max_retries = 24;
  options.backoff.initial_delay_us = 1;
  options.backoff.max_delay_us = 50;
  options.backoff.jitter = 0.5;
  options.backoff.jitter_seed = jitter_seed;
  options.sleeper = [](uint64_t) {};  // deterministic tests never sleep
  return options;
}

SessionClient::Dialer DialerFor(LocalEndpoint* endpoint) {
  return [endpoint](std::string* error) {
    return endpoint->Connect(error);
  };
}

OpenBody MakeOpen(const std::string& algorithm, uint64_t seed,
                  const Fixture& fixture) {
  OpenBody open;
  open.algorithm = algorithm;
  open.seed = seed;
  open.meta = fixture.stream.meta;
  return open;
}

TEST(SessionServer, SingleSessionMatchesEngineOracle) {
  Fixture fixture = MakeFixture(201);
  const std::string algorithm = RegisteredAlgorithmNames().front();
  engine::RunReport expected = Oracle(algorithm, 21, fixture);

  LocalEndpoint endpoint;
  SessionServer server({}, endpoint.Listen());
  server.Start();

  SessionClient client(DialerFor(&endpoint), FastClientOptions(1));
  Message reply;
  std::string error;
  ASSERT_TRUE(RunSessionToCompletion(&client, 7,
                                     MakeOpen(algorithm, 21, fixture),
                                     fixture.stream.edges, 64, &reply,
                                     &error))
      << error;
  EXPECT_EQ(reply.cover, ToU32(expected.solution.cover));
  EXPECT_EQ(reply.certificate, ToU32(expected.solution.certificate));
  EXPECT_EQ(reply.edges_delivered, expected.edges_delivered);
  EXPECT_EQ(reply.uncovered_elements, expected.uncovered_elements);
  EXPECT_EQ(reply.current_words, expected.current_words);
  server.DrainAndStop();
}

TEST(SessionServer, ConcurrentSessionsAllMatchTheirOracles) {
  Fixture fixture = MakeFixture(202);
  const std::vector<std::string> algorithms = RegisteredAlgorithmNames();
  constexpr int kSessions = 24;

  LocalEndpoint endpoint;
  ServerOptions options;
  options.worker_threads = 3;
  options.max_queue = 256;
  SessionServer server(options, endpoint.Listen());
  server.Start();

  std::vector<Message> replies(kSessions);
  std::vector<std::string> errors(kSessions);
  std::vector<char> ok(kSessions, 0);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kSessions; ++i) {
      clients.emplace_back([&, i] {
        const std::string& algorithm = algorithms[i % algorithms.size()];
        SessionClient client(DialerFor(&endpoint),
                             FastClientOptions(uint64_t(i) + 1));
        ok[i] = RunSessionToCompletion(
            &client, uint64_t(i) + 1,
            MakeOpen(algorithm, 100 + uint64_t(i), fixture),
            fixture.stream.edges, 16 + i, &replies[i], &errors[i]);
      });
    }
    for (auto& thread : clients) thread.join();
  }

  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(ok[i]) << "session " << i << ": " << errors[i];
    engine::RunReport expected = Oracle(algorithms[i % algorithms.size()],
                                        100 + uint64_t(i), fixture);
    EXPECT_EQ(replies[i].cover, ToU32(expected.solution.cover))
        << "session " << i;
    EXPECT_EQ(replies[i].certificate, ToU32(expected.solution.certificate))
        << "session " << i;
  }
  EXPECT_EQ(server.Stats().open_sessions, uint64_t(kSessions));
  server.DrainAndStop();
}

TEST(SessionServer, RetriedIngestIsAppliedExactlyOnce) {
  Fixture fixture = MakeFixture(203);
  const std::string algorithm = RegisteredAlgorithmNames().front();

  LocalEndpoint endpoint;
  SessionServer server({}, endpoint.Listen());
  server.Start();

  SessionClient client(DialerFor(&endpoint), FastClientOptions(5));
  Message reply;
  std::string error;
  ASSERT_TRUE(client.Open(1, MakeOpen(algorithm, 21, fixture), &reply,
                          &error))
      << error;
  std::span<const Edge> edges(fixture.stream.edges);
  ASSERT_TRUE(client.Ingest(1, 1, edges.subspan(0, 32), &reply, &error))
      << error;
  EXPECT_FALSE(reply.duplicate);

  // A paranoid client re-sends the same sequence three times (as it
  // would after lost replies): acknowledged, never re-applied.
  for (int retry = 0; retry < 3; ++retry) {
    ASSERT_TRUE(client.Ingest(1, 1, edges.subspan(0, 32), &reply, &error))
        << error;
    EXPECT_TRUE(reply.duplicate);
    EXPECT_EQ(reply.last_sequence, 1u);
  }
  ASSERT_TRUE(client.Stats(1, &reply, &error)) << error;
  EXPECT_EQ(reply.session_stats.edges_delivered, 32u);
  EXPECT_EQ(reply.session_stats.duplicate_ingests, 3u);

  // A sequence gap is rejected and does not advance anything.
  EXPECT_FALSE(client.Ingest(1, 5, edges.subspan(32, 8), &reply, &error));
  EXPECT_NE(error.find("sequence gap"), std::string::npos) << error;
  server.DrainAndStop();
}

// An ingest naming an id outside the session's m × n gets kError that
// names the edge, and the server keeps serving: the refused session
// still takes the good stream from the same sequence, and a concurrent
// session still matches its oracle.
TEST(SessionServer, OutOfRangeIngestIsAnErrorAndServingContinues) {
  Fixture fixture = MakeFixture(208);
  const std::string algorithm = RegisteredAlgorithmNames().front();
  engine::RunReport expected = Oracle(algorithm, 21, fixture);

  LocalEndpoint endpoint;
  ServerOptions options;
  options.worker_threads = 2;
  SessionServer server(options, endpoint.Listen());
  server.Start();

  Message concurrent_reply;
  std::string concurrent_error;
  bool concurrent_ok = false;
  std::thread concurrent([&] {
    SessionClient client(DialerFor(&endpoint), FastClientOptions(21));
    concurrent_ok = RunSessionToCompletion(
        &client, 2, MakeOpen(algorithm, 21, fixture), fixture.stream.edges,
        16, &concurrent_reply, &concurrent_error);
  });

  SessionClient client(DialerFor(&endpoint), FastClientOptions(22));
  Message reply;
  std::string error;
  ASSERT_TRUE(client.Open(1, MakeOpen(algorithm, 21, fixture), &reply,
                          &error))
      << error;
  std::vector<Edge> hostile(fixture.stream.edges.begin(),
                            fixture.stream.edges.begin() + 32);
  hostile[5] = Edge{5000, 5000};
  EXPECT_FALSE(client.Ingest(1, 1, hostile, &reply, &error));
  EXPECT_NE(error.find("ingest edge 5 (set 5000, element 5000)"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find(std::to_string(fixture.stream.meta.num_sets) + " x " +
                       std::to_string(fixture.stream.meta.num_elements)),
            std::string::npos)
      << error;
  ASSERT_TRUE(client.Stats(1, &reply, &error)) << error;
  EXPECT_EQ(reply.session_stats.edges_delivered, 0u);
  EXPECT_EQ(reply.session_stats.last_sequence, 0u);

  ASSERT_TRUE(RunSessionToCompletion(&client, 1,
                                     MakeOpen(algorithm, 21, fixture),
                                     fixture.stream.edges, 64, &reply,
                                     &error))
      << error;
  EXPECT_EQ(reply.cover, ToU32(expected.solution.cover));
  EXPECT_EQ(reply.edges_delivered, expected.edges_delivered);

  concurrent.join();
  ASSERT_TRUE(concurrent_ok) << concurrent_error;
  EXPECT_EQ(concurrent_reply.cover, ToU32(expected.solution.cover));
  EXPECT_EQ(concurrent_reply.certificate, ToU32(expected.solution.certificate));
  EXPECT_EQ(concurrent_reply.edges_delivered, expected.edges_delivered);
  server.DrainAndStop();
}

// The finalize fence: a client that believes more batches were applied
// than the session holds (the post-crash rollback shape) must be
// rejected, not handed a cover over a truncated stream. At the true
// cursor — or unfenced — finalize succeeds, and a fenced re-send of a
// finalized session still matches its (unchanged) cursor.
TEST(SessionServer, FinalizeFenceRejectsARolledBackCursor) {
  Fixture fixture = MakeFixture(207);
  const std::string algorithm = RegisteredAlgorithmNames().front();

  LocalEndpoint endpoint;
  SessionServer server({}, endpoint.Listen());
  server.Start();

  SessionClient client(DialerFor(&endpoint), FastClientOptions(9));
  Message reply;
  std::string error;
  ASSERT_TRUE(client.Open(1, MakeOpen(algorithm, 21, fixture), &reply,
                          &error))
      << error;
  std::span<const Edge> edges(fixture.stream.edges);
  ASSERT_TRUE(client.Ingest(1, 1, edges.subspan(0, 32), &reply, &error));
  ASSERT_TRUE(client.Ingest(1, 2, edges.subspan(32, 32), &reply, &error));

  EXPECT_FALSE(client.Finalize(1, 7, &reply, &error));
  EXPECT_NE(error.find("fence mismatch"), std::string::npos) << error;

  ASSERT_TRUE(client.Finalize(1, 2, &reply, &error)) << error;
  EXPECT_EQ(reply.edges_delivered, 64u);
  // Idempotent re-send, still fenced at the sealed cursor.
  ASSERT_TRUE(client.Finalize(1, 2, &reply, &error)) << error;
  EXPECT_EQ(reply.edges_delivered, 64u);
  server.DrainAndStop();
}

TEST(SessionServer, OverloadShedsWithRetryAfterAndClientsStillFinish) {
  Fixture fixture = MakeFixture(204);
  const std::string algorithm = RegisteredAlgorithmNames().front();

  LocalEndpoint endpoint;
  ServerOptions options;
  options.worker_threads = 1;  // tiny server:
  options.max_queue = 1;       // almost everything beyond one op sheds
  options.retry_after_us = 10;
  SessionServer server(options, endpoint.Listen());
  server.Start();

  constexpr int kClients = 8;
  std::vector<char> ok(kClients, 0);
  std::vector<std::string> errors(kClients);
  std::vector<Message> replies(kClients);
  std::vector<uint64_t> sheds_seen(kClients, 0);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        ClientOptions client_options = FastClientOptions(uint64_t(i) + 1);
        client_options.backoff.max_retries = 64;  // shed storms need depth
        // Sleep the backoff delay, as default clients do: a no-op sleeper
        // burns all 64 retries whenever the one server worker is
        // descheduled.
        client_options.sleeper = nullptr;
        SessionClient client(DialerFor(&endpoint), client_options);
        ok[i] = RunSessionToCompletion(
            &client, uint64_t(i) + 1, MakeOpen(algorithm, 21, fixture),
            fixture.stream.edges, 8, &replies[i], &errors[i]);
        sheds_seen[i] = client.RetriesAfterShed();
      });
    }
    for (auto& thread : clients) thread.join();
  }

  engine::RunReport expected = Oracle(algorithm, 21, fixture);
  uint64_t total_sheds_seen = 0;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(ok[i]) << "client " << i << ": " << errors[i];
    EXPECT_EQ(replies[i].cover, ToU32(expected.solution.cover))
        << "client " << i;
    total_sheds_seen += sheds_seen[i];
  }
  // The server must actually have shed under this load, and the client
  // counters must agree that the sheds were seen and retried through.
  EXPECT_GT(server.Stats().sheds, 0u);
  EXPECT_EQ(total_sheds_seen, server.Stats().sheds);
  server.DrainAndStop();
}

// A connection holds at most one admitted request: the frames a
// windowed client pipelines behind it wait in the transport, not in
// the admission line. So on the smallest server (one slot, one waiter)
// a lone client with eight frames in flight is never shed.
TEST(SessionServer, PipelinedClientIsNotShedByItsOwnWindow) {
  Fixture fixture = MakeFixture(209);
  const std::string algorithm = RegisteredAlgorithmNames().front();
  engine::RunReport expected = Oracle(algorithm, 21, fixture);

  LocalEndpoint endpoint;
  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue = 1;
  SessionServer server(options, endpoint.Listen());
  server.Start();

  SessionClient client(DialerFor(&endpoint), FastClientOptions(13));
  RunSessionOptions run;
  run.batch_edges = 8;
  run.window = 8;
  Message reply;
  std::string error;
  ASSERT_GT(fixture.stream.edges.size(), run.batch_edges * run.window);
  ASSERT_TRUE(RunSessionToCompletion(&client, 1,
                                     MakeOpen(algorithm, 21, fixture),
                                     fixture.stream.edges, run, &reply,
                                     &error))
      << error;
  EXPECT_EQ(reply.cover, ToU32(expected.solution.cover));
  EXPECT_EQ(reply.certificate, ToU32(expected.solution.certificate));
  EXPECT_EQ(server.Stats().sheds, 0u);
  EXPECT_EQ(client.RetriesAfterShed(), 0u);
  server.DrainAndStop();
}

TEST(SessionServer, GracefulDrainAnswersInFlightAndShedsNewWork) {
  Fixture fixture = MakeFixture(205);
  const std::string algorithm = RegisteredAlgorithmNames().front();

  LocalEndpoint endpoint;
  SessionServer server({}, endpoint.Listen());
  server.Start();

  SessionClient client(DialerFor(&endpoint), FastClientOptions(9));
  Message reply;
  std::string error;
  ASSERT_TRUE(client.Open(1, MakeOpen(algorithm, 21, fixture), &reply,
                          &error))
      << error;
  std::span<const Edge> edges(fixture.stream.edges);
  ASSERT_TRUE(client.Ingest(1, 1, edges.subspan(0, 16), &reply, &error));

  server.DrainAndStop();

  // Post-drain requests on a surviving connection are refused with
  // kRetryAfter(kDraining) until the connection dies; a client with a
  // finite budget gives up cleanly.
  ClientOptions impatient = FastClientOptions(10);
  impatient.backoff.max_retries = 2;
  SessionClient late(DialerFor(&endpoint), impatient);
  EXPECT_FALSE(late.Ingest(1, 2, edges.subspan(16, 8), &reply, &error));
}

TEST(SessionServer, MalformedFramesGetErrorsAndConnectionSurvives) {
  Fixture fixture = MakeFixture(206);
  const std::string algorithm = RegisteredAlgorithmNames().front();

  LocalEndpoint endpoint;
  SessionServer server({}, endpoint.Listen());
  server.Start();

  std::string error;
  auto connection = endpoint.Connect(&error);
  ASSERT_NE(connection, nullptr) << error;

  // Garbage bytes: the server answers kError instead of dying.
  std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01,
                                  0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                                  0x08, 0x09, 0x0a, 0x0b};
  ASSERT_TRUE(connection->Send(garbage));
  std::vector<uint8_t> raw_reply;
  ASSERT_TRUE(connection->Receive(&raw_reply));
  std::optional<Message> decoded = DecodeMessage(raw_reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->type, MessageType::kError);

  // The same connection still serves a well-formed open.
  Message open;
  open.type = MessageType::kOpen;
  open.session_id = 3;
  open.open = MakeOpen(algorithm, 21, fixture);
  ASSERT_TRUE(connection->Send(EncodeMessage(open)));
  ASSERT_TRUE(connection->Receive(&raw_reply));
  decoded = DecodeMessage(raw_reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->type, MessageType::kOpenOk);
  server.DrainAndStop();
}

TEST(SessionServer, UnknownSessionAndUnknownAlgorithmAreCleanErrors) {
  Fixture fixture = MakeFixture(207);
  LocalEndpoint endpoint;
  SessionServer server({}, endpoint.Listen());
  server.Start();

  SessionClient client(DialerFor(&endpoint), FastClientOptions(11));
  Message reply;
  std::string error;
  std::span<const Edge> edges(fixture.stream.edges);
  EXPECT_FALSE(client.Ingest(404, 1, edges.subspan(0, 4), &reply, &error));
  EXPECT_NE(error.find("unknown session"), std::string::npos) << error;

  EXPECT_FALSE(client.Open(5, MakeOpen("no-such-algorithm", 1, fixture),
                           &reply, &error));
  EXPECT_FALSE(error.empty());

  // Close is idempotent even for ids that never existed.
  EXPECT_TRUE(client.Close(404, &reply, &error)) << error;
  server.DrainAndStop();
}

TEST(SessionServer, UnixSocketSmoke) {
  Fixture fixture = MakeFixture(208);
  const std::string algorithm = RegisteredAlgorithmNames().front();
  engine::RunReport expected = Oracle(algorithm, 21, fixture);
  const std::string socket_path = testing::TempDir() + "setcover_srv.sock";

  std::string error;
  auto listener = ListenUnix(socket_path, &error);
  ASSERT_NE(listener, nullptr) << error;
  SessionServer server({}, std::move(listener));
  server.Start();

  SessionClient client(
      [&socket_path](std::string* dial_error) {
        return ConnectUnix(socket_path, dial_error);
      },
      FastClientOptions(12));
  Message reply;
  ASSERT_TRUE(RunSessionToCompletion(&client, 1,
                                     MakeOpen(algorithm, 21, fixture),
                                     fixture.stream.edges, 64, &reply,
                                     &error))
      << error;
  EXPECT_EQ(reply.cover, ToU32(expected.solution.cover));
  EXPECT_EQ(reply.certificate, ToU32(expected.solution.certificate));
  server.DrainAndStop();
}

size_t OpenFileDescriptors() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// A daemon outlives its clients: the server releases a connection whose
// peer hung up (its socket, and with it any shm rings) right away, not
// at shutdown, so what it holds tracks its live connections.
TEST(SessionServer, HungUpConnectionsAreReleased) {
  const std::string socket_path = testing::TempDir() + "setcover_hangup.sock";
  std::string error;
  auto listener = ListenUnix(socket_path, &error);
  ASSERT_NE(listener, nullptr) << error;
  SessionServer server({}, std::move(listener));
  server.Start();

  auto one_client = [&](uint64_t jitter_seed) {
    SessionClient client(
        [&socket_path](std::string* dial_error) {
          return ConnectUnix(socket_path, dial_error);
        },
        FastClientOptions(jitter_seed));
    Message reply;
    std::string stats_error;
    EXPECT_TRUE(client.Stats(0, &reply, &stats_error)) << stats_error;
    // The client hangs up as it goes out of scope.
  };
  one_client(1);
  const size_t baseline = OpenFileDescriptors();
  constexpr int kClients = 32;
  for (int i = 0; i < kClients; ++i) one_client(uint64_t(i) + 2);

  // Each loop notices its hang-up on its own thread; allow for that.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (OpenFileDescriptors() > baseline + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(OpenFileDescriptors(), baseline + 1)
      << kClients << " hung-up connections, baseline " << baseline;
  server.DrainAndStop();
}


// --- Idle-session TTL eviction (SessionManager::EvictIdle) -----------

/// A SessionManager on a fake clock: tests advance time explicitly, so
/// TTL math is deterministic and instant.
struct EvictionHarness {
  std::string dir;
  std::shared_ptr<std::atomic<int64_t>> now_ns;
  std::unique_ptr<SessionManager> manager;

  explicit EvictionHarness(const std::string& tag, bool persistent = true) {
    dir = testing::TempDir() + "evict_" + tag;
    std::filesystem::remove_all(dir);
    if (persistent) std::filesystem::create_directories(dir);
    now_ns = std::make_shared<std::atomic<int64_t>>(0);
    auto now = now_ns;
    manager = std::make_unique<SessionManager>(
        persistent ? dir : std::string(), [now] {
          return SessionManager::Clock::time_point(
              std::chrono::duration_cast<SessionManager::Clock::duration>(
                  std::chrono::nanoseconds(now->load())));
        });
  }

  void AdvanceSeconds(int64_t seconds) {
    now_ns->fetch_add(seconds * 1'000'000'000);
  }
};

Message OpenMessage(uint64_t id, const OpenBody& open) {
  Message message;
  message.type = MessageType::kOpen;
  message.session_id = id;
  message.open = open;
  return message;
}

Message IngestMessage(uint64_t id, uint64_t sequence,
                      std::vector<Edge> edges) {
  Message message;
  message.type = MessageType::kIngest;
  message.session_id = id;
  message.sequence = sequence;
  message.edges = std::move(edges);
  return message;
}

// An idle persistent session is checkpointed and evicted; the first
// re-touch gets kRetryAfter(kEvicted); the retry recovers the session
// from its sidecars and the run finishes bit-identical to the oracle.
TEST(SessionEviction, IdleSessionEvictsThenRecoversBitIdentical) {
  Fixture fixture = MakeFixture(231);
  const std::string algorithm = RegisteredAlgorithmNames().front();
  engine::RunReport expected = Oracle(algorithm, 21, fixture);
  EvictionHarness harness("recover");

  OpenBody open = MakeOpen(algorithm, 21, fixture);
  ASSERT_EQ(harness.manager->Handle(OpenMessage(9, open)).type,
            MessageType::kOpenOk);

  // Half the stream, then go idle past the TTL.
  const size_t half = fixture.stream.edges.size() / 2;
  uint64_t sequence = 0;
  ASSERT_EQ(harness.manager
                ->Handle(IngestMessage(
                    9, ++sequence,
                    {fixture.stream.edges.begin(),
                     fixture.stream.edges.begin() + half}))
                .type,
            MessageType::kIngestOk);
  harness.AdvanceSeconds(120);
  EXPECT_EQ(harness.manager->EvictIdle(std::chrono::seconds(60)), 1u);
  EXPECT_EQ(harness.manager->OpenSessions(), 0u);

  // First re-touch: one-shot retry hint.
  Message tail = IngestMessage(
      9, sequence + 1,
      {fixture.stream.edges.begin() + half, fixture.stream.edges.end()});
  Message shed = harness.manager->Handle(tail);
  ASSERT_EQ(shed.type, MessageType::kRetryAfter);
  EXPECT_EQ(shed.retry_reason, RetryReason::kEvicted);

  // The retry recovers from the eviction checkpoint and continues.
  Message applied = harness.manager->Handle(tail);
  ASSERT_EQ(applied.type, MessageType::kIngestOk) << applied.error;
  EXPECT_FALSE(applied.duplicate);

  Message finalize;
  finalize.type = MessageType::kFinalize;
  finalize.session_id = 9;
  Message reply = harness.manager->Handle(finalize);
  ASSERT_EQ(reply.type, MessageType::kFinalizeOk) << reply.error;
  EXPECT_EQ(reply.cover, ToU32(expected.solution.cover));
  EXPECT_EQ(reply.certificate, ToU32(expected.solution.certificate));
}

// The sweep only takes sessions past the TTL: an actively touched
// session stays resident while its idle sibling is evicted.
TEST(SessionEviction, ActiveSessionsSurviveTheSweep) {
  Fixture fixture = MakeFixture(233);
  const std::string algorithm = RegisteredAlgorithmNames().front();
  EvictionHarness harness("active");

  OpenBody open = MakeOpen(algorithm, 21, fixture);
  ASSERT_EQ(harness.manager->Handle(OpenMessage(1, open)).type,
            MessageType::kOpenOk);
  ASSERT_EQ(harness.manager->Handle(OpenMessage(2, open)).type,
            MessageType::kOpenOk);

  harness.AdvanceSeconds(45);
  // Touch session 1 only (stats counts as a touch).
  Message stats;
  stats.type = MessageType::kStats;
  stats.session_id = 1;
  ASSERT_EQ(harness.manager->Handle(stats).type, MessageType::kStatsOk);

  harness.AdvanceSeconds(30);  // session 2 idle 75s, session 1 idle 30s
  EXPECT_EQ(harness.manager->EvictIdle(std::chrono::seconds(60)), 1u);
  EXPECT_EQ(harness.manager->OpenSessions(), 1u);
  EXPECT_EQ(harness.manager->Handle(stats).type, MessageType::kStatsOk);
}

// Volatile sessions (no state_dir) are never evicted — dropping them
// would lose state the client was promised.
TEST(SessionEviction, VolatileSessionsAreNeverEvicted) {
  Fixture fixture = MakeFixture(235);
  const std::string algorithm = RegisteredAlgorithmNames().front();
  EvictionHarness harness("volatile", /*persistent=*/false);

  ASSERT_EQ(harness.manager
                ->Handle(OpenMessage(3, MakeOpen(algorithm, 21, fixture)))
                .type,
            MessageType::kOpenOk);
  harness.AdvanceSeconds(3600);
  EXPECT_EQ(harness.manager->EvictIdle(std::chrono::seconds(1)), 0u);
  EXPECT_EQ(harness.manager->OpenSessions(), 1u);
}

// A workers = 3 session evicts and recovers like a single-pipeline one:
// the retry rebuilds all three pipelines from the sidecar at one cursor,
// the run ends at the W = 3 oracle, and kClose removes every file the
// session left in the state dir.
TEST(SessionEviction, ShardedSessionEvictsRecoversAndCloseRemovesItsFiles) {
  Fixture fixture = MakeFixture(239);
  engine::RunConfig oracle_config;
  oracle_config.algorithm = "kk";
  oracle_config.options.seed = 21;
  oracle_config.source = engine::SourceSpec::InMemory(fixture.stream);
  oracle_config.backend.workers = 3;
  engine::RunReport expected = engine::Execute(oracle_config);
  ASSERT_TRUE(expected.completed) << expected.error;
  EvictionHarness harness("sharded");

  OpenBody open = MakeOpen("kk", 21, fixture);
  open.workers = 3;
  ASSERT_EQ(harness.manager->Handle(OpenMessage(11, open)).type,
            MessageType::kOpenOk);
  const size_t half = fixture.stream.edges.size() / 2;
  ASSERT_EQ(harness.manager
                ->Handle(IngestMessage(11, 1,
                                       {fixture.stream.edges.begin(),
                                        fixture.stream.edges.begin() + half}))
                .type,
            MessageType::kIngestOk);
  harness.AdvanceSeconds(120);
  EXPECT_EQ(harness.manager->EvictIdle(std::chrono::seconds(60)), 1u);

  Message tail = IngestMessage(
      11, 2, {fixture.stream.edges.begin() + half, fixture.stream.edges.end()});
  Message shed = harness.manager->Handle(tail);
  ASSERT_EQ(shed.type, MessageType::kRetryAfter);
  EXPECT_EQ(shed.retry_reason, RetryReason::kEvicted);
  Message applied = harness.manager->Handle(tail);
  ASSERT_EQ(applied.type, MessageType::kIngestOk) << applied.error;
  EXPECT_FALSE(applied.duplicate);

  Message finalize;
  finalize.type = MessageType::kFinalize;
  finalize.session_id = 11;
  Message reply = harness.manager->Handle(finalize);
  ASSERT_EQ(reply.type, MessageType::kFinalizeOk) << reply.error;
  EXPECT_EQ(reply.cover, ToU32(expected.solution.cover));
  EXPECT_EQ(reply.certificate, ToU32(expected.solution.certificate));

  Message close;
  close.type = MessageType::kClose;
  close.session_id = 11;
  ASSERT_EQ(harness.manager->Handle(close).type, MessageType::kCloseOk);
  for (const auto& file : std::filesystem::directory_iterator(harness.dir)) {
    EXPECT_NE(file.path().filename().string().rfind("11.", 0), 0u)
        << "left behind: " << file.path();
  }
}

// --- Sharded sessions over the wire (OpenBody::workers) --------------

// One daemon, both substrates: a session opened with workers = 3 runs
// the W-way sharded pipeline behind the same protocol, and the final
// cover equals the sharded-backend oracle at the same (seed, W).
TEST(SessionServer, ShardedSessionMatchesShardedBackendOracle) {
  Fixture fixture = MakeFixture(237);
  engine::RunConfig oracle_config;
  oracle_config.algorithm = "kk";
  oracle_config.options.seed = 21;
  oracle_config.source = engine::SourceSpec::InMemory(fixture.stream);
  oracle_config.backend.name = "sharded";
  oracle_config.backend.workers = 3;
  engine::RunReport expected = engine::Execute(oracle_config);
  ASSERT_TRUE(expected.completed) << expected.error;

  LocalEndpoint endpoint;
  SessionServer server({}, endpoint.Listen());
  server.Start();

  SessionClient client(DialerFor(&endpoint), FastClientOptions(31));
  OpenBody open = MakeOpen("kk", 21, fixture);
  open.workers = 3;
  Message reply;
  std::string error;
  ASSERT_TRUE(RunSessionToCompletion(&client, 5, open,
                                     fixture.stream.edges, 64, &reply,
                                     &error))
      << error;
  EXPECT_EQ(reply.cover, ToU32(expected.solution.cover));
  EXPECT_EQ(reply.certificate, ToU32(expected.solution.certificate));
  server.DrainAndStop();
}

}  // namespace
}  // namespace server
}  // namespace setcover
