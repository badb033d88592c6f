// engine::Session — the push-style drive loop under the session
// server. The acceptance bar mirrors engine_equivalence_test: for every
// registered algorithm, a Session fed the stream in client-sized
// batches must land bit-identical to engine::Execute over the whole
// stream — covers, certificates, meter readings — at any batch sizing,
// with and without fault injection, and across kill/resume with client
// replay from the durable exactly-once cursor.

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "engine/engine.h"
#include "engine/session.h"
#include "instance/generators.h"
#include "stream/orderings.h"
#include "util/rng.h"

namespace setcover {
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

std::string TempPath(const std::string& tag) {
  std::string name = "session_" + tag;
  for (char& c : name)
    if (c == '-') c = '_';
  return testing::TempDir() + name;
}

engine::SessionConfig BaseConfig(const std::string& algorithm,
                                 const Fixture& fixture) {
  engine::SessionConfig config;
  config.algorithm = algorithm;
  config.options.seed = 21;
  config.meta = fixture.stream.meta;
  return config;
}

engine::RunReport Oracle(const std::string& algorithm,
                         const Fixture& fixture,
                         std::optional<FaultSchedule> faults) {
  engine::RunConfig config;
  config.algorithm = algorithm;
  config.options.seed = 21;
  config.source = engine::SourceSpec::InMemory(fixture.stream);
  config.faults = faults;
  engine::RunReport report = engine::Execute(config);
  EXPECT_TRUE(report.completed) << algorithm << ": " << report.error;
  return report;
}

/// Feeds the whole fixture stream into `session` as sequenced batches
/// of `batch_edges`, starting from the session's durable cursor.
void FeedFrom(engine::Session* session, const Fixture& fixture,
              size_t batch_edges) {
  const std::span<const Edge> edges(fixture.stream.edges);
  const uint64_t total = (edges.size() + batch_edges - 1) / batch_edges;
  for (uint64_t seq = session->LastSequence() + 1; seq <= total; ++seq) {
    const size_t begin = size_t(seq - 1) * batch_edges;
    const size_t count = std::min(batch_edges, edges.size() - begin);
    std::string error;
    const engine::IngestResult result =
        session->Ingest(seq, edges.subspan(begin, count), &error);
    ASSERT_EQ(result.status, engine::IngestStatus::kApplied)
        << "seq=" << seq << ": " << error;
  }
}

class SessionSweep : public testing::TestWithParam<std::string> {};

// The equivalence contract, clean stream: any ingest batch sizing ==
// one engine::Execute over the concatenated edges.
TEST_P(SessionSweep, MatchesExecuteAtAnyBatchSizing) {
  Fixture fixture = MakeFixture(101);
  engine::RunReport expected = Oracle(GetParam(), fixture, std::nullopt);

  for (size_t batch_edges :
       {size_t{1}, size_t{7}, size_t{64}, fixture.stream.size()}) {
    const std::string context =
        GetParam() + " batch=" + std::to_string(batch_edges);
    std::string error;
    auto session = engine::Session::Open(BaseConfig(GetParam(), fixture),
                                         /*resume=*/false, &error);
    ASSERT_NE(session, nullptr) << context << ": " << error;
    FeedFrom(session.get(), fixture, batch_edges);

    const engine::RunReport& report = session->Finalize();
    EXPECT_EQ(report.solution.cover, expected.solution.cover) << context;
    EXPECT_EQ(report.solution.certificate, expected.solution.certificate)
        << context;
    EXPECT_EQ(report.edges_delivered, expected.edges_delivered) << context;
    EXPECT_EQ(report.current_words, expected.current_words) << context;
    EXPECT_EQ(report.uncovered_elements, expected.uncovered_elements)
        << context;
  }
}

// Same contract under deterministic stream damage: per-batch fault
// injectors anchored at absolute positions must replicate the
// whole-stream fault sequence exactly.
TEST_P(SessionSweep, MatchesExecuteUnderFaults) {
  Fixture fixture = MakeFixture(131);
  const FaultSchedule faults = FaultSchedule::AllKinds(77);
  engine::RunReport expected = Oracle(GetParam(), fixture, faults);

  for (size_t batch_edges : {size_t{5}, size_t{64}}) {
    const std::string context =
        GetParam() + " batch=" + std::to_string(batch_edges);
    engine::SessionConfig config = BaseConfig(GetParam(), fixture);
    config.faults = faults;
    std::string error;
    auto session =
        engine::Session::Open(config, /*resume=*/false, &error);
    ASSERT_NE(session, nullptr) << context << ": " << error;
    FeedFrom(session.get(), fixture, batch_edges);

    const engine::RunReport& report = session->Finalize();
    EXPECT_EQ(report.solution.cover, expected.solution.cover) << context;
    EXPECT_EQ(report.solution.certificate, expected.solution.certificate)
        << context;
    EXPECT_EQ(report.edges_delivered, expected.edges_delivered) << context;
    EXPECT_EQ(report.corrupt_records_skipped,
              expected.corrupt_records_skipped)
        << context;
    EXPECT_EQ(report.current_words, expected.current_words) << context;
    EXPECT_FALSE(report.degraded) << context;
  }
}

// Kill/resume: drop the Session object mid-stream (the server died),
// reopen from its checkpoint, replay from the durable cursor — the
// exactly-once dedup swallows the replayed prefix and the final state
// is bit-identical to the uninterrupted oracle.
TEST_P(SessionSweep, KillResumeAndClientReplayIsBitIdentical) {
  Fixture fixture = MakeFixture(101);
  engine::RunReport expected = Oracle(GetParam(), fixture, std::nullopt);
  const std::string path = TempPath("resume_" + GetParam() + ".sckp");
  constexpr size_t kBatch = 16;

  for (uint64_t kill_after_batches : {uint64_t{1}, uint64_t{5}}) {
    const std::string context =
        GetParam() + " kill_after=" + std::to_string(kill_after_batches);
    engine::SessionConfig config = BaseConfig(GetParam(), fixture);
    config.checkpoint_path = path;
    config.checkpoint_every = kBatch;  // every batch checkpoints

    std::string error;
    auto first = engine::Session::Open(config, /*resume=*/false, &error);
    ASSERT_NE(first, nullptr) << context << ": " << error;
    const std::span<const Edge> edges(fixture.stream.edges);
    for (uint64_t seq = 1; seq <= kill_after_batches; ++seq) {
      const size_t begin = size_t(seq - 1) * kBatch;
      const engine::IngestResult result = first->Ingest(
          seq, edges.subspan(begin, std::min(kBatch, edges.size() - begin)),
          &error);
      ASSERT_EQ(result.status, engine::IngestStatus::kApplied)
          << context << ": " << error;
      ASSERT_EQ(result.checkpoints_written, 1u) << context;
    }
    first.reset();  // the kill: no finalize, no drain checkpoint

    auto resumed = engine::Session::Open(config, /*resume=*/true, &error);
    ASSERT_NE(resumed, nullptr) << context << ": " << error;
    EXPECT_TRUE(resumed->Resumed()) << context;
    EXPECT_EQ(resumed->LastSequence(), kill_after_batches) << context;

    // The client replays from the start; applied sequences are
    // acknowledged as duplicates without touching state.
    std::string dup_error;
    const engine::IngestResult dup = resumed->Ingest(
        1, edges.subspan(0, std::min(kBatch, edges.size())), &dup_error);
    EXPECT_EQ(dup.status, engine::IngestStatus::kDuplicate) << context;

    FeedFrom(resumed.get(), fixture, kBatch);
    const engine::RunReport& report = resumed->Finalize();
    EXPECT_EQ(report.solution.cover, expected.solution.cover) << context;
    EXPECT_EQ(report.solution.certificate, expected.solution.certificate)
        << context;
    EXPECT_EQ(report.edges_delivered, expected.edges_delivered) << context;
    EXPECT_EQ(report.current_words, expected.current_words) << context;
    std::remove(path.c_str());
  }
}

// An edge outside the session's m × n is refused with its whole batch
// before any pump sees it: kFailed, an error naming the edge and m × n,
// nothing applied, the sequence not advanced. Every algorithm indexes
// its per-set and per-element state by id, so letting the edge through
// would write past that state. The next good batch is accepted at the
// same sequence, and the cover still equals the oracle.
TEST_P(SessionSweep, OutOfRangeBatchIsRefusedWhole) {
  Fixture fixture = MakeFixture(141);
  engine::RunReport expected = Oracle(GetParam(), fixture, std::nullopt);
  std::string error;
  auto session = engine::Session::Open(BaseConfig(GetParam(), fixture),
                                       /*resume=*/false, &error);
  ASSERT_NE(session, nullptr) << error;
  const std::span<const Edge> edges(fixture.stream.edges);
  const size_t half = edges.size() / 2;
  ASSERT_EQ(session->Ingest(1, edges.subspan(0, half), &error).status,
            engine::IngestStatus::kApplied)
      << error;

  const StreamMetadata& meta = fixture.stream.meta;
  const std::string shape = std::to_string(meta.num_sets) + " x " +
                            std::to_string(meta.num_elements);
  for (const Edge outside : {Edge{meta.num_sets, 0}, Edge{0, meta.num_elements},
                             Edge{5000, 5000}, Edge{kNoSet, 0}}) {
    std::vector<Edge> batch(edges.begin() + half, edges.end());
    batch.insert(batch.begin() + 3, outside);
    error.clear();
    const engine::IngestResult result = session->Ingest(2, batch, &error);
    EXPECT_EQ(result.status, engine::IngestStatus::kFailed);
    EXPECT_EQ(result.last_sequence, 1u);
    EXPECT_NE(error.find("ingest edge 3 (set " + std::to_string(outside.set) +
                         ", element " + std::to_string(outside.element) + ")"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find(shape), std::string::npos) << error;
    EXPECT_EQ(session->LastSequence(), 1u);
    EXPECT_EQ(session->Stats().edges_delivered, half);
  }

  ASSERT_EQ(session->Ingest(2, edges.subspan(half), &error).status,
            engine::IngestStatus::kApplied)
      << error;
  const engine::RunReport& report = session->Finalize();
  EXPECT_EQ(report.solution.cover, expected.solution.cover);
  EXPECT_EQ(report.solution.certificate, expected.solution.certificate);
  EXPECT_EQ(report.edges_delivered, expected.edges_delivered);
  EXPECT_EQ(report.current_words, expected.current_words);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SessionSweep,
                         testing::ValuesIn(RegisteredAlgorithmNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

class ShardedSessionSweep : public testing::TestWithParam<std::string> {};

// W > 1 kill/resume: a W = 3 session writes all three slots into one
// sidecar at one cursor, so the reopened session reports that cursor,
// dedupes the replayed prefix, and finishes bit-identical to
// engine::Execute with backend.workers = 3. The sidecar only resumes at
// the W it was written at.
TEST_P(ShardedSessionSweep, KillResumeMatchesExecuteAtThreeWorkers) {
  Fixture fixture = MakeFixture(101);
  engine::RunConfig oracle;
  oracle.algorithm = GetParam();
  oracle.options.seed = 21;
  oracle.source = engine::SourceSpec::InMemory(fixture.stream);
  oracle.backend.workers = 3;
  engine::RunReport expected = engine::Execute(oracle);
  ASSERT_TRUE(expected.completed) << expected.error;

  constexpr size_t kBatch = 16;
  engine::SessionConfig config = BaseConfig(GetParam(), fixture);
  config.workers = 3;
  config.checkpoint_path = TempPath("sharded_resume_" + GetParam() + ".sckp");
  config.checkpoint_every = kBatch;  // every batch checkpoints
  std::string error;
  auto first = engine::Session::Open(config, /*resume=*/false, &error);
  ASSERT_NE(first, nullptr) << error;
  const std::span<const Edge> edges(fixture.stream.edges);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    const engine::IngestResult result = first->Ingest(
        seq, edges.subspan(size_t(seq - 1) * kBatch, kBatch), &error);
    ASSERT_EQ(result.status, engine::IngestStatus::kApplied) << error;
    ASSERT_EQ(result.checkpoints_written, 1u) << "seq=" << seq;
  }
  first.reset();  // the kill: no finalize, no drain checkpoint

  auto resumed = engine::Session::Open(config, /*resume=*/true, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_TRUE(resumed->Resumed());
  EXPECT_EQ(resumed->LastSequence(), 5u);
  EXPECT_EQ(resumed->Ingest(1, edges.subspan(0, kBatch), &error).status,
            engine::IngestStatus::kDuplicate);
  FeedFrom(resumed.get(), fixture, kBatch);
  const engine::RunReport& report = resumed->Finalize();
  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.solution.cover, expected.solution.cover);
  EXPECT_EQ(report.solution.certificate, expected.solution.certificate);
  EXPECT_EQ(report.edges_delivered, expected.edges_delivered);
  EXPECT_EQ(report.resumed_at, 5 * kBatch);  // the cursor, not W times it

  config.workers = 2;
  EXPECT_EQ(engine::Session::Open(config, /*resume=*/true, &error), nullptr);
  EXPECT_NE(error.find("3-shard run, not 2 shards"), std::string::npos)
      << error;
  std::remove(config.checkpoint_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(ShardableAlgorithms, ShardedSessionSweep,
                         testing::ValuesIn(ShardableAlgorithmNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// --- Non-parameterized edge cases -----------------------------------

TEST(Session, NonShardableAlgorithmIsRefusedAtThreeWorkers) {
  Fixture fixture = MakeFixture(16);
  engine::SessionConfig config = BaseConfig("store-everything-greedy", fixture);
  config.workers = 3;
  std::string error;
  EXPECT_EQ(engine::Session::Open(config, /*resume=*/false, &error), nullptr);
  EXPECT_NE(error.find("not shardable"), std::string::npos) << error;
}

TEST(Session, RejectsSequenceGapsAndAcknowledgesDuplicates) {
  Fixture fixture = MakeFixture(11);
  std::string error;
  auto session = engine::Session::Open(BaseConfig("greedy-threshold", fixture),
                                       /*resume=*/false, &error);
  if (session == nullptr) {
    // Registry name differs across configurations; fall back to the
    // first registered algorithm.
    session = engine::Session::Open(
        BaseConfig(RegisteredAlgorithmNames().front(), fixture),
        /*resume=*/false, &error);
  }
  ASSERT_NE(session, nullptr) << error;
  const std::span<const Edge> edges(fixture.stream.edges);

  EXPECT_EQ(session->Ingest(2, edges.subspan(0, 4), &error).status,
            engine::IngestStatus::kOutOfOrder);
  EXPECT_EQ(session->Ingest(1, edges.subspan(0, 4), &error).status,
            engine::IngestStatus::kApplied);
  const uint64_t delivered = session->Stats().edges_delivered;
  EXPECT_EQ(session->Ingest(1, edges.subspan(0, 4), &error).status,
            engine::IngestStatus::kDuplicate);
  EXPECT_EQ(session->Stats().edges_delivered, delivered)
      << "a duplicate must not re-apply edges";
  EXPECT_EQ(session->Stats().duplicate_ingests, 1u);
}

TEST(Session, FinalizeIsIdempotentAndBlocksFurtherIngest) {
  Fixture fixture = MakeFixture(12);
  const std::string name = RegisteredAlgorithmNames().front();
  std::string error;
  auto session = engine::Session::Open(BaseConfig(name, fixture),
                                       /*resume=*/false, &error);
  ASSERT_NE(session, nullptr) << error;
  const std::span<const Edge> edges(fixture.stream.edges);
  ASSERT_EQ(session->Ingest(1, edges, &error).status,
            engine::IngestStatus::kApplied);

  const engine::RunReport& first = session->Finalize();
  const engine::RunReport& second = session->Finalize();
  EXPECT_EQ(&first, &second) << "finalize must return the cached report";
  EXPECT_EQ(session->Ingest(2, edges.subspan(0, 1), &error).status,
            engine::IngestStatus::kFailed);
}

// The W = 1 checkpoint cadence: a checkpoint is written at the first
// batch boundary where at least checkpoint_every edges arrived since
// the last one. With 60-edge batches and checkpoint_every = 100 that is
// exactly after every even-numbered batch, and each batch is one
// ProcessEdgeBatch call.
TEST(Session, CheckpointCadenceWritesAfterEveryEvenBatch) {
  Fixture fixture = MakeFixture(15);
  constexpr size_t kBatch = 60;
  const uint64_t batches = fixture.stream.size() / kBatch;
  ASSERT_GE(batches, 4u);
  engine::SessionConfig config =
      BaseConfig(RegisteredAlgorithmNames().front(), fixture);
  config.checkpoint_path = TempPath("cadence.sckp");
  config.checkpoint_every = 100;
  std::remove(config.checkpoint_path.c_str());

  std::string error;
  auto session = engine::Session::Open(config, /*resume=*/false, &error);
  ASSERT_NE(session, nullptr) << error;
  const std::span<const Edge> edges(fixture.stream.edges);
  uint64_t written = 0, last_even = 0;
  for (uint64_t seq = 1; seq <= batches; ++seq) {
    const engine::IngestResult result = session->Ingest(
        seq, edges.subspan(size_t(seq - 1) * kBatch, kBatch), &error);
    ASSERT_EQ(result.status, engine::IngestStatus::kApplied) << error;
    EXPECT_EQ(result.checkpoints_written, seq % 2 == 0 ? 1u : 0u)
        << "seq=" << seq;
    written += result.checkpoints_written;
    if (seq % 2 == 0) last_even = seq;
  }
  EXPECT_EQ(session->Stats().checkpoints_written, written);
  EXPECT_EQ(session->Stats().batches, batches);
  session.reset();

  auto reopened = engine::Session::Open(config, /*resume=*/true, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->LastSequence(), last_even);
  std::remove(config.checkpoint_path.c_str());
}

TEST(Session, ResumeWithoutCheckpointFileStartsFresh) {
  Fixture fixture = MakeFixture(13);
  engine::SessionConfig config =
      BaseConfig(RegisteredAlgorithmNames().front(), fixture);
  config.checkpoint_path = TempPath("never_written.sckp");
  std::remove(config.checkpoint_path.c_str());
  std::string error;
  auto session = engine::Session::Open(config, /*resume=*/true, &error);
  ASSERT_NE(session, nullptr) << error;
  EXPECT_FALSE(session->Resumed());
  EXPECT_EQ(session->LastSequence(), 0u);
}

TEST(Session, ResumeWithCorruptCheckpointFailsLoudly) {
  Fixture fixture = MakeFixture(14);
  engine::SessionConfig config =
      BaseConfig(RegisteredAlgorithmNames().front(), fixture);
  config.checkpoint_path = TempPath("corrupt.sckp");
  std::FILE* out = std::fopen(config.checkpoint_path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  std::fputs("not a checkpoint", out);
  std::fclose(out);

  std::string error;
  auto session = engine::Session::Open(config, /*resume=*/true, &error);
  EXPECT_EQ(session, nullptr);
  EXPECT_FALSE(error.empty());
  std::remove(config.checkpoint_path.c_str());
}

}  // namespace
}  // namespace setcover
