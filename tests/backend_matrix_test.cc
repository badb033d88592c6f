// Cross-name equivalence for RunConfig::backend. For every shardable
// algorithm: (a) "inprocess" and "sharded" produce bit-identical
// covers, certificates, and counters at W = 1; (b) the checkpoint
// sidecars they write mid-run are byte-identical files at W = 1 (one
// slot), and a W = 3 run writes its three slots into one file. Plus:
// multi-pass stream schedules as composable sources, the W > 1 Session
// push-side counterpart, and name dispatch.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "engine/engine.h"
#include "engine/session.h"
#include "instance/generators.h"
#include "instance/validator.h"
#include "stream/orderings.h"
#include "stream/stream_file.h"
#include "util/rng.h"

namespace setcover {
namespace {

struct Fixture {
  SetCoverInstance instance;
  EdgeStream stream;
};

/// The sharded_engine_test planted fixture: known OPT, decoy sets,
/// enough edges that every shard of a W=3 split sees hundreds.
Fixture MakePlantedFixture(uint64_t seed) {
  Rng rng(seed);
  PlantedCoverParams p;
  p.num_elements = 120;
  p.num_sets = 600;
  p.planted_cover_size = 6;
  Fixture fixture{GeneratePlantedCover(p, rng), {}};
  fixture.stream = RandomOrderStream(fixture.instance, rng);
  return fixture;
}

std::string TempPath(const std::string& tag) {
  std::string name = "backend_" + tag;
  for (char& c : name)
    if (c == '-') c = '_';
  return testing::TempDir() + name;
}

engine::RunConfig BaseConfig(const std::string& algorithm,
                             const EdgeStream& stream,
                             const std::string& backend, uint32_t workers) {
  engine::RunConfig config;
  config.algorithm = algorithm;
  config.options.seed = 21;
  config.source = engine::SourceSpec::InMemory(stream);
  config.backend.name = backend;
  config.backend.workers = workers;
  return config;
}

void ExpectSameSolution(const engine::RunReport& actual,
                        const engine::RunReport& expected,
                        const std::string& context) {
  EXPECT_EQ(actual.solution.cover, expected.solution.cover) << context;
  EXPECT_EQ(actual.solution.certificate, expected.solution.certificate)
      << context;
  EXPECT_EQ(actual.edges_delivered, expected.edges_delivered) << context;
  EXPECT_EQ(actual.uncovered_elements, expected.uncovered_elements)
      << context;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

class BackendSweep : public testing::TestWithParam<std::string> {};

// (a) W = 1: both names are the same run — covers, certificates,
// counters, meter readings, batch counts.
TEST_P(BackendSweep, BackendsBitIdenticalAtOneWorker) {
  Fixture fixture = MakePlantedFixture(401);
  engine::RunReport expected =
      engine::Execute(BaseConfig(GetParam(), fixture.stream, "inprocess", 0));
  ASSERT_TRUE(expected.completed) << expected.error;

  for (const std::string backend : {"sharded"}) {
    const std::string context = GetParam() + " backend=" + backend;
    engine::RunReport report = engine::Execute(
        BaseConfig(GetParam(), fixture.stream, backend, 1));
    ASSERT_TRUE(report.completed) << context << ": " << report.error;
    ExpectSameSolution(report, expected, context);
    EXPECT_EQ(report.algorithm_name, expected.algorithm_name) << context;
    EXPECT_EQ(report.meter_breakdown, expected.meter_breakdown) << context;
    EXPECT_EQ(report.current_words, expected.current_words) << context;
    EXPECT_EQ(report.peak_words, expected.peak_words) << context;
    EXPECT_EQ(report.stages.batches, expected.stages.batches) << context;
  }
}

// (b) The checkpoint files themselves: a killed run leaves the same
// sidecar BYTES under either name — one slot at W = 1, three at
// W = 3.
TEST_P(BackendSweep, CheckpointSidecarsAreByteIdenticalAcrossBackends) {
  Fixture fixture = MakePlantedFixture(401);
  for (uint32_t workers : {1u, 3u}) {
    std::vector<std::string> backends = {"sharded"};
    if (workers == 1) backends.insert(backends.begin(), "inprocess");

    std::vector<std::string> paths;
    for (const std::string& backend : backends) {
      const std::string context = GetParam() + " backend=" + backend +
                                  " W=" + std::to_string(workers);
      const std::string path =
          TempPath("ckpt_" + GetParam() + "_" + backend +
                   std::to_string(workers));
      engine::RunConfig config =
          BaseConfig(GetParam(), fixture.stream, backend, workers);
      config.checkpoint.path = path;
      config.checkpoint.every = 10;
      // About 25 edges per shard: the kill point counts stream
      // positions, which the W shards share.
      config.stop_after = 25 * workers;
      engine::RunReport report = engine::Execute(config);
      ASSERT_TRUE(report.error.empty()) << context << ": " << report.error;
      ASSERT_FALSE(report.completed) << context;
      ASSERT_GE(report.checkpoints_written, uint64_t{workers}) << context;
      paths.push_back(path);
    }

    const std::string reference = FileBytes(paths[0]);
    ASSERT_FALSE(reference.empty()) << GetParam();
    for (size_t i = 1; i < paths.size(); ++i) {
      EXPECT_EQ(FileBytes(paths[i]), reference)
          << GetParam() << " W=" << workers << ": " << backends[i]
          << " sidecar differs from " << backends[0];
    }
    for (const std::string& path : paths) std::remove(path.c_str());
  }
}

// Stream schedules are composable sources under either name: a 2-pass
// schedule equals one pass over the physically doubled stream.
TEST_P(BackendSweep, TwoPassScheduleMatchesDoubledStreamOnEveryBackend) {
  Fixture fixture = MakePlantedFixture(421);
  // Same declared metadata (the scheduled source reports one pass's
  // meta), twice the edges.
  EdgeStream doubled = fixture.stream;
  doubled.edges.insert(doubled.edges.end(), fixture.stream.edges.begin(),
                       fixture.stream.edges.end());
  engine::RunReport expected = engine::Execute(
      BaseConfig(GetParam(), doubled, "inprocess", 0));
  ASSERT_TRUE(expected.completed) << expected.error;

  for (const std::string backend : {"inprocess", "sharded"}) {
    const std::string context = GetParam() + " backend=" + backend;
    engine::RunConfig config =
        BaseConfig(GetParam(), fixture.stream, backend,
                   backend == "inprocess" ? 0 : 1);
    config.source.schedule.passes = 2;
    engine::RunReport report = engine::Execute(config);
    ASSERT_TRUE(report.completed) << context << ": " << report.error;
    EXPECT_EQ(report.solution.cover, expected.solution.cover) << context;
    EXPECT_EQ(report.solution.certificate, expected.solution.certificate)
        << context;
    EXPECT_EQ(report.edges_delivered, 2 * fixture.stream.size()) << context;
  }
}

std::string TestName(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(ShardableAlgorithms, BackendSweep,
                         testing::ValuesIn(ShardableAlgorithmNames()),
                         TestName);

// A 2-pass schedule over a v3 FILE resumes mid-pass-2: scheduled
// positions (pass * N + record) are the checkpoint coordinate, so
// kill-and-resume composes with multi-pass runs.
TEST(BackendMatrixTest, TwoPassFileScheduleKillAndResume) {
  Fixture fixture = MakePlantedFixture(431);
  const std::string path = TempPath("twopass.scs3");
  const std::string ckpt = TempPath("twopass.sckp");
  std::string error;
  ASSERT_TRUE(
      WriteStreamFile(fixture.stream, path, StreamFormat::kV3, &error))
      << error;

  engine::RunConfig base = BaseConfig("kk", fixture.stream, "inprocess", 0);
  base.source = engine::SourceSpec::File(path);
  base.source.schedule.passes = 2;
  engine::RunReport expected = engine::Execute(base);
  ASSERT_TRUE(expected.completed) << expected.error;
  ASSERT_EQ(expected.edges_delivered, 2 * fixture.stream.size());

  engine::RunConfig kill = base;
  kill.checkpoint.path = ckpt;
  kill.checkpoint.every = 100;
  // Deep into pass 2.
  kill.stop_after = fixture.stream.size() + fixture.stream.size() / 2;
  engine::RunReport killed = engine::Execute(kill);
  ASSERT_TRUE(killed.error.empty()) << killed.error;
  ASSERT_FALSE(killed.completed);

  engine::RunConfig resume = base;
  resume.checkpoint.path = ckpt;
  resume.checkpoint.every = 100;
  resume.checkpoint.resume = true;
  engine::RunReport resumed = engine::Execute(resume);
  ASSERT_TRUE(resumed.completed) << resumed.error;
  EXPECT_GT(resumed.resumed_at, fixture.stream.size());
  ExpectSameSolution(resumed, expected, "2-pass resume");
  std::remove(path.c_str());
  std::remove(ckpt.c_str());
}

// The W > 1 Session — the push-side counterpart: ingesting the stream
// in client-sized batches through W pipelines merges to the exact
// engine::Execute result at the same (seed, W).
TEST(BackendMatrixTest, ShardedSessionMatchesExecuteSharded) {
  Fixture fixture = MakePlantedFixture(451);
  engine::RunReport expected =
      engine::Execute(BaseConfig("kk", fixture.stream, "sharded", 3));
  ASSERT_TRUE(expected.completed) << expected.error;

  engine::SessionConfig config;
  config.algorithm = "kk";
  config.options.seed = 21;
  config.meta = fixture.stream.meta;
  config.workers = 3;
  std::string error;
  auto session = engine::Session::Open(config, false, &error);
  ASSERT_NE(session, nullptr) << error;

  uint64_t sequence = 0;
  for (size_t at = 0; at < fixture.stream.size(); at += 37) {
    const size_t take = std::min<size_t>(37, fixture.stream.size() - at);
    engine::IngestResult result = session->Ingest(
        ++sequence,
        std::span<const Edge>(fixture.stream.edges.data() + at, take),
        &error);
    ASSERT_EQ(result.status, engine::IngestStatus::kApplied) << error;
  }
  const engine::RunReport& report = session->Finalize();
  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.solution.cover, expected.solution.cover);
  EXPECT_EQ(report.solution.certificate, expected.solution.certificate);
  EXPECT_EQ(report.edges_delivered, fixture.stream.size());
}

// Sharded sessions reject fault schedules outright — per-worker slice
// positions are not stream positions, so (seed, position) fault
// decisions would diverge from a whole-stream run.
TEST(BackendMatrixTest, ShardedSessionRejectsFaultSchedules) {
  engine::SessionConfig config;
  config.algorithm = "kk";
  config.meta = StreamMetadata{4, 4, 16};
  config.workers = 2;
  FaultSchedule faults;
  faults.duplicate_rate = 0.1;
  config.faults = faults;
  std::string error;
  EXPECT_EQ(engine::Session::Open(config, false, &error), nullptr);
  EXPECT_NE(error.find("fault schedules"), std::string::npos) << error;
}

// Name dispatch: an empty name with workers > 1 runs W shards, and
// unknown names fail with the known-name list.
TEST(BackendMatrixTest, DispatchAndRegistry) {
  Fixture fixture = MakePlantedFixture(401);

  engine::RunConfig config = BaseConfig("kk", fixture.stream, "", 2);
  engine::RunReport sharded = engine::Execute(config);
  ASSERT_TRUE(sharded.completed) << sharded.error;
  EXPECT_EQ(sharded.sharded.shards, 2u);

  config.backend.name = "no-such-backend";
  engine::RunReport unknown = engine::Execute(config);
  ASSERT_FALSE(unknown.completed);
  EXPECT_NE(unknown.error.find("unknown backend"), std::string::npos);
  EXPECT_NE(unknown.error.find("inprocess"), std::string::npos);
  EXPECT_NE(unknown.error.find("sharded"), std::string::npos);
}

}  // namespace
}  // namespace setcover
