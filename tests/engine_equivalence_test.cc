// Engine equivalence — the acceptance bar for the src/engine/ refactor:
// for every registered algorithm, engine::Execute must produce
// bit-identical covers, certificates, meter readings, and checkpoint
// bytes to the legacy drive loops it replaced (the header-inline
// RunStream reference primitive, and a hand-rolled per-edge supervised
// driver for checkpoint bytes), across in-memory adversarial/random
// sources and stream files (v2 sync, v3 + prefetch), including
// kill-and-resume through the engine.

#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kk_algorithm.h"
#include "core/registry.h"
#include "engine/engine.h"
#include "instance/generators.h"
#include "instance/validator.h"
#include "run/checkpoint.h"
#include "stream/fault_injector.h"
#include "stream/orderings.h"
#include "stream/stream_file.h"
#include "util/rng.h"

namespace setcover {
namespace {

struct Fixture {
  SetCoverInstance instance;
  EdgeStream stream;
};

Fixture MakeFixture(uint64_t seed, StreamOrder order) {
  Rng rng(seed);
  UniformRandomParams p;
  p.num_elements = 60;
  p.num_sets = 80;
  Fixture fixture{GenerateUniformRandom(p, rng), {}};
  fixture.stream = OrderedStream(fixture.instance, order, rng);
  return fixture;
}

std::string TempPath(const std::string& tag) {
  std::string name = "engine_" + tag;
  for (char& c : name)
    if (c == '-') c = '_';
  return testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

class EngineSweep : public testing::TestWithParam<std::string> {};

// Fast in-memory path == the legacy RunStream reference primitive, on
// an adversarial (set-major) and a random-order stream. Covers,
// certificates, and both meter readings must match bit for bit.
TEST_P(EngineSweep, InMemoryExecuteMatchesRunStream) {
  for (StreamOrder order : {StreamOrder::kSetMajor, StreamOrder::kRandom}) {
    Fixture fixture = MakeFixture(101, order);
    auto reference = MakeAlgorithmByName(GetParam(), {.seed = 21});
    CoverSolution expected = RunStream(*reference, fixture.stream);

    engine::RunConfig config;
    config.algorithm = GetParam();
    config.options.seed = 21;
    config.source = engine::SourceSpec::InMemory(fixture.stream);
    engine::RunReport report = engine::Execute(config);

    const std::string context =
        GetParam() + " order=" + StreamOrderName(order);
    ASSERT_TRUE(report.completed) << context << ": " << report.error;
    EXPECT_EQ(report.algorithm_name, reference->Name()) << context;
    EXPECT_EQ(report.edges_delivered, fixture.stream.size()) << context;
    EXPECT_GE(report.stages.batches, 1u) << context;
    EXPECT_EQ(report.solution.cover, expected.cover) << context;
    EXPECT_EQ(report.solution.certificate, expected.certificate) << context;
    EXPECT_EQ(report.peak_words, reference->Meter().PeakWords()) << context;
    EXPECT_EQ(report.current_words, reference->Meter().CurrentWords())
        << context;
    EXPECT_EQ(report.meter_breakdown, reference->Meter().BreakdownString())
        << context;
  }
}

// File sources — v3 decoded synchronously and by the background
// prefetch decoder — must agree with RunStream over the same edges. (Peak words
// are compared only in NDEBUG builds: debug builds run RunStream's
// first-batch equivalence spot-check, which the file fast path, like
// the old RunStreamFromFile, never did.)
TEST_P(EngineSweep, FileExecuteMatchesRunStream) {
  Fixture fixture = MakeFixture(131, StreamOrder::kRandom);
  auto reference = MakeAlgorithmByName(GetParam(), {.seed = 33});
  CoverSolution expected = RunStream(*reference, fixture.stream);

  struct Variant {
    bool prefetch;
    const char* tag;
  };
  for (const Variant& variant :
       {Variant{false, "v3_sync"}, Variant{true, "v3_prefetch"}}) {
    const std::string context = GetParam() + " " + variant.tag;
    const std::string path =
        TempPath("file_" + GetParam() + "_" + variant.tag + ".bin");
    std::string error;
    ASSERT_TRUE(
        WriteStreamFile(fixture.stream, path, StreamFormat::kV3, &error))
        << context << ": " << error;

    StreamReadOptions read_options;
    read_options.prefetch = variant.prefetch;
    engine::RunConfig config;
    config.algorithm = GetParam();
    config.options.seed = 33;
    config.source = engine::SourceSpec::File(path, read_options);
    engine::RunReport report = engine::Execute(config);

    ASSERT_TRUE(report.completed) << context << ": " << report.error;
    EXPECT_FALSE(report.degraded) << context;
    EXPECT_EQ(report.edges_delivered, fixture.stream.size()) << context;
    EXPECT_EQ(report.solution.cover, expected.cover) << context;
    EXPECT_EQ(report.solution.certificate, expected.certificate) << context;
    EXPECT_EQ(report.current_words, reference->Meter().CurrentWords())
        << context;
#ifdef NDEBUG
    EXPECT_EQ(report.peak_words, reference->Meter().PeakWords()) << context;
#endif
    std::remove(path.c_str());
  }
}

// Kill-and-resume driven entirely through engine::Execute: a run killed
// at edge k and resumed from its checkpoint must finish bit-identical
// to an uninterrupted engine run.
TEST_P(EngineSweep, KillAndResumeThroughEngineIsBitIdentical) {
  Fixture fixture = MakeFixture(101, StreamOrder::kRandom);
  const std::string path = TempPath("resume_" + GetParam() + ".sckp");

  engine::RunConfig base;
  base.algorithm = GetParam();
  base.options.seed = 21;
  base.source = engine::SourceSpec::InMemory(fixture.stream);
  engine::RunReport expected = engine::Execute(base);
  ASSERT_TRUE(expected.completed) << expected.error;

  for (uint64_t k : {uint64_t{1}, uint64_t{13}, uint64_t{64},
                     uint64_t{fixture.stream.size() - 1}}) {
    const std::string context = GetParam() + " k=" + std::to_string(k);

    engine::RunConfig kill = base;
    kill.checkpoint.path = path;
    kill.checkpoint.every = k;
    kill.stop_after = k;
    engine::RunReport killed = engine::Execute(kill);
    ASSERT_FALSE(killed.completed) << context;
    ASSERT_TRUE(killed.error.empty()) << context << ": " << killed.error;
    ASSERT_EQ(killed.checkpoints_written, 1u) << context;

    engine::RunConfig resume = base;
    resume.options.seed = 999;  // must be ignored: state comes from disk
    resume.checkpoint.path = path;
    resume.checkpoint.resume = true;
    engine::RunReport resumed = engine::Execute(resume);
    ASSERT_TRUE(resumed.completed) << context << ": " << resumed.error;
    EXPECT_TRUE(resumed.resumed) << context;
    EXPECT_EQ(resumed.resumed_at, k) << context;
    EXPECT_EQ(resumed.edges_delivered, fixture.stream.size()) << context;
    EXPECT_EQ(resumed.solution.cover, expected.solution.cover) << context;
    EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate)
        << context;
    EXPECT_EQ(resumed.current_words, expected.current_words) << context;
  }
  std::remove(path.c_str());
}

// Checkpoint wire bytes: the engine's periodic checkpoint at edge k
// must be byte-identical to one written by a hand-rolled per-edge
// driver — same SCKP header, counters, and encoded state words.
TEST_P(EngineSweep, CheckpointBytesMatchPerEdgeOracle) {
  Fixture fixture = MakeFixture(101, StreamOrder::kRandom);
  const std::string engine_path = TempPath("bytes_a_" + GetParam() + ".sckp");
  const std::string oracle_path = TempPath("bytes_b_" + GetParam() + ".sckp");

  for (uint64_t k : {uint64_t{37}, uint64_t{128}}) {
    const std::string context = GetParam() + " k=" + std::to_string(k);

    engine::RunConfig config;
    config.algorithm = GetParam();
    config.options.seed = 21;
    config.source = engine::SourceSpec::InMemory(fixture.stream);
    config.checkpoint.path = engine_path;
    config.checkpoint.every = k;
    config.stop_after = k;
    engine::RunReport killed = engine::Execute(config);
    ASSERT_EQ(killed.checkpoints_written, 1u) << context;

    // Per-edge oracle: the pre-batching supervised loop in miniature.
    auto oracle = MakeAlgorithmByName(GetParam(), {.seed = 21});
    oracle->Begin(fixture.stream.meta);
    for (uint64_t i = 0; i < k; ++i) {
      oracle->ProcessEdge(fixture.stream.edges[i]);
    }
    StateEncoder encoder;
    oracle->EncodeState(&encoder);
    Checkpoint checkpoint;
    checkpoint.algorithm_name = oracle->Name();
    checkpoint.meta = fixture.stream.meta;
    checkpoint.stream_position = k;
    checkpoint.edges_delivered = k;
    checkpoint.state_words = encoder.Words();
    std::string error;
    ASSERT_TRUE(SaveCheckpoint(checkpoint, oracle_path, &error))
        << context << ": " << error;

    const std::string engine_bytes = ReadFileBytes(engine_path);
    ASSERT_FALSE(engine_bytes.empty()) << context;
    EXPECT_EQ(engine_bytes, ReadFileBytes(oracle_path)) << context;
  }
  std::remove(engine_path.c_str());
  std::remove(oracle_path.c_str());
}

// Execute's declarative fault spec must assemble the identical pipeline
// a caller would wire by hand (source -> FaultInjector -> Drive).
TEST_P(EngineSweep, FaultSpecMatchesManualAssembly) {
  Fixture fixture = MakeFixture(211, StreamOrder::kRandom);
  const FaultSchedule schedule = FaultSchedule::AllKinds(17, 0.04);

  auto manual = MakeAlgorithmByName(GetParam(), {.seed = 23});
  VectorEdgeSource base(fixture.stream);
  FaultInjector faulty(&base, schedule);
  engine::RunReport expected = engine::Drive({}, *manual, faulty);
  ASSERT_TRUE(expected.completed) << expected.error;

  engine::RunConfig config;
  config.algorithm = GetParam();
  config.options.seed = 23;
  config.source = engine::SourceSpec::InMemory(fixture.stream);
  config.faults = schedule;
  engine::RunReport report = engine::Execute(config);

  ASSERT_TRUE(report.completed) << GetParam() << ": " << report.error;
  EXPECT_EQ(report.solution.cover, expected.solution.cover) << GetParam();
  EXPECT_EQ(report.solution.certificate, expected.solution.certificate)
      << GetParam();
  EXPECT_EQ(report.edges_delivered, expected.edges_delivered) << GetParam();
  EXPECT_EQ(report.transient_retries, expected.transient_retries)
      << GetParam();
  EXPECT_EQ(report.corrupt_records_skipped,
            expected.corrupt_records_skipped)
      << GetParam();
  EXPECT_EQ(report.faults_survived, expected.faults_survived) << GetParam();
  EXPECT_EQ(report.degraded, expected.degraded) << GetParam();
  EXPECT_EQ(report.current_words, manual->Meter().CurrentWords())
      << GetParam();
}

// The batcher knob: any batch size must leave covers, certificates and
// state bit-identical (the ProcessEdgeBatch contract, enforced at the
// engine seam).
TEST_P(EngineSweep, BatchSizeIsObservationallyInvisible) {
  Fixture fixture = MakeFixture(101, StreamOrder::kRandom);
  engine::RunConfig config;
  config.algorithm = GetParam();
  config.options.seed = 21;
  config.source = engine::SourceSpec::InMemory(fixture.stream);
  engine::RunReport expected = engine::Execute(config);
  ASSERT_TRUE(expected.completed) << expected.error;

  for (size_t batch_edges : {size_t{1}, size_t{7}, size_t{1000}}) {
    engine::RunConfig odd = config;
    odd.batch_edges = batch_edges;
    engine::RunReport report = engine::Execute(odd);
    const std::string context =
        GetParam() + " batch=" + std::to_string(batch_edges);
    ASSERT_TRUE(report.completed) << context << ": " << report.error;
    EXPECT_EQ(report.solution.cover, expected.solution.cover) << context;
    EXPECT_EQ(report.solution.certificate, expected.solution.certificate)
        << context;
    EXPECT_EQ(report.current_words, expected.current_words) << context;
  }
}

std::string TestName(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, EngineSweep,
                         testing::ValuesIn(RegisteredAlgorithmNames()),
                         TestName);

// Multi-chunk on-disk kill-and-resume through the engine: checkpoints
// land mid-file (across v3 chunk boundaries), the resume seeks into the
// compressed file, and the finished run matches an uninterrupted
// file-fast-path run.
TEST(EngineTest, MultiChunkFileKillAndResume) {
  Rng rng(7);
  UniformRandomParams p;
  p.num_elements = 200;
  p.num_sets = 3000;
  SetCoverInstance instance = GenerateUniformRandom(p, rng);
  EdgeStream stream = RandomOrderStream(instance, rng);
  ASSERT_GT(stream.size(), 2 * kIngestBatchEdges);

  const std::string file_path = TempPath("multichunk.bin");
  const std::string ckpt_path = TempPath("multichunk.sckp");
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, file_path, StreamFormat::kV3, &error))
      << error;

  StreamReadOptions read_options;
  read_options.prefetch = true;
  engine::RunConfig base;
  base.algorithm = "kk";
  base.options.seed = 5;
  base.source = engine::SourceSpec::File(file_path, read_options);
  engine::RunReport expected = engine::Execute(base);
  ASSERT_TRUE(expected.completed) << expected.error;

  engine::RunConfig kill = base;
  kill.checkpoint.path = ckpt_path;
  kill.checkpoint.every = 1000;
  kill.stop_after = 5500;
  engine::RunReport killed = engine::Execute(kill);
  ASSERT_FALSE(killed.completed);
  ASSERT_EQ(killed.checkpoints_written, 5u);

  engine::RunConfig resume = base;
  resume.checkpoint.path = ckpt_path;
  resume.checkpoint.resume = true;
  engine::RunReport resumed = engine::Execute(resume);
  ASSERT_TRUE(resumed.completed) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_at, 5000u);
  EXPECT_EQ(resumed.edges_delivered, stream.size());
  EXPECT_EQ(resumed.solution.cover, expected.solution.cover);
  EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate);
  EXPECT_EQ(resumed.current_words, expected.current_words);

  std::remove(file_path.c_str());
  std::remove(ckpt_path.c_str());
}

// KK that records every batch span the engine hands it.
class RecordingKk : public KkAlgorithm {
 public:
  using KkAlgorithm::KkAlgorithm;
  void ProcessEdgeBatch(std::span<const Edge> edges) override {
    batches.push_back(edges);
    KkAlgorithm::ProcessEdgeBatch(edges);
  }
  std::vector<std::span<const Edge>> batches;
};

// At W = 1 an in-memory run feeds the pump the stream's own memory:
// every batch but a short tail aliases stream.edges at its offset, with
// or without checkpoint cuts inside the batches.
TEST(EngineTest, InMemoryBatchesAliasTheStream) {
  Rng rng(9);
  UniformRandomParams p;
  p.num_elements = 200;
  p.num_sets = 3000;
  SetCoverInstance instance = GenerateUniformRandom(p, rng);
  EdgeStream stream = RandomOrderStream(instance, rng);
  ASSERT_GT(stream.size(), 3 * kIngestBatchEdges);

  const std::string ckpt_path = TempPath("alias.sckp");
  for (const uint64_t every : {uint64_t{0}, uint64_t{5000}}) {
    RecordingKk algorithm(5);
    engine::RunConfig config;
    config.algorithm_instance = &algorithm;
    config.source = engine::SourceSpec::InMemory(stream);
    if (every > 0) {
      config.checkpoint.path = ckpt_path;
      config.checkpoint.every = every;
    }
    const engine::RunReport report = engine::Execute(config);
    ASSERT_TRUE(report.completed) << report.error;
    if (every > 0) {
      EXPECT_EQ(report.checkpoints_written, stream.size() / every);
    }

    size_t offset = 0;
    size_t full = 0;
    for (size_t i = 0; i < algorithm.batches.size(); ++i) {
      const std::span<const Edge> batch = algorithm.batches[i];
      if (batch.size() == kIngestBatchEdges) ++full;
      if (i + 1 < algorithm.batches.size() ||
          batch.size() == kIngestBatchEdges) {
        EXPECT_EQ(batch.data(), stream.edges.data() + offset)
            << "every=" << every << " batch " << i << " was copied";
      }
      offset += batch.size();
    }
    EXPECT_EQ(offset, stream.size());
    EXPECT_GT(full, 0u) << "every=" << every;
  }
  std::remove(ckpt_path.c_str());
}

TEST(EngineTest, UnknownAlgorithmFailsWithSuggestion) {
  EdgeStream stream;
  engine::RunConfig config;
  config.algorithm = "kkk";
  config.source = engine::SourceSpec::InMemory(stream);
  engine::RunReport report = engine::Execute(config);
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.error.find("did you mean 'kk'"), std::string::npos)
      << report.error;
  EXPECT_NE(report.error.find("registered algorithms:"), std::string::npos)
      << report.error;
}

TEST(EngineTest, ConfigWithoutExactlyOneSourceFails) {
  engine::RunConfig none;
  none.algorithm = "kk";
  EXPECT_FALSE(engine::Execute(none).error.empty());

  EdgeStream stream;
  engine::RunConfig both;
  both.algorithm = "kk";
  both.source = engine::SourceSpec::InMemory(stream);
  both.source.path = "also-a-file";
  EXPECT_FALSE(engine::Execute(both).error.empty());
}

TEST(EngineTest, ValidationStageReportsVerdict) {
  Fixture fixture = MakeFixture(101, StreamOrder::kRandom);
  engine::RunConfig config;
  config.algorithm = "kk";
  config.options.seed = 21;
  config.source = engine::SourceSpec::InMemory(fixture.stream);
  config.validate = &fixture.instance;
  engine::RunReport report = engine::Execute(config);
  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_TRUE(report.validated);
  EXPECT_TRUE(report.validation.ok) << report.validation.error;
  EXPECT_GE(report.stages.total_seconds, 0.0);

  engine::RunConfig unvalidated = config;
  unvalidated.validate = nullptr;
  EXPECT_FALSE(engine::Execute(unvalidated).validated);
}

}  // namespace
}  // namespace setcover
