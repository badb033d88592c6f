// Kill-and-resume equivalence — the acceptance bar for the run
// subsystem: for every registered algorithm, killing a supervised run
// at edge k and resuming from the checkpoint must finish with the
// bit-identical cover, certificate and meter reading of an
// uninterrupted run, on clean streams and on fault-injected ones.

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "instance/generators.h"
#include "instance/validator.h"
#include "run/checkpoint.h"
#include "engine/engine.h"
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

Fixture MakeFixture(uint64_t seed = 101) {
  Rng rng(seed);
  UniformRandomParams p;
  p.num_elements = 60;
  p.num_sets = 80;
  Fixture fixture{GenerateUniformRandom(p, rng), {}};
  fixture.stream = RandomOrderStream(fixture.instance, rng);
  return fixture;
}

std::string CheckpointPath(const std::string& tag) {
  std::string name = "supervisor_" + tag + ".sckp";
  for (char& c : name)
    if (c == '-') c = '_';
  return testing::TempDir() + name;
}

// The kill half of a sweep: `algorithm` at `seed` over `source`, with a
// checkpoint into `path` every `every` edges, killed at stream position
// `stop`. The kill switch is a layer of engine::Execute's stack (under
// its fault injector, so the point is exact).
engine::RunReport RunAndKill(const std::string& algorithm, uint64_t seed,
                             engine::SourceSpec source,
                             std::optional<FaultSchedule> faults,
                             const std::string& path, uint64_t every,
                             uint64_t stop) {
  engine::RunConfig config;
  config.algorithm = algorithm;
  config.options.seed = seed;
  config.source = std::move(source);
  config.faults = std::move(faults);
  config.checkpoint.path = path;
  config.checkpoint.every = every;
  config.stop_after = stop;
  return engine::Execute(config);
}

// The resume half: a fresh, differently seeded `algorithm` object
// restored from the checkpoint at `path` and driven over `source` (with
// `faults`) to the end, through engine::Execute.
engine::RunReport Resume(StreamingSetCoverAlgorithm& algorithm,
                         engine::SourceSpec source,
                         std::optional<FaultSchedule> faults,
                         const std::string& path) {
  engine::RunConfig config;
  config.algorithm_instance = &algorithm;
  config.source = std::move(source);
  config.faults = std::move(faults);
  config.checkpoint.path = path;
  config.checkpoint.resume = true;
  return engine::Execute(config);
}

// Certificates that exist must be sound even when coverage is partial
// (dropped/corrupted records can legitimately lose elements).
void ExpectCertificateSound(const SetCoverInstance& inst,
                            const CoverSolution& solution,
                            const std::string& context) {
  ASSERT_EQ(solution.certificate.size(), inst.NumElements()) << context;
  std::vector<bool> in_cover(inst.NumSets(), false);
  for (SetId s : solution.cover) {
    ASSERT_LT(s, inst.NumSets()) << context;
    in_cover[s] = true;
  }
  for (ElementId u = 0; u < inst.NumElements(); ++u) {
    SetId w = solution.certificate[u];
    if (w == kNoSet) continue;
    ASSERT_LT(w, inst.NumSets()) << context;
    EXPECT_TRUE(in_cover[w]) << context;
    EXPECT_TRUE(inst.Contains(w, u)) << context;
  }
}

class SupervisorSweep : public testing::TestWithParam<std::string> {};

TEST_P(SupervisorSweep, KillAndResumeIsBitIdentical) {
  Fixture fixture = MakeFixture();
  const std::string path = CheckpointPath("clean_" + GetParam());

  // Uninterrupted reference run under the same supervisor.
  auto reference = MakeAlgorithmByName(GetParam(), {.seed = 21});
  VectorEdgeSource reference_source(fixture.stream);
  engine::RunReport expected =
      engine::Drive({}, *reference, reference_source);
  ASSERT_TRUE(expected.completed) << expected.error;
  ASSERT_EQ(expected.edges_delivered, fixture.stream.size());

  for (uint64_t k : {uint64_t{1}, uint64_t{13}, uint64_t{64},
                     uint64_t{fixture.stream.size() - 1}}) {
    // Phase 1: run to edge k, checkpoint there, die.
    engine::RunReport killed =
        RunAndKill(GetParam(), 21, engine::SourceSpec::InMemory(fixture.stream),
                   std::nullopt, path, k, k);
    ASSERT_FALSE(killed.completed) << GetParam() << " k=" << k;
    ASSERT_EQ(killed.checkpoints_written, 1u) << GetParam() << " k=" << k;

    // Phase 2: fresh object, fresh source, resume, replay the tail.
    auto revived = MakeAlgorithmByName(GetParam(), {.seed = 999});
    engine::RunReport resumed =
        Resume(*revived, engine::SourceSpec::InMemory(fixture.stream),
               std::nullopt, path);
    ASSERT_TRUE(resumed.completed)
        << GetParam() << " k=" << k << ": " << resumed.error;
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.resumed_at, k) << GetParam() << " k=" << k;
    EXPECT_EQ(resumed.edges_delivered, fixture.stream.size());

    EXPECT_EQ(resumed.solution.cover, expected.solution.cover)
        << GetParam() << " k=" << k;
    EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate)
        << GetParam() << " k=" << k;
    EXPECT_EQ(revived->Meter().CurrentWords(),
              reference->Meter().CurrentWords())
        << GetParam() << " k=" << k;
  }
  std::remove(path.c_str());
}

TEST_P(SupervisorSweep, KillAndResumeUnderFaultsIsBitIdentical) {
  Fixture fixture = MakeFixture(211);
  const std::string path = CheckpointPath("faulty_" + GetParam());
  const FaultSchedule schedule = FaultSchedule::AllKinds(17, 0.04);

  auto reference = MakeAlgorithmByName(GetParam(), {.seed = 23});
  VectorEdgeSource reference_base(fixture.stream);
  FaultInjector reference_source(&reference_base, schedule);
  engine::RunReport expected =
      engine::Drive({}, *reference, reference_source);
  ASSERT_TRUE(expected.completed) << expected.error;

  // Phase 1: checkpoint periodically, die mid-stream.
  engine::RunReport killed =
      RunAndKill(GetParam(), 23, engine::SourceSpec::InMemory(fixture.stream),
                 schedule, path, 11, 60);
  ASSERT_FALSE(killed.completed) << GetParam();
  ASSERT_GT(killed.checkpoints_written, 0u) << GetParam();

  // Phase 2: resume over an identically-faulty fresh source.
  auto revived = MakeAlgorithmByName(GetParam(), {.seed = 999});
  engine::RunReport resumed =
      Resume(*revived, engine::SourceSpec::InMemory(fixture.stream),
             schedule, path);
  ASSERT_TRUE(resumed.completed) << GetParam() << ": " << resumed.error;
  EXPECT_TRUE(resumed.resumed);

  EXPECT_EQ(resumed.solution.cover, expected.solution.cover) << GetParam();
  EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate)
      << GetParam();
  EXPECT_EQ(revived->Meter().CurrentWords(),
            reference->Meter().CurrentWords())
      << GetParam();
  EXPECT_EQ(resumed.edges_delivered, expected.edges_delivered)
      << GetParam();
  std::remove(path.c_str());
}

std::string SweepName(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SupervisorSweep,
                         testing::ValuesIn(RegisteredAlgorithmNames()),
                         SweepName);

TEST(RunSupervisorTest, KillAndResumeOverAnOnDiskStreamFile) {
  // The deployment path end to end: stream file on disk, supervised run
  // killed mid-stream, a second process-simulating run resumes via
  // SeekToEdge and matches the uninterrupted result exactly.
  Rng rng(47);
  UniformRandomParams p;
  p.num_elements = 200;
  p.num_sets = 3000;
  p.min_set_size = 2;
  p.max_set_size = 5;
  auto inst = GenerateUniformRandom(p, rng);
  auto stream = RandomOrderStream(inst, rng);
  ASSERT_GT(stream.size(), size_t{4096}) << "want multiple chunks";

  const std::string stream_path = testing::TempDir() + "supervisor.sces";
  const std::string ckpt_path = CheckpointPath("on_disk");
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, stream_path, StreamFormat::kV3, &error))
      << error;

  auto reference_source = StreamFileSource::Open(stream_path, &error);
  ASSERT_NE(reference_source, nullptr) << error;
  auto reference = MakeAlgorithmByName("random-order", {.seed = 31});
  engine::RunReport expected =
      engine::Drive({}, *reference, *reference_source);
  ASSERT_TRUE(expected.completed) << expected.error;

  engine::RunReport killed =  // dies inside the second chunk
      RunAndKill("random-order", 31, engine::SourceSpec::File(stream_path),
                 std::nullopt, ckpt_path, 1000, 5500);
  ASSERT_FALSE(killed.completed);
  ASSERT_GT(killed.checkpoints_written, 0u);

  auto revived = MakeAlgorithmByName("random-order", {.seed = 777});
  engine::RunReport resumed =
      Resume(*revived, engine::SourceSpec::File(stream_path), std::nullopt,
             ckpt_path);
  ASSERT_TRUE(resumed.completed) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_at, 5000u);

  EXPECT_EQ(resumed.solution.cover, expected.solution.cover);
  EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate);
  EXPECT_EQ(revived->Meter().CurrentWords(),
            reference->Meter().CurrentWords());
  EXPECT_TRUE(ValidateSolution(inst, resumed.solution).ok);
  std::remove(stream_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST(RunSupervisorTest, KillAndResumeIsBitIdenticalAcrossFormats) {
  // The checkpoint coordinate is an edge index, so a run checkpointed
  // with one decoder must resume identically with the other — and the
  // prefetch pipeline (whose seeks restart a worker thread) must not
  // perturb it either.
  Rng rng(61);
  UniformRandomParams p;
  p.num_elements = 200;
  p.num_sets = 3000;
  p.min_set_size = 2;
  p.max_set_size = 5;
  auto inst = GenerateUniformRandom(p, rng);
  auto stream = RandomOrderStream(inst, rng);
  ASSERT_GT(stream.size(), size_t{2} * 4096);

  std::string error;
  engine::RunReport expected;
  {
    VectorEdgeSource source(stream);
    auto reference = MakeAlgorithmByName("random-order", {.seed = 31});
    expected = engine::Drive({}, *reference, source);
    ASSERT_TRUE(expected.completed) << expected.error;
  }

  const std::string stream_path = testing::TempDir() + "formats_v3.sces";
  ASSERT_TRUE(WriteStreamFile(stream, stream_path, StreamFormat::kV3, &error))
      << error;
  for (bool kill_prefetch : {false, true}) {
    for (bool resume_prefetch : {false, true}) {
      std::string label = kill_prefetch ? "prefetch" : "sync";
      label += resume_prefetch ? "+prefetch" : "+sync";
      const std::string ckpt_path = CheckpointPath(("fmt_" + label).c_str());
      StreamReadOptions kill_options;
      kill_options.prefetch = kill_prefetch;
      StreamReadOptions resume_options_read;
      resume_options_read.prefetch = resume_prefetch;

      engine::RunReport killed = RunAndKill(
          "random-order", 31,
          engine::SourceSpec::File(stream_path, kill_options), std::nullopt,
          ckpt_path, 1000, 5500);
      ASSERT_FALSE(killed.completed) << label;
      ASSERT_GT(killed.checkpoints_written, 0u) << label;

      auto revived = MakeAlgorithmByName("random-order", {.seed = 777});
      engine::RunReport resumed = Resume(
          *revived, engine::SourceSpec::File(stream_path, resume_options_read),
          std::nullopt, ckpt_path);
      ASSERT_TRUE(resumed.completed) << label << ": " << resumed.error;
      EXPECT_TRUE(resumed.resumed) << label;
      EXPECT_EQ(resumed.resumed_at, 5000u) << label;

      EXPECT_EQ(resumed.solution.cover, expected.solution.cover) << label;
      EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate)
          << label;
      EXPECT_EQ(resumed.edges_delivered, expected.edges_delivered) << label;
      std::remove(ckpt_path.c_str());
    }
  }
  std::remove(stream_path.c_str());
}

TEST(RunSupervisorTest, ChecksumFailedChunkDegradesTheRun) {
  // A stream file whose second chunk fails its CRC ends the stream
  // early; the supervised run must come back degraded (and count the
  // corrupt signal), never silently complete on a fifth of the data.
  Rng rng(53);
  UniformRandomParams p;
  p.num_elements = 150;
  p.num_sets = 2500;
  p.min_set_size = 2;
  p.max_set_size = 5;
  auto inst = GenerateUniformRandom(p, rng);
  auto stream = RandomOrderStream(inst, rng);
  ASSERT_GT(stream.size(), size_t{4096});

  const std::string path = testing::TempDir() + "degraded.sces";
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error))
      << error;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  // Chunk 1 starts after the 28-byte header and chunk 0, whose 12-byte
  // header holds its payload size at +4.
  uint32_t chunk0_payload = 0;
  std::fseek(f, 28 + 4, SEEK_SET);
  ASSERT_EQ(std::fread(&chunk0_payload, 4, 1, f), 1u);
  std::fseek(f, 28 + 12 + long(chunk0_payload) + 12 + 100, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);

  auto source = StreamFileSource::Open(path, &error);
  ASSERT_NE(source, nullptr) << error;
  auto algorithm = MakeAlgorithmByName("kk", {.seed = 3});
  engine::RunReport report = engine::Drive({}, *algorithm, *source);

  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.corrupt_records_skipped, 1u);
  EXPECT_EQ(report.edges_delivered, 4096u);
  ExpectCertificateSound(inst, report.solution, "checksum-degraded");
  std::remove(path.c_str());
}

TEST(RunSupervisorTest, SurvivesTransientFaultsWithBackoff) {
  Fixture fixture = MakeFixture();
  FaultSchedule schedule;
  schedule.seed = 9;
  schedule.transient_rate = 0.1;
  schedule.transient_failures = 2;

  VectorEdgeSource base(fixture.stream);
  FaultInjector source(&base, schedule);
  auto algorithm = MakeAlgorithmByName("kk", {.seed = 3});

  std::vector<uint64_t> slept;
  engine::DriveOptions options;
  options.sleeper = [&slept](uint64_t us) { slept.push_back(us); };
  engine::RunReport report = engine::Drive(options, *algorithm, source);

  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_FALSE(report.degraded);
  EXPECT_GT(report.transient_retries, 0u);
  EXPECT_EQ(report.transient_retries, slept.size());
  EXPECT_EQ(report.edges_delivered, fixture.stream.size());
  EXPECT_TRUE(ValidateSolution(fixture.instance, report.solution).ok);
}

TEST(RunSupervisorTest, ExhaustedRetriesDegradeToCertifiedPartialCover) {
  Fixture fixture = MakeFixture();
  FaultSchedule schedule;
  schedule.seed = 9;
  schedule.transient_rate = 0.1;
  schedule.transient_failures = 1000;  // unrecoverable position

  VectorEdgeSource base(fixture.stream);
  FaultInjector source(&base, schedule);
  auto algorithm = MakeAlgorithmByName("kk", {.seed = 3});

  engine::DriveOptions options;
  options.backoff.max_retries = 4;
  engine::RunReport report = engine::Drive(options, *algorithm, source);

  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_TRUE(report.degraded);
  EXPECT_LT(report.edges_delivered, fixture.stream.size());
  ExpectCertificateSound(fixture.instance, report.solution, "degraded");
}

TEST(RunSupervisorTest, CorruptRecordsAreSkippedAndCounted) {
  Fixture fixture = MakeFixture();
  FaultSchedule schedule;
  schedule.seed = 13;
  schedule.corrupt_rate = 0.05;

  VectorEdgeSource base(fixture.stream);
  FaultInjector source(&base, schedule);
  auto algorithm = MakeAlgorithmByName("kk", {.seed = 3});
  engine::RunReport report = engine::Drive({}, *algorithm, source);

  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_GT(report.corrupt_records_skipped, 0u);
  EXPECT_EQ(report.corrupt_records_skipped,
            source.DeliveredFaults(FaultKind::kCorrupt));
  EXPECT_EQ(report.edges_delivered,
            fixture.stream.size() - report.corrupt_records_skipped);
  ExpectCertificateSound(fixture.instance, report.solution, "corrupt");
}

TEST(RunSupervisorTest, RejectsCorruptedCheckpoint) {
  Fixture fixture = MakeFixture();
  const std::string path = CheckpointPath("reject_corrupt");

  RunAndKill("kk", 3, engine::SourceSpec::InMemory(fixture.stream),
             std::nullopt, path, 20, 20);

  // Flip one byte mid-file; resume must refuse, not resume from garbage.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 40, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 40, SEEK_SET);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);

  auto revived = MakeAlgorithmByName("kk", {.seed = 3});
  engine::RunReport report =
      Resume(*revived, engine::SourceSpec::InMemory(fixture.stream),
             std::nullopt, path);
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.error.empty());
  std::remove(path.c_str());
}

TEST(RunSupervisorTest, RejectsCheckpointFromAnotherAlgorithm) {
  Fixture fixture = MakeFixture();
  const std::string path = CheckpointPath("reject_mismatch");

  RunAndKill("kk", 3, engine::SourceSpec::InMemory(fixture.stream),
             std::nullopt, path, 20, 20);

  auto other = MakeAlgorithmByName("first-set-patching", {.seed = 3});
  engine::RunReport report =
      Resume(*other, engine::SourceSpec::InMemory(fixture.stream),
             std::nullopt, path);
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.error.find("kk"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunSupervisorTest, NeverCheckpointsWhileSourceOwesAReplay) {
  // With duplicates firing constantly and checkpoint_every = 1, every
  // odd delivery happens while the injector owes the second copy; the
  // supervisor must only write at true record boundaries.
  Fixture fixture = MakeFixture();
  const std::string path = CheckpointPath("pending_replay");
  FaultSchedule schedule;
  schedule.seed = 3;
  schedule.duplicate_rate = 1.0;

  engine::RunConfig config;
  config.algorithm = "kk";
  config.options.seed = 3;
  config.source = engine::SourceSpec::InMemory(fixture.stream);
  config.faults = schedule;
  config.checkpoint.path = path;
  config.checkpoint.every = 1;
  engine::RunReport report = engine::Execute(config);

  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.edges_delivered, 2 * fixture.stream.size());
  // Exactly one checkpoint per record boundary, none mid-duplicate.
  EXPECT_EQ(report.checkpoints_written, fixture.stream.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace setcover
