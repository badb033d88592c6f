// Fault-injector × checkpoint matrix (the crash matrix of
// docs/robustness.md): for every registered algorithm and every fault
// kind in isolation — transient, duplicate, drop, corrupt — a run
// killed mid-stream and resumed from its checkpoint through
// engine::Execute must finish bit-identical to the same faulty run
// left unkilled: cover, certificate, meter, and fault counters.

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "engine/engine.h"
#include "instance/generators.h"
#include "stream/fault_injector.h"
#include "stream/orderings.h"
#include "util/rng.h"

namespace setcover {
namespace {

struct FaultCase {
  const char* name;
  FaultSchedule schedule;
};

std::vector<FaultCase> FaultKinds() {
  std::vector<FaultCase> cases;
  {
    FaultSchedule s;
    s.seed = 91;
    s.transient_rate = 0.05;
    cases.push_back({"transient", s});
  }
  {
    FaultSchedule s;
    s.seed = 92;
    s.duplicate_rate = 0.05;
    cases.push_back({"duplicate", s});
  }
  {
    FaultSchedule s;
    s.seed = 93;
    s.drop_rate = 0.05;
    cases.push_back({"drop", s});
  }
  {
    FaultSchedule s;
    s.seed = 94;
    s.corrupt_rate = 0.05;
    cases.push_back({"corrupt", s});
  }
  return cases;
}

class FaultMatrix : public testing::TestWithParam<std::string> {};

TEST_P(FaultMatrix, ResumeAfterKillIsBitIdenticalUnderEachFaultKind) {
  Rng rng(401);
  UniformRandomParams p;
  p.num_elements = 60;
  p.num_sets = 80;
  SetCoverInstance instance = GenerateUniformRandom(p, rng);
  EdgeStream stream = OrderedStream(instance, StreamOrder::kRandom, rng);

  // PID-qualified: the forced-SIMD-tier ctest matrix runs several
  // instances of this binary concurrently on the same TempDir.
  std::string path = testing::TempDir() + "fault_matrix_" +
                     std::to_string(getpid()) + "_" + GetParam();
  for (char& c : path)
    if (c == '-') c = '_';
  path += ".sckp";

  for (const FaultCase& fault : FaultKinds()) {
    const std::string context = GetParam() + " fault=" + fault.name;

    engine::RunConfig base;
    base.algorithm = GetParam();
    base.options.seed = 21;
    base.source = engine::SourceSpec::InMemory(stream);
    base.faults = fault.schedule;

    engine::RunReport expected = engine::Execute(base);
    ASSERT_TRUE(expected.completed) << context << ": " << expected.error;
    ASSERT_FALSE(expected.degraded) << context;

    for (uint64_t k : {uint64_t{17}, uint64_t{90}}) {
      const std::string kill_context = context + " k=" + std::to_string(k);

      engine::RunConfig kill = base;
      kill.checkpoint.path = path;
      kill.checkpoint.every = k;
      // The kill point counts stream positions, faulty or not: 2k of
      // them deliver k edges (the k-th one a checkpoint) under every
      // fault kind here, drops included.
      kill.stop_after = 2 * k;
      engine::RunReport killed = engine::Execute(kill);
      ASSERT_FALSE(killed.completed) << kill_context;
      ASSERT_TRUE(killed.error.empty()) << kill_context << ": "
                                        << killed.error;
      ASSERT_GE(killed.checkpoints_written, 1u) << kill_context;

      engine::RunConfig resume = base;
      resume.options.seed = 777;  // must be ignored: state is on disk
      resume.checkpoint.path = path;
      resume.checkpoint.resume = true;
      engine::RunReport resumed = engine::Execute(resume);
      ASSERT_TRUE(resumed.completed)
          << kill_context << ": " << resumed.error;
      EXPECT_TRUE(resumed.resumed) << kill_context;

      EXPECT_EQ(resumed.solution.cover, expected.solution.cover)
          << kill_context;
      EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate)
          << kill_context;
      EXPECT_EQ(resumed.edges_delivered, expected.edges_delivered)
          << kill_context;
      EXPECT_EQ(resumed.corrupt_records_skipped,
                expected.corrupt_records_skipped)
          << kill_context;
      EXPECT_EQ(resumed.current_words, expected.current_words)
          << kill_context;
      EXPECT_FALSE(resumed.degraded) << kill_context;
    }
  }
  std::remove(path.c_str());
}

// The kill switch counts stream positions, whatever the injector does
// to them: a run killed at position k has taken exactly the records of
// positions [0, k) — each duplicate twice, each drop and corrupt record
// never — at every W, since it sits under the injector and the shard
// filter.
TEST(FaultMatrixTest, KillPointIsTheSameStreamPrefixAtEveryW) {
  Rng rng(211);
  UniformRandomParams p;
  p.num_elements = 60;
  p.num_sets = 80;
  SetCoverInstance instance = GenerateUniformRandom(p, rng);
  EdgeStream stream = OrderedStream(instance, StreamOrder::kRandom, rng);
  const FaultSchedule schedule = FaultSchedule::AllKinds(17, 0.1);
  VectorEdgeSource base(stream);
  const FaultInjector kinds(&base, schedule);

  uint64_t delivered = 0, corrupt = 0;
  for (uint64_t stop = 1; stop < stream.size(); ++stop) {
    const FaultKind kind = kinds.KindAt(stop - 1);
    delivered += kind == FaultKind::kDuplicate ? 2
                 : kind == FaultKind::kDrop || kind == FaultKind::kCorrupt
                     ? 0
                     : 1;
    corrupt += kind == FaultKind::kCorrupt ? 1 : 0;
    if (stop % 5 != 0) continue;
    for (uint32_t workers : {1u, 3u}) {
      const std::string context = "stop=" + std::to_string(stop) +
                                  " W=" + std::to_string(workers);
      engine::RunConfig kill;
      kill.algorithm = "kk";
      kill.source = engine::SourceSpec::InMemory(stream);
      kill.faults = schedule;
      kill.stop_after = stop;
      kill.backend.workers = workers;
      const engine::RunReport killed = engine::Execute(kill);
      ASSERT_TRUE(killed.error.empty()) << context << ": " << killed.error;
      EXPECT_FALSE(killed.completed) << context;
      EXPECT_EQ(killed.edges_delivered, delivered) << context;
      EXPECT_EQ(killed.corrupt_records_skipped, corrupt) << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, FaultMatrix,
                         testing::ValuesIn(RegisteredAlgorithmNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace setcover
