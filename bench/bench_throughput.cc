// Experiment F7 — systems throughput: edges/second sustained by each
// one-pass algorithm on a large random-order stream. The paper is about
// space, but a streaming system also lives or dies by per-edge cost;
// this bench pins it down (items/s = edges/s).
//
// Ingestion goes through ProcessEdgeBatch in kIngestBatchEdges chunks —
// the same path RunStream and engine::Execute's one pull loop use —
// so these numbers measure the deployed pipeline, not a
// per-edge-virtual-call strawman. BM_NGuessThreads measures the
// parallel multi-run driver across thread counts on the same stream.
//
// BM_FileReplay measures the on-disk replay path end to end (open →
// decode → CRC → ProcessEdgeBatch) for the one stream-file read path,
// v3 from a mapping, with decode on the calling thread and on the
// prefetch thread; v3-mmap-prefetch is the shipping default.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "core/adversarial_level.h"
#include "core/kk_algorithm.h"
#include "core/multi_run.h"
#include "core/random_order.h"
#include "core/set_arrival.h"
#include "core/trivial.h"
#include "engine/engine.h"
#include "offline/greedy.h"
#include "stream/orderings.h"
#include "stream/stream_file.h"

namespace setcover {
namespace {

enum AlgKind { kKkAlg, kAdvLevel, kRandOrder, kPatch, kSetArr };

std::unique_ptr<StreamingSetCoverAlgorithm> Make(AlgKind kind,
                                                 uint64_t seed) {
  switch (kind) {
    case kKkAlg:
      return std::make_unique<KkAlgorithm>(seed);
    case kAdvLevel:
      return std::make_unique<AdversarialLevelAlgorithm>(seed);
    case kRandOrder:
      return std::make_unique<RandomOrderAlgorithm>(seed);
    case kPatch:
      return std::make_unique<FirstSetPatching>();
    case kSetArr:
      return std::make_unique<SetArrivalThreshold>();
  }
  return nullptr;
}

const char* KindName(AlgKind kind) {
  switch (kind) {
    case kKkAlg:
      return "kk";
    case kAdvLevel:
      return "adversarial-level";
    case kRandOrder:
      return "random-order";
    case kPatch:
      return "first-set-patching";
    case kSetArr:
      return "set-arrival-threshold";
  }
  return "?";
}

// Workload and stream are generated once and shared by every benchmark
// in this binary: generation costs more than a measured iteration, and
// a shared fixture guarantees all BM_Throughput rows (and the threads
// sweep) rank algorithms on the identical edge sequence.
const SetCoverInstance& SharedInstance() {
  static const SetCoverInstance instance = [] {
    const uint32_t n = 1024;
    const uint32_t m = 262144;  // 256·n: ~0.7M edges
    return bench::PlantedWorkload(n, m, 8, /*seed=*/4242);
  }();
  return instance;
}

const EdgeStream& SharedStream() {
  static const EdgeStream stream = [] {
    Rng rng(17);
    return RandomOrderStream(SharedInstance(), rng);
  }();
  return stream;
}

void IngestBatched(StreamingSetCoverAlgorithm& algorithm,
                   const EdgeStream& stream) {
  algorithm.Begin(stream.meta);
  std::span<const Edge> edges(stream.edges);
  for (size_t offset = 0; offset < edges.size();
       offset += kIngestBatchEdges) {
    algorithm.ProcessEdgeBatch(edges.subspan(
        offset, std::min(kIngestBatchEdges, edges.size() - offset)));
  }
}

void BM_Throughput(benchmark::State& state) {
  const AlgKind kind = static_cast<AlgKind>(state.range(0));
  const EdgeStream& stream = SharedStream();

  for (auto _ : state) {
    auto algorithm = Make(kind, 3);
    IngestBatched(*algorithm, stream);
    benchmark::DoNotOptimize(algorithm->Finalize());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel(KindName(kind));
  state.counters["stream_edges"] = double(stream.size());
}

BENCHMARK(BM_Throughput)
    ->DenseRange(kKkAlg, kSetArr)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

// The ingest-ceiling rows: Begin + batched ProcessEdgeBatch only — no
// Finalize — so the number is the pure per-edge cost of the streaming
// rule, the ceiling any deployment of that algorithm can sustain. These
// are the rows the SIMD batch kernels (util/simd.h) exist to lift, and
// scripts/check.sh --bench-smoke gates each one at 0.7x the committed
// baseline so a kernel regression fails CI. docs/performance.md keeps
// the human-readable table.
void BM_IngestCeiling(benchmark::State& state) {
  const AlgKind kind = static_cast<AlgKind>(state.range(0));
  const EdgeStream& stream = SharedStream();

  for (auto _ : state) {
    auto algorithm = Make(kind, 3);
    IngestBatched(*algorithm, stream);
    benchmark::DoNotOptimize(algorithm->Meter().PeakWords());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel(std::string("ingest-ceiling/") + KindName(kind));
  state.counters["stream_edges"] = double(stream.size());
}

BENCHMARK(BM_IngestCeiling)
    ->Arg(kKkAlg)
    ->Arg(kAdvLevel)
    ->Arg(kRandOrder)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

// The parallel-guess wrapper across thread counts. Results are
// bit-identical at every point of this sweep (thread_pool_test proves
// it); only the wall-clock should move, and only on multi-core hosts.
void BM_NGuessThreads(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const EdgeStream& stream = SharedStream();

  for (auto _ : state) {
    NGuessRandomOrder algorithm(/*seed=*/3, RandomOrderParams{}, threads);
    IngestBatched(algorithm, stream);
    benchmark::DoNotOptimize(algorithm.Finalize());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel("random-order-nguess");
  state.counters["threads"] = double(threads);
  state.counters["stream_edges"] = double(stream.size());
  // Parallel-speedup rows are only comparable between hosts with the
  // same core count; the gate in scripts/check.sh reads this to
  // annotate-and-skip cross-host comparisons instead of gating flat
  // single-core numbers against a multi-core baseline (or vice versa).
  state.counters["num_cpus"] = double(std::thread::hardware_concurrency());
}

BENCHMARK(BM_NGuessThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()  // worker threads carry the load; CPU time of the
                     // calling thread alone would fake a speedup
    ->MinTime(0.5);

// engine::Execute across shard counts W: the full fan-out +
// deterministic-protocol merge (RunConfig::backend.workers) over the
// shared in-memory stream. items/s is the *aggregate* ingest rate — on
// multi-core hosts it should scale near-linearly to W=4; on a
// single-core host the rows stay flat and the num_cpus counter lets the
// perf gate skip the cross-host comparison. Two acceptance checks run
// in-bench: the W=1 row must be bit-identical to the unsharded engine,
// and every row's merge message must stay within the protocol's Õ(n)
// bound.
void BM_ShardedIngest(benchmark::State& state) {
  const uint32_t shards = static_cast<uint32_t>(state.range(0));
  const EdgeStream& stream = SharedStream();

  engine::RunConfig config;
  config.algorithm = "kk";
  config.options.seed = 3;
  config.source = engine::SourceSpec::InMemory(stream);
  config.backend.workers = shards;

  engine::RunReport report;
  for (auto _ : state) {
    report = engine::Execute(config);
    if (!report.error.empty()) {
      state.SkipWithError(report.error.c_str());
      break;
    }
    benchmark::DoNotOptimize(report.solution.cover.size());
  }
  if (report.completed) {
    if (shards == 1) {
      engine::RunConfig unsharded = config;
      unsharded.backend = engine::BackendSpec{};
      const engine::RunReport reference = engine::Execute(unsharded);
      if (report.solution.cover != reference.solution.cover ||
          report.solution.certificate != reference.solution.certificate) {
        state.SkipWithError("W=1 sharded run diverged from engine::Execute");
      }
    } else if (report.sharded.max_message_words >
               report.sharded.message_words_bound) {
      state.SkipWithError("merge message exceeded the O~(n) bound");
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel("sharded-ingest/kk/w" + std::to_string(shards));
  state.counters["shards"] = double(shards);
  state.counters["stream_edges"] = double(stream.size());
  state.counters["merged_cover"] = double(report.solution.cover.size());
  state.counters["merge_message_words"] =
      double(report.sharded.max_message_words);
  state.counters["message_bound"] =
      double(report.sharded.message_words_bound);
  state.counters["num_cpus"] = double(std::thread::hardware_concurrency());
}

BENCHMARK(BM_ShardedIngest)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()  // the shard workers carry the load
    ->MinTime(0.5);

// The same RunConfig under each BackendSpec::name at representative
// worker counts. At W = 1 "sharded" runs the inprocess code, so those
// rows must match; the W = 4 row measures thread fan-out + merge over
// the identical pipeline work, since covers are bit-identical across
// rows at equal W (backend_matrix_test pins that; the in-bench check
// here re-asserts it against the inprocess run at W = 1). Multi-worker
// rows only scale on multi-core hosts; num_cpus lets the perf gate
// annotate-and-skip cross-host comparisons.
void BM_BackendIngest(benchmark::State& state) {
  static const char* const kBackends[] = {"inprocess", "sharded"};
  const std::string backend = kBackends[state.range(0)];
  const uint32_t workers = static_cast<uint32_t>(state.range(1));
  const EdgeStream& stream = SharedStream();

  engine::RunConfig config;
  config.algorithm = "kk";
  config.options.seed = 3;
  config.source = engine::SourceSpec::InMemory(stream);
  config.backend.name = backend;
  config.backend.workers = workers;

  engine::RunReport report;
  for (auto _ : state) {
    report = engine::Execute(config);
    if (!report.error.empty()) {
      state.SkipWithError(report.error.c_str());
      break;
    }
    benchmark::DoNotOptimize(report.solution.cover.size());
  }
  if (report.completed && workers == 1 && backend != "inprocess") {
    engine::RunConfig reference = config;
    reference.backend = engine::BackendSpec{};
    reference.backend.name = "inprocess";
    const engine::RunReport expected = engine::Execute(reference);
    if (report.solution.cover != expected.solution.cover ||
        report.solution.certificate != expected.solution.certificate) {
      state.SkipWithError("W=1 backend run diverged from inprocess");
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel("backend-ingest/" + backend + "/w" +
                 std::to_string(workers));
  state.counters["workers"] = double(workers);
  state.counters["stream_edges"] = double(stream.size());
  state.counters["num_cpus"] = double(std::thread::hardware_concurrency());
}

BENCHMARK(BM_BackendIngest)
    ->Args({0, 1})  // inprocess
    ->Args({1, 1})  // sharded W=1: the inprocess code, so the same rate
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()  // the worker threads carry the load
    ->MinTime(0.5);

// The supervised path's price: the plain in-memory engine::Execute job
// against the same job with a kill switch past the end of the stream
// (stop_after = N + 1), which stacks the kill-switch layer but never
// fires. Both run engine::Drive's one pull loop, so the kill-switch row
// should read within noise of the plain one. In-bench check: both rows
// produce the same cover. Ungated: no baseline has these rows yet.
void BM_SupervisedIngest(benchmark::State& state) {
  const AlgKind kind = static_cast<AlgKind>(state.range(0));
  const bool kill_switch = state.range(1) != 0;
  const EdgeStream& stream = SharedStream();

  engine::RunConfig config;
  config.algorithm = KindName(kind);
  config.options.seed = 3;
  config.source = engine::SourceSpec::InMemory(stream);
  engine::RunConfig armed = config;
  armed.stop_after = stream.size() + 1;
  const engine::RunConfig& run = kill_switch ? armed : config;

  engine::RunReport report;
  for (auto _ : state) {
    report = engine::Execute(run);
    if (!report.completed) {
      state.SkipWithError(report.error.c_str());
      break;
    }
    benchmark::DoNotOptimize(report.solution.cover.size());
  }
  if (report.completed) {
    const engine::RunReport other = engine::Execute(kill_switch ? config
                                                                : armed);
    if (report.solution.cover != other.solution.cover) {
      state.SkipWithError("kill-switch and plain runs chose different covers");
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel(std::string("supervised-ingest/") + KindName(kind) +
                 (kill_switch ? "/kill-switch" : "/plain"));
  state.counters["stream_edges"] = double(stream.size());
}

BENCHMARK(BM_SupervisedIngest)
    ->Args({kKkAlg, 0})
    ->Args({kKkAlg, 1})
    ->Args({kAdvLevel, 0})
    ->Args({kAdvLevel, 1})
    ->Args({kRandOrder, 0})
    ->Args({kRandOrder, 1})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

// ---- Offline-kernel rows: the bucket-queue greedy vs the lazy-heap
// reference it replaced (identical outputs, greedy_kernel_test), the
// counting-sort orderings, and the CSR instance build. items/s = edges/s
// throughout, so these rows compare directly with the ingest rows.

void BM_GreedyCover(benchmark::State& state) {
  const SetCoverInstance& instance = SharedInstance();
  GreedyWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyCover(instance, &workspace));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(instance.NumEdges()));
  state.SetLabel("greedy/bucket-queue");
  state.counters["cover_size"] =
      double(GreedyCover(instance, &workspace).cover.size());
}

BENCHMARK(BM_GreedyCover)->Unit(benchmark::kMillisecond)->MinTime(0.5);

void BM_GreedyCoverReference(benchmark::State& state) {
  const SetCoverInstance& instance = SharedInstance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyCoverReference(instance));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(instance.NumEdges()));
  state.SetLabel("greedy/reference-heap");
}

BENCHMARK(BM_GreedyCoverReference)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

void BM_OrderedStream(benchmark::State& state) {
  const StreamOrder order = static_cast<StreamOrder>(state.range(0));
  const SetCoverInstance& instance = SharedInstance();
  for (auto _ : state) {
    Rng rng(17);
    benchmark::DoNotOptimize(OrderedStream(instance, order, rng));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(instance.NumEdges()));
  state.SetLabel("ordered-stream/" + StreamOrderName(order));
}

BENCHMARK(BM_OrderedStream)
    ->Arg(int(StreamOrder::kElementMajor))
    ->Arg(int(StreamOrder::kRoundRobinSets))
    ->Arg(int(StreamOrder::kLargeSetsLast))
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

void BM_InstanceBuild(benchmark::State& state) {
  // FromEdges over the shuffled shared stream: the radix build every
  // Finalize() of the buffering algorithms runs.
  const EdgeStream& stream = SharedStream();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SetCoverInstance::FromEdges(
        stream.meta.num_elements, stream.meta.num_sets, stream.edges));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel("instance-build/from-edges");
}

BENCHMARK(BM_InstanceBuild)->Unit(benchmark::kMillisecond)->MinTime(0.5);

struct ReplayConfig {
  const char* label;
  bool prefetch;
};

constexpr ReplayConfig kReplayConfigs[] = {
    {"file-replay/v3-mmap-sync", false},
    {"file-replay/v3-mmap-prefetch", true},
};

/// The shared stream written once, replayed by every BM_FileReplay row.
const std::string& ReplayPath() {
  static const std::string path = [] {
    std::string path = "/tmp/setcover_bench_replay_v3.bin";
    std::string error;
    if (!WriteStreamFile(SharedStream(), path, StreamFormat::kV3, &error)) {
      std::fprintf(stderr, "bench: cannot write %s: %s\n", path.c_str(),
                   error.c_str());
      std::abort();
    }
    return path;
  }();
  return path;
}

uint64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return uint64_t(size);
}

// End-to-end file replay through the cheapest consumer
// (first-set-patching), so decode/CRC/IO cost dominates and the rows
// rank the read pipelines rather than the algorithms.
void BM_FileReplay(benchmark::State& state) {
  const ReplayConfig& config = kReplayConfigs[state.range(0)];
  const EdgeStream& stream = SharedStream();
  const std::string& path = ReplayPath();
  StreamReadOptions options;
  options.prefetch = config.prefetch;

  for (auto _ : state) {
    FirstSetPatching algorithm;
    engine::RunConfig run;
    run.algorithm_instance = &algorithm;
    run.source = engine::SourceSpec::File(path, options);
    engine::RunReport report = engine::Execute(run);
    if (!report.completed) {
      state.SkipWithError(report.error.c_str());
      break;
    }
    benchmark::DoNotOptimize(report.solution);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel(config.label);
  state.counters["stream_edges"] = double(stream.size());
  state.counters["file_bytes"] = double(FileBytes(path));
  state.counters["bytes_per_edge"] =
      double(FileBytes(path)) / double(stream.size());
}

BENCHMARK(BM_FileReplay)
    ->DenseRange(0, 1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()  // the prefetch worker carries part of the load
    ->MinTime(0.5);

}  // namespace
}  // namespace setcover

BENCHMARK_MAIN();
