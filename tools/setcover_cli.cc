// setcover_cli — the command-line face of the library.
//
// Subcommands:
//   generate  --family=planted|uniform|zipf|dominating --n --m [...]
//             --out instance.txt
//             Creates an instance file (text format, instance/io.h).
//
//   stream    --instance instance.txt --order random|set-major|...
//             --seed S --out stream.bin
//             Materializes an ordered edge stream into the binary
//             stream-file format v3 (stream/stream_file.h): delta-varint
//             compressed, CRC'd chunks plus a seek index.
//
//   solve     --instance instance.txt [--algorithm kk] [--order random]
//             [--seed S] [--alpha A] [--runs R] [--threads T]
//             [--shards W]
//             Streams the instance through the chosen algorithm and
//             reports cover size, ratio vs greedy/planted, peak words.
//             --threads parallelizes the --runs copies (and the guesses
//             of random-order-nguess); results are bit-identical to
//             --threads=1. --shards W partitions the stream by set id
//             across W workers merged through the deterministic t-party
//             protocol (engine/engine.h; requires a shardable
//             algorithm, incompatible with --runs > 1).
//
//   solve-stream --stream stream.bin [--algorithm kk] [--seed S]
//             [--threads T] [--shards W]
//             [--passes P] [--no-prefetch]
//             [--timings] [--checkpoint ckpt.sckp]
//             [--checkpoint-every K] [--resume] [--stop-after K]
//             Replays a v3 stream file through the engine, read from a
//             memory mapping (no instance needed; validation is skipped
//             since set contents are not known without the instance;
//             v1 and v2 files are refused). With --checkpoint the
//             run writes a CRC-guarded checkpoint every K edges;
//             --resume restarts from the last valid checkpoint and
//             replays only the tail, bit-identical to an uninterrupted
//             run. --stop-after kills the run after K stream
//             positions, at any --shards (for demonstrating/testing
//             recovery; docs/robustness.md).
//             --no-prefetch decodes on the calling thread instead of the
//             background pipeline decoder, for benchmarking and
//             debugging — results are bit-identical either way.
//             --timings prints the engine's per-stage wall/CPU
//             breakdown. --shards W runs the sharded
//             mode: W workers each stream their set-partitioned slice
//             of the same (mmap-shared) file and the covers merge via
//             the deterministic protocol; with --checkpoint the W
//             cursors aggregate into one sidecar file and --resume
//             restores all of them.
//             --passes P layers a P-pass schedule over the file
//             (each pass replays the identical record sequence);
//             --algorithm=progressive-threshold runs the multi-pass
//             progressive threshold greedy through the pass schedule.
//
//   compare   --instance instance.txt [--order random] [--seed S]
//             Runs *every* registered algorithm on the same stream and
//             prints the Table-1-style comparison (cover, ratio vs
//             greedy/planted, peak words).
//
//   list      Prints the registered algorithm names.
//
//   describe  (also: --describe, list --describe)
//             Prints the self-describing registry: one row per
//             algorithm with space class, approximation class,
//             supported arrival orders, the shardable capability
//             (whether --shards may fan the algorithm out across W
//             workers), and a one-line description.
//
// All subcommands that run an algorithm are thin clients of
// engine::Execute (src/engine/engine.h): they describe the run as a
// RunConfig and print fields of the returned RunReport.
//
// Examples:
//   setcover_cli generate --family=planted --n=1024 --m=65536
//       --opt=4 --out=/tmp/inst.txt
//   setcover_cli solve --instance=/tmp/inst.txt --algorithm=random-order
//   setcover_cli stream --instance=/tmp/inst.txt --order=random
//       --out=/tmp/stream.bin
//   setcover_cli solve-stream --stream=/tmp/stream.bin --algorithm=kk

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "core/multi_pass.h"
#include "core/multi_run.h"
#include "core/registry.h"
#include "engine/engine.h"
#include "instance/generators.h"
#include "instance/io.h"
#include "instance/validator.h"
#include "offline/greedy.h"
#include "stream/orderings.h"
#include "stream/stream_file.h"
#include "util/flags.h"

namespace setcover {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: setcover_cli "
      "<generate|stream|solve|solve-stream|compare|list|describe> "
      "[--flags]\n(see the header of tools/setcover_cli.cc for details)\n");
  return 2;
}

int UnknownAlgorithm(const std::string& name) {
  std::fprintf(stderr, "%s\n", UnknownAlgorithmError(name).c_str());
  return 2;
}

std::optional<StreamOrder> ParseOrder(const std::string& name) {
  for (StreamOrder order :
       {StreamOrder::kRandom, StreamOrder::kSetMajor,
        StreamOrder::kElementMajor, StreamOrder::kRoundRobinSets,
        StreamOrder::kLargeSetsLast}) {
    if (StreamOrderName(order) == name) return order;
  }
  return std::nullopt;
}

/// Parses --shards and vets it against the registry's shardable
/// capability. Returns the shard count, or -1 after printing the
/// actionable rejection (NotShardableError lists the shardable names).
int64_t ShardsFlag(const FlagSet& flags, const std::string& algorithm_name) {
  const int64_t shards = flags.GetInt("shards", 1);
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return -1;
  }
  if (shards > 1) {
    const AlgorithmInfo* info = FindAlgorithm(algorithm_name);
    if (info != nullptr && !info->shardable) {
      std::fprintf(stderr, "%s\n", NotShardableError(algorithm_name).c_str());
      return -1;
    }
  }
  return shards;
}

/// Prints the sharded-run summary lines shared by solve/solve-stream.
void PrintShardStats(const engine::RunReport& report) {
  if (report.sharded.shards <= 1) return;
  std::printf("shards:      %u (merge tau %u: %llu threshold + %llu "
              "patched sets, %.3fs)\n",
              report.sharded.shards, report.sharded.merge_threshold,
              static_cast<unsigned long long>(report.sharded.threshold_sets),
              static_cast<unsigned long long>(report.sharded.patched_sets),
              report.sharded.merge_seconds);
  std::printf("merge msg:   %llu words (bound %llu)\n",
              static_cast<unsigned long long>(
                  report.sharded.max_message_words),
              static_cast<unsigned long long>(
                  report.sharded.message_words_bound));
  std::string edges;
  for (uint64_t e : report.sharded.shard_edges) {
    if (!edges.empty()) edges += " ";
    edges += std::to_string(e);
  }
  std::printf("shard edges: %s\n", edges.c_str());
}

int CmdList() {
  for (const std::string& name : RegisteredAlgorithmNames()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int CmdDescribe() {
  std::printf("%-24s %-22s %-28s %-10s %s\n", "algorithm", "space", "approx",
              "shardable", "orders");
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    std::string orders;
    for (const std::string& order : info.supported_orders) {
      if (!orders.empty()) orders += ",";
      orders += order;
    }
    std::printf("%-24s %-22s %-28s %-10s %s\n", info.name.c_str(),
                info.space_class.c_str(), info.approx_class.c_str(),
                info.shardable ? "yes" : "no", orders.c_str());
    std::printf("    %s\n", info.description.c_str());
  }
  return 0;
}

int CmdGenerate(const FlagSet& flags) {
  std::string family = flags.GetString("family", "planted");
  uint32_t n = static_cast<uint32_t>(flags.GetInt("n", 1024));
  uint32_t m = static_cast<uint32_t>(flags.GetInt("m", 16384));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  std::string out = flags.GetString("out", "instance.txt");
  Rng rng(seed);

  SetCoverInstance instance = GeneratePartition(1, 1);
  if (family == "planted") {
    PlantedCoverParams p;
    p.num_elements = n;
    p.num_sets = m;
    p.planted_cover_size = static_cast<uint32_t>(flags.GetInt("opt", 4));
    p.decoy_min_size =
        static_cast<uint32_t>(flags.GetInt("decoy-min", 1));
    p.decoy_max_size =
        static_cast<uint32_t>(flags.GetInt("decoy-max", 4));
    instance = GeneratePlantedCover(p, rng);
  } else if (family == "uniform") {
    UniformRandomParams p;
    p.num_elements = n;
    p.num_sets = m;
    p.min_set_size = static_cast<uint32_t>(flags.GetInt("set-min", 1));
    p.max_set_size = static_cast<uint32_t>(flags.GetInt("set-max", 8));
    instance = GenerateUniformRandom(p, rng);
  } else if (family == "zipf") {
    ZipfParams p;
    p.num_elements = n;
    p.num_sets = m;
    p.min_set_size = static_cast<uint32_t>(flags.GetInt("set-min", 1));
    p.max_set_size = static_cast<uint32_t>(flags.GetInt("set-max", 16));
    p.exponent = flags.GetDouble("exponent", 1.0);
    instance = GenerateZipf(p, rng);
  } else if (family == "dominating") {
    instance = GenerateDominatingSet(n, flags.GetDouble("p", 0.01), rng);
  } else {
    std::fprintf(stderr, "unknown --family=%s\n", family.c_str());
    return 2;
  }

  if (!WriteInstanceFile(instance, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s: n=%u m=%u N=%zu%s\n", out.c_str(),
              instance.NumElements(), instance.NumSets(),
              instance.NumEdges(),
              instance.PlantedCover().empty() ? "" : " (planted cover)");
  return 0;
}

int CmdStream(const FlagSet& flags) {
  std::string path = flags.GetString("instance", "");
  std::string out = flags.GetString("out", "stream.bin");
  std::string order_name = flags.GetString("order", "random");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  std::string error;
  auto instance = ReadInstanceFile(path, &error);
  if (!instance.has_value()) {
    std::fprintf(stderr, "cannot read instance: %s\n", error.c_str());
    return 1;
  }
  auto order = ParseOrder(order_name);
  if (!order.has_value()) {
    std::fprintf(stderr, "unknown --order=%s\n", order_name.c_str());
    return 2;
  }
  Rng rng(seed);
  EdgeStream stream = OrderedStream(*instance, *order, rng);
  if (!WriteStreamFile(stream, out, StreamFormat::kV3, &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu edges in %s order (format v3)\n", out.c_str(),
              stream.size(), order_name.c_str());
  return 0;
}

int CmdSolve(const FlagSet& flags) {
  std::string path = flags.GetString("instance", "");
  std::string algorithm_name = flags.GetString("algorithm", "kk");
  std::string order_name = flags.GetString("order", "random");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  uint32_t runs = static_cast<uint32_t>(flags.GetInt("runs", 1));
  unsigned threads =
      static_cast<unsigned>(std::max<int64_t>(1, flags.GetInt("threads", 1)));

  std::string error;
  auto instance = ReadInstanceFile(path, &error);
  if (!instance.has_value()) {
    std::fprintf(stderr, "cannot read instance: %s\n", error.c_str());
    return 1;
  }
  auto order = ParseOrder(order_name);
  if (!order.has_value()) {
    std::fprintf(stderr, "unknown --order=%s\n", order_name.c_str());
    return 2;
  }
  AlgorithmOptions options;
  options.seed = seed;
  options.alpha = flags.GetDouble("alpha", 0.0);
  options.threads = threads;
  if (FindAlgorithm(algorithm_name) == nullptr) {
    return UnknownAlgorithm(algorithm_name);
  }
  const int64_t shards = ShardsFlag(flags, algorithm_name);
  if (shards < 0) return 2;
  if (shards > 1 && runs > 1) {
    std::fprintf(stderr,
                 "--shards is incompatible with --runs > 1 (a sharded run "
                 "is one logical run)\n");
    return 2;
  }

  Rng rng(seed ^ 0x9e3779b9);
  EdgeStream stream = OrderedStream(*instance, *order, rng);

  size_t total_peak = 0;
  CoverSolution solution;
  engine::RunReport sharded_report;
  if (shards > 1) {
    engine::RunConfig config;
    config.algorithm = algorithm_name;
    config.options = options;
    config.source = engine::SourceSpec::InMemory(stream);
    config.backend.workers = static_cast<uint32_t>(shards);
    sharded_report = engine::Execute(config);
    if (!sharded_report.error.empty()) {
      std::fprintf(stderr, "run failed: %s\n", sharded_report.error.c_str());
      return 1;
    }
    solution = sharded_report.solution;
    total_peak = sharded_report.peak_words;
  } else {
    AlgorithmFactory factory = [&](uint64_t run_seed) {
      AlgorithmOptions run_options = options;
      run_options.seed = run_seed;
      return MakeAlgorithmByName(algorithm_name, run_options);
    };
    solution = BestOfRuns(factory, std::max(1u, runs), seed, stream,
                          &total_peak, threads);
  }

  ValidationResult check = ValidateSolution(*instance, solution);
  CoverSolution greedy = GreedyCover(*instance);
  std::printf("algorithm:   %s (%u run%s)\n", algorithm_name.c_str(), runs,
              runs == 1 ? "" : "s");
  std::printf("order:       %s\n", order_name.c_str());
  std::printf("valid:       %s\n", check.ok ? "yes" : check.error.c_str());
  std::printf("cover size:  %zu\n", solution.cover.size());
  std::printf("greedy size: %zu (ratio %.2f)\n", greedy.cover.size(),
              ApproxRatio(solution, greedy.cover.size()));
  if (!instance->PlantedCover().empty()) {
    std::printf("planted OPT: %zu (ratio %.2f)\n",
                instance->PlantedCover().size(),
                ApproxRatio(solution, instance->PlantedCover().size()));
  }
  std::printf("peak words:  %zu%s\n", total_peak,
              runs > 1   ? " (summed over runs)"
              : shards > 1 ? " (summed over shards)"
                           : "");
  PrintShardStats(sharded_report);
  return check.ok ? 0 : 1;
}

int CmdCompare(const FlagSet& flags) {
  std::string path = flags.GetString("instance", "");
  std::string order_name = flags.GetString("order", "random");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  std::string error;
  auto instance = ReadInstanceFile(path, &error);
  if (!instance.has_value()) {
    std::fprintf(stderr, "cannot read instance: %s\n", error.c_str());
    return 1;
  }
  auto order = ParseOrder(order_name);
  if (!order.has_value()) {
    std::fprintf(stderr, "unknown --order=%s\n", order_name.c_str());
    return 2;
  }
  Rng rng(seed ^ 0x9e3779b9);
  EdgeStream stream = OrderedStream(*instance, *order, rng);
  CoverSolution greedy = GreedyCover(*instance);
  size_t reference = instance->PlantedCover().empty()
                         ? greedy.cover.size()
                         : instance->PlantedCover().size();

  std::printf("n=%u m=%u N=%zu order=%s reference=%zu (%s)\n\n",
              instance->NumElements(), instance->NumSets(),
              instance->NumEdges(), order_name.c_str(), reference,
              instance->PlantedCover().empty() ? "greedy" : "planted");
  std::printf("%-26s %8s %8s %14s %6s\n", "algorithm", "cover", "ratio",
              "peak_words", "valid");
  for (const std::string& name : RegisteredAlgorithmNames()) {
    engine::RunConfig config;
    config.algorithm = name;
    config.options.seed = seed;
    config.source = engine::SourceSpec::InMemory(stream);
    config.validate = &*instance;
    engine::RunReport report = engine::Execute(config);
    std::printf("%-26s %8zu %8.2f %14zu %6s\n", name.c_str(),
                report.solution.cover.size(),
                ApproxRatio(report.solution, reference), report.peak_words,
                report.validation.ok ? "yes" : "NO");
  }
  return 0;
}

int CmdSolveStream(const FlagSet& flags) {
  std::string path = flags.GetString("stream", "");
  std::string algorithm_name = flags.GetString("algorithm", "kk");
  // progressive-threshold is the multi-pass workhorse (core/multi_pass.h),
  // driven through a --passes schedule via the stream adapter; everything
  // else resolves through the one-pass registry.
  const bool multipass = algorithm_name == "progressive-threshold";
  if (!multipass && FindAlgorithm(algorithm_name) == nullptr) {
    return UnknownAlgorithm(algorithm_name);
  }

  const int64_t passes = flags.GetInt("passes", 1);
  if (passes < 1) {
    std::fprintf(stderr, "--passes must be >= 1\n");
    return 2;
  }
  const int64_t shards = multipass ? 1 : ShardsFlag(flags, algorithm_name);
  if (shards < 0) return 2;
  if (multipass && flags.GetInt("shards", 1) > 1) {
    std::fprintf(stderr,
                 "--algorithm=progressive-threshold runs one pipeline only "
                 "(no --shards): pass state spans the whole stream\n");
    return 2;
  }

  engine::RunConfig config;
  config.algorithm = algorithm_name;
  config.options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.options.alpha = flags.GetDouble("alpha", 0.0);
  config.options.threads =
      static_cast<unsigned>(std::max<int64_t>(1, flags.GetInt("threads", 1)));
  config.backend.workers = static_cast<uint32_t>(shards);

  StreamReadOptions read_options;
  read_options.prefetch = !flags.GetBool("no-prefetch", false);
  config.source = engine::SourceSpec::File(path, read_options);
  config.source.schedule.passes = static_cast<uint32_t>(passes);

  // The multi-pass adapter: feed P identical passes through the
  // one-pass pipeline and let the adapter re-derive the pass lifecycle
  // at stream-length boundaries (core/multi_pass.h).
  std::optional<ProgressiveThresholdMultiPass> progressive;
  std::optional<MultiPassStreamAdapter> adapter;
  if (multipass) {
    MultiPassParams params;
    params.passes = static_cast<uint32_t>(passes);
    progressive.emplace(params);
    adapter.emplace(*progressive);
    config.algorithm.clear();
    config.algorithm_instance = &*adapter;
  }

  config.checkpoint.path = flags.GetString("checkpoint", "");
  config.checkpoint.every =
      static_cast<uint64_t>(flags.GetInt("checkpoint-every", 1 << 16));
  config.checkpoint.resume = flags.GetBool("resume", false);
  config.stop_after = static_cast<uint64_t>(flags.GetInt("stop-after", 0));
  config.sleeper = [](uint64_t us) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  };
  if (config.checkpoint.resume && config.checkpoint.path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint\n");
    return 2;
  }
  const bool timings = flags.GetBool("timings", false);

  engine::RunReport report = engine::Execute(config);
  if (!report.error.empty()) {
    std::fprintf(stderr, "run failed: %s\n", report.error.c_str());
    return 1;
  }
  if (report.resumed) {
    std::printf("resumed:     from edge %llu (%s)\n",
                static_cast<unsigned long long>(report.resumed_at),
                config.checkpoint.path.c_str());
  }
  if (!report.completed) {
    std::printf("stopped:     after %llu edges (checkpoints written: %llu)\n",
                static_cast<unsigned long long>(report.edges_delivered),
                static_cast<unsigned long long>(report.checkpoints_written));
    return 0;
  }

  size_t witnessed = 0;
  for (SetId w : report.solution.certificate)
    witnessed += (w != kNoSet) ? 1 : 0;
  std::printf("algorithm:   %s\n", report.algorithm_name.c_str());
  if (passes > 1) {
    if (multipass && adapter.has_value()) {
      std::printf("passes:      %lld (%u completed)\n",
                  static_cast<long long>(passes),
                  adapter->PassesCompleted());
    } else {
      std::printf("passes:      %lld\n", static_cast<long long>(passes));
    }
  }
  std::printf("cover size:  %zu\n", report.solution.cover.size());
  std::printf("witnessed:   %zu/%zu elements\n", witnessed,
              report.solution.certificate.size());
  if (report.checkpoints_written > 0) {
    std::printf("checkpoints: %llu\n", static_cast<unsigned long long>(
                                           report.checkpoints_written));
  }
  if (report.degraded || report.transient_retries > 0 ||
      report.corrupt_records_skipped > 0) {
    std::printf("degraded:    %s (retries %llu, corrupt skipped %llu)\n",
                report.degraded ? "yes" : "no",
                static_cast<unsigned long long>(report.transient_retries),
                static_cast<unsigned long long>(
                    report.corrupt_records_skipped));
  }
  std::printf("peak words:  %zu\n", report.peak_words);
  std::printf("breakdown:   %s\n", report.meter_breakdown.c_str());
  PrintShardStats(report);
  if (timings) {
    std::printf(
        "timings:     setup %.3fs, stream %.3fs (%llu batches), "
        "finalize %.3fs; total %.3fs wall, %.3fs cpu\n",
        report.stages.setup_seconds, report.stages.stream_seconds,
        static_cast<unsigned long long>(report.stages.batches),
        report.stages.finalize_seconds, report.stages.total_seconds,
        report.stages.cpu_seconds);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  FlagSet flags = FlagSet::Parse(argc - 2, argv + 2);
  int result;
  if (command == "list") {
    result = flags.GetBool("describe", false) ? CmdDescribe() : CmdList();
  } else if (command == "describe" || command == "--describe") {
    result = CmdDescribe();
  } else if (command == "generate") {
    result = CmdGenerate(flags);
  } else if (command == "stream") {
    result = CmdStream(flags);
  } else if (command == "solve") {
    result = CmdSolve(flags);
  } else if (command == "compare") {
    result = CmdCompare(flags);
  } else if (command == "solve-stream") {
    result = CmdSolveStream(flags);
  } else {
    return Usage();
  }
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
  }
  return result;
}

}  // namespace
}  // namespace setcover

int main(int argc, char** argv) { return setcover::Main(argc, argv); }
