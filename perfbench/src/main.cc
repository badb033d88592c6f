// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload replay|sharded-w4|serve --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--scale full|tiny]
//             [--git-sha SHA] [--src-digest HEX] [--inject-wrong-cover]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run (layer probes, spans, the
// ledger, and trace.overhead). The last stdout line is the result JSON;
// the exit code is non-zero when any output check failed.
// perfbench/run.py builds this binary and is the command BENCHMARK.json
// names.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>

#include "common.h"
#include "util/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

Scale FullScale() {
  Scale scale;
  scale.replay.num_elements = 4096;
  scale.replay.num_sets = 1u << 17;
  // Enough planted sets that the greedy reference (about one set per
  // planted set) is not a small integer: cover_ratio then moves by a
  // few percent between seeds, not by whole steps of 1/8.
  scale.replay.planted_cover_size = 64;
  scale.replay.decoy_min_size = 1;
  scale.replay.decoy_max_size = 4;
  scale.sharded = scale.replay;
  scale.sharded.num_sets = 1u << 19;
  scale.serve = scale.replay;
  scale.serve.num_elements = 512;
  scale.serve.num_sets = 8192;
  scale.serve.planted_cover_size = 16;
  scale.serve_instances = 12;
  // One checkpoint per session (sessions are about 21k edges). A second
  // one would replace the first by rename, and ext4 then writes the new
  // file to disk at once: session latency followed the host's disk.
  // Checkpoints written once and removed at close never reach the disk.
  scale.serve_checkpoint_every = 16384;
  scale.setup_budget_s = 2.0;
  scale.warmup_s = 1.0;
  scale.probe_reps = 5;
  scale.rtt_samples = 400;
  return scale;
}

Scale TinyScale() {
  Scale scale = FullScale();
  scale.replay.num_elements = 256;
  scale.replay.num_sets = 4096;
  scale.replay.planted_cover_size = 4;
  scale.sharded = scale.replay;
  scale.serve.num_elements = 64;
  scale.serve.num_sets = 512;
  scale.serve_instances = 2;
  scale.serve_checkpoint_every = 256;
  scale.setup_budget_s = 0.0;
  scale.warmup_s = 0.1;
  scale.probe_reps = 2;
  scale.rtt_samples = 20;
  return scale;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t purpose) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + purpose;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const std::vector<std::string>& AllAlgorithms() {
  static const std::vector<std::string> names = {"kk", "adversarial-level",
                                                 "random-order"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "replay") return MakeBatchWorkload(options, false);
  if (options.workload == "sharded-w4") return MakeBatchWorkload(options, true);
  if (options.workload == "serve") return MakeServeWorkload(options);
  return nullptr;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},           {"edges_per_s", "edges/s"},
      {"cpu_s_per_medge", "s"},   {"peak_rss_mb", "MiB"},
      {"state_words", "words"},   {"cover_ratio", "ratio"},
      {"ack_p50_us", "us"},       {"session_p50_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out = {
        {"stream.decode_s", "s"},
        {"stream.decode_edges_per_s", "edges/s"},
        {"stream.bytes_per_edge", "count"},
        {"stream.write_s", "s"},
        {"stream.order_s", "s"},
    };
    static const char* const kCore[][3] = {
        {"core.kk.ingest_s", "core.kk.finalize_s", "core.kk.state_words"},
        {"core.adversarial-level.ingest_s",
         "core.adversarial-level.finalize_s",
         "core.adversarial-level.state_words"},
        {"core.random-order.ingest_s", "core.random-order.finalize_s",
         "core.random-order.state_words"},
    };
    for (const auto& row : kCore) {
      out.push_back({row[0], "s"});
      out.push_back({row[1], "s"});
      out.push_back({row[2], "words"});
    }
    const std::vector<MetricSpec> rest = {
        {"instance.generate_s", "s"},
        {"instance.validate_s", "s"},
        {"offline.greedy_s", "s"},
        {"engine.execute_s", "s"},
        {"engine.overhead_s", "s"},
        {"engine.sharded.w1_edges_per_s", "edges/s"},
        {"engine.sharded.partition_s", "s"},
        {"engine.sharded.shard_ingest_max_s", "s"},
        {"engine.sharded.shard_ingest_sum_s", "s"},
        {"engine.sharded.shard_edges_skew", "count"},
        {"comm.merge_s", "s"},
        {"comm.message_words", "count"},
        {"comm.message_bound", "count"},
        {"server.encode_s", "s"},
        {"server.decode_s", "s"},
        {"server.unix.rtt_p50_us", "us"},
        {"server.shm.rtt_p50_us", "us"},
        {"engine.session.apply_s", "s"},
        {"server.open_p50_us", "us"},
        {"server.finalize_p50_us", "us"},
        {"server.checkpoint_p50_us", "us"},
        {"run.checkpoint_save_s", "s"},
        {"run.checkpoint_bytes", "count"},
        {"server.sheds", "count"},
        {"server.redials", "count"},
        {"server.frames", "count"},
        {"trace.overhead", "ratio"},
        {"ack_p99_us", "us"},
        {"session_p90_ms", "ms"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
  }();
  return specs;
}

namespace {

struct Args {
  Options options;
  std::string scale = "full";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  bool ok = true;
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        args.ok = false;
        return "";
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.options.workload = value();
    } else if (flag == "--seed") {
      args.options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.options.trace = value() == "1";
    } else if (flag == "--work-dir") {
      args.options.work_dir = value();
    } else if (flag == "--scale") {
      args.scale = value();
    } else if (flag == "--git-sha") {
      args.git_sha = value();
    } else if (flag == "--src-digest") {
      args.src_digest = value();
    } else if (flag == "--inject-wrong-cover") {
      args.options.inject_wrong_cover = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      args.ok = false;
    }
  }
  if (args.scale == "full") {
    args.options.scale = FullScale();
  } else if (args.scale == "tiny") {
    args.options.scale = TinyScale();
  } else {
    args.ok = false;
  }
  if (args.options.work_dir.empty() || args.options.seconds <= 0.0)
    args.ok = false;
  return args;
}

unsigned UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return unsigned(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

void PrintContext(const Args& args) {
  const Options& o = args.options;
  const Scale& s = o.scale;
  std::printf(
      "context {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"git_sha\": %s, \"src_digest\": %s, "
      "\"build_type\": %s, \"num_cpus\": %u, \"simd\": %s, \"scale\": %s, "
      "\"replay_n\": %u, \"replay_m\": %u, \"sharded_n\": %u, "
      "\"sharded_m\": %u, \"serve_instances\": %u, \"serve_n\": %u, "
      "\"serve_m\": %u}\n",
      JsonString(o.workload).c_str(), (unsigned long long)o.seed,
      JsonNumber(o.seconds).c_str(), o.trace ? 1 : 0,
      JsonString(args.git_sha).c_str(), JsonString(args.src_digest).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), UsableCpus(),
      JsonString(setcover::simd::LevelName(setcover::simd::ActiveLevel()))
          .c_str(),
      JsonString(args.scale).c_str(), s.replay.num_elements,
      s.replay.num_sets, s.sharded.num_elements, s.sharded.num_sets,
      s.serve_instances, s.serve.num_elements, s.serve.num_sets);
}

// edges_per_s: edges consumed in the measured phase over its wall time.
// A slow CPU slows every replay round pinned to a pair that holds it, so
// per-round rates fall into two groups, and their median jumped between
// the groups from run to run; the phase's rate moves smoothly with the
// mix.
double EdgesPerSecond(const Measurement& m) {
  return double(m.edges) / m.wall_s;
}

// Latency percentiles are taken per slice, then summarized over the
// slices. A median is the mean of the slice medians: the host's speed
// moves them from second to second, and their mean follows the mix
// smoothly where a median over slices jumps. A tail is the lower
// quartile of the slice tails: a stall of the host (a stolen CPU, a slow
// disk) lifts the tail of the slices it falls in and never lowers one,
// so the quieter slices show the program's own tail.
double SliceMedian(const SlicedSamples& samples, bool whole_units) {
  const std::vector<double> medians = samples.SliceQuantiles(0.5, whole_units);
  if (medians.empty()) return 0.0;
  return std::accumulate(medians.begin(), medians.end(), 0.0) /
         double(medians.size());
}

double SliceTail(const SlicedSamples& samples, double q, bool whole_units) {
  return Quantile(samples.SliceQuantiles(q, whole_units), 0.25);
}

// The tails are reported by the traced run, from its untraced half, and
// carry no bound: with every core of a shared host busy, a p99 or p90
// follows how often another tenant preempts a thread. On a shared 4-CPU
// host, in two ten-run sets of the same code, the spread of serve's
// ack_p99_us was 35% and 141% of its median, sharded-w4's 8% and 25%,
// and serve's session_p90_ms 17% and 60%. The medians of the same runs
// stayed within their bounds.
void ReportTails(const Measurement& m, Report* report) {
  report->Set("ack_p99_us", SliceTail(m.ack_us, 0.99, m.ack_whole_us), "us");
  report->Set("session_p90_ms", SliceTail(m.session_ms, 0.90, false), "ms");
}

void ReportEndToEnd(const Measurement& m, double setup_s,
                    const Workload& workload, Report* report) {
  report->Set("setup_s", setup_s, "s");
  report->Set("edges_per_s", EdgesPerSecond(m), "edges/s");
  report->Set("cpu_s_per_medge", m.cpu_s / (double(m.edges) / 1e6), "s");
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  workload.ReportCounts(report);
  report->Set("ack_p50_us", SliceMedian(m.ack_us, m.ack_whole_us), "us");
  report->Set("session_p50_ms", SliceMedian(m.session_ms, false), "ms");
  std::printf("samples: %zu acks, %zu sessions in %zu slices of %g s (p99 "
              "needs 1000 per slice, p90 needs 100); %llu edges in %.3f s\n",
              m.ack_us.Count(), m.session_ms.Count(), m.slices, m.slice_s,
              (unsigned long long)m.edges, m.wall_s);
  auto print_slices = [](const char* name, const std::vector<double>& v) {
    std::printf("slices %s:", name);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  print_slices("ack_p50_us", m.ack_us.SliceQuantiles(0.50, m.ack_whole_us));
  print_slices("ack_p99_us", m.ack_us.SliceQuantiles(0.99, m.ack_whole_us));
  print_slices("session_p50_ms", m.session_ms.SliceQuantiles(0.50, false));
  print_slices("session_p90_ms", m.session_ms.SliceQuantiles(0.90, false));
  print_slices("edges_per_s", m.round_rates);
}

// Setup as a share of the ledger: the traced set-ups against the spans
// of their steps.
void PrintSetupLedger(const Tracer& tracer, double setup_s, size_t reps) {
  const auto self = tracer.SelfSecondsUnder("setup");
  std::printf("ledger setup: median %.6f s per set-up, per-step means\n",
              setup_s);
  double sum = 0.0;
  for (const char* step : {"instance.generate", "stream.order",
                           "stream.write", "offline.greedy", "engine.oracle",
                           "server.start"}) {
    auto it = self.find(step);
    if (it == self.end()) continue;
    const double seconds = it->second / reps;
    sum += seconds;
    std::printf("  %-48s %12.6f s\n", step, seconds);
  }
  std::printf("  %-48s %12.6f s\n  %-48s %12.6f s\n",
              "= layer self-time sum", sum, "unexplained", setup_s - sum);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = Parse(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr,
                 "usage: perfbench --workload replay|sharded-w4|serve --seed "
                 "N --seconds S --trace 0|1 --work-dir DIR [--scale "
                 "full|tiny]\n");
    return 2;
  }
  const Options& options = args.options;
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to measure: built without NDEBUG\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to measure: build type %s, not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  workload.reset();
  std::error_code dir_error;
  std::filesystem::create_directories(options.work_dir, dir_error);
  PrintContext(args);

  Report report;
  Tracer tracer;
  Tracer* traced = options.trace ? &tracer : nullptr;

  // Set up several times and keep the last; setup_s is the median. The
  // previous workload is torn down first so its server releases the
  // socket before the next one binds it. Set-ups before the last run on
  // the next pair of CPUs each, in whole cycles over the pairs until the
  // budget is spent, so the median samples every core equally often and
  // cheap set-ups are sampled many times; the last runs on all CPUs,
  // because the threads it starts (serve's server) inherit its CPU mask.
  std::vector<double> setup_times;
  {
    CpuRotation rotation;
    const size_t cycle = std::max<size_t>(1, rotation.PairCount());
    const auto budget_start = Clock::now();
    for (bool last = false; !last;) {
      last = !setup_times.empty() && setup_times.size() % cycle == 0 &&
             SecondsSince(budget_start) >= options.scale.setup_budget_s;
      if (last) {
        rotation.Unpin();
      } else {
        rotation.PinNextPair();
      }
      workload.reset();
      workload = MakeWorkload(options);
      const auto start = Clock::now();
      workload->Setup(traced, &report);
      setup_times.push_back(SecondsSince(start));
    }
  }
  const double setup_s = Median(setup_times);
  std::printf("setup: %zu set-ups, median %.6f s\n", setup_times.size(),
              setup_s);
  workload->Measure(options.scale.warmup_s, nullptr, &report);

  if (!options.trace) {
    const Measurement m = workload->Measure(options.seconds, nullptr, &report);
    ReportEndToEnd(m, setup_s, *workload, &report);
  } else {
    const double half = options.seconds / 2.0;
    const Measurement plain = workload->Measure(half, nullptr, &report);
    const Measurement traced_run = workload->Measure(half, &tracer, &report);
    report.Set("trace.overhead",
               EdgesPerSecond(plain) / EdgesPerSecond(traced_run), "ratio");
    ReportTails(plain, &report);
    RunProbes(workload->Probe(), options, &tracer, &report);
    PrintSetupLedger(tracer, setup_s, setup_times.size());
    const std::string spans = options.work_dir + "/spans.jsonl";
    if (tracer.WriteJsonLines(spans))
      std::printf("spans: %s\n", spans.c_str());
  }
  workload.reset();

  for (const MetricSpec& spec :
       options.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    report.Check(report.Has(spec.name),
                 std::string("metric not measured: ") + spec.name);
  }
  std::printf("error_rate: %llu failed of %llu checked operations\n",
              (unsigned long long)report.Failed(),
              (unsigned long long)report.Attempted());
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return report.Failed() == 0 ? 0 : 1;
}
