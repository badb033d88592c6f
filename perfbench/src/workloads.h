// The three workloads of the end-to-end benchmark and the layer probes
// their traced runs share. README.md next to this directory says why
// each workload exists and which layer metric should move which
// end-to-end metric.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "instance/generators.h"
#include "instance/instance.h"
#include "stream/orderings.h"
#include "stream/stream.h"

namespace perfbench {

/// Input sizes. `full` is what BENCHMARK.json runs; `tiny` keeps the
/// benchmark's own tests fast.
struct Scale {
  // replay and sharded-w4: one planted instance with m >> n each. Sized
  // so the algorithm state of one pipeline (replay) or one shard
  // (sharded-w4) stays near one core's L2: larger states made the rate
  // follow the host's other load far more than the code.
  setcover::PlantedCoverParams replay;
  setcover::PlantedCoverParams sharded;
  // serve: several small planted instances, one stream each.
  setcover::PlantedCoverParams serve;
  uint32_t serve_instances = 0;
  uint64_t serve_checkpoint_every = 0;
  // Set-ups run in whole cycles over the CPU pairs until this much time
  // has passed (setup_s is their median).
  double setup_budget_s = 0.0;
  // Untimed work before the measured phase, so the first slice does not
  // carry page faults and thread start-up.
  double warmup_s = 0.0;
  // Repetitions of each layer probe in a traced run.
  int probe_reps = 0;
  // Round trips per transport for the server-scope Stats probe.
  int rtt_samples = 0;
};

Scale FullScale();
Scale TinyScale();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Test hook: corrupt the first cover the workload checks, so the
  // benchmark's own tests can see a wrong cover counted as a failure.
  bool inject_wrong_cover = false;
  std::string work_dir;
  Scale scale;
};

/// A per-purpose seed derived from the workload seed (splitmix64), so
/// instance, order and algorithm coins are independent but all follow
/// from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t purpose);

/// The algorithms every workload cycles through, in Table 1 order.
const std::vector<std::string>& AllAlgorithms();

/// What one workload's measured phase observed.
struct Measurement {
  uint64_t edges = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU of all threads over the phase
  double slice_s = 0.0;
  size_t slices = 0;
  SlicedSamples session_ms;
  SlicedSamples ack_us;
  // The session client reports ack times in whole microseconds.
  bool ack_whole_us = false;
  // Edges per second of each round (one job per algorithm) or time
  // slice, printed to show how the rate moved during the run.
  std::vector<double> round_rates;

  /// Cuts a phase of `seconds` into equal slices of about `target_s`.
  /// Call before recording samples.
  void SliceInto(double seconds, double target_s) {
    slices = std::max<size_t>(1, size_t(seconds / target_s + 0.5));
    slice_s = seconds / double(slices);
    session_ms.Reset(slice_s, slices);
    ack_us.Reset(slice_s, slices);
  }
};

/// How the workload runs one engine::Execute job; the probes time the
/// same job and split it into layers.
enum class EngineJob { kFile, kSharded, kInMemory };

/// The inputs a workload hands the layer probes.
struct ProbeInput {
  const setcover::SetCoverInstance* instance = nullptr;
  const setcover::EdgeStream* stream = nullptr;
  setcover::PlantedCoverParams params;
  uint64_t instance_seed = 0;
  uint64_t order_seed = 0;
  setcover::StreamOrder order = setcover::StreamOrder::kRandom;
  std::vector<std::string> algorithms;
  uint64_t algorithm_seed = 0;
  EngineJob job = EngineJob::kInMemory;
  std::string file_path;      // kFile: the replayed stream file
  std::string socket_path;    // a running server to probe, or empty
  uint64_t checkpoint_every = 0;
  uint64_t client_redials = 0;  // redials the workload's clients made
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs (and, for serve, starts the server). Spans name
  /// each step when tracing.
  virtual void Setup(Tracer* tracer, Report* report) = 0;

  /// Runs the workload for at least `seconds`, checking every output.
  virtual Measurement Measure(double seconds, Tracer* tracer,
                              Report* report) = 0;

  /// The seed-determined counts: state_words and cover_ratio.
  virtual void ReportCounts(Report* report) const = 0;

  virtual ProbeInput Probe() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const Options& options);

/// The workloads behind MakeWorkload: replay (sharded = false) and
/// sharded-w4 in batch.cc, serve in serve.cc.
std::unique_ptr<Workload> MakeBatchWorkload(const Options& options,
                                            bool sharded);
std::unique_ptr<Workload> MakeServeWorkload(const Options& options);

/// Per-layer probes of a traced run: calls each module's public entry
/// points directly on the workload's inputs, records a span around
/// each call, sets every per-layer metric, and prints the ledger.
void RunProbes(const ProbeInput& input, const Options& options,
               Tracer* tracer, Report* report);

/// Every metric name with its unit, as BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
