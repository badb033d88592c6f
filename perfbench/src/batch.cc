// The two batch workloads, `replay` and `sharded-w4`: repeated
// engine::Execute jobs over one planted instance with m >> n.
//
//   replay      v3 stream file in uniform random order, replayed through
//               the default file source (mmap + prefetch) on the
//               inprocess backend at W = 1, for kk, adversarial-level and
//               random-order in turn.
//   sharded-w4  the same kind of instance as an in-memory stream in
//               large-sets-last order, run by kk and adversarial-level on
//               the sharded backend at W = 4.

#include <filesystem>
#include <map>
#include <optional>
#include <utility>

#include "core/registry.h"
#include "engine/engine.h"
#include "instance/validator.h"
#include "offline/greedy.h"
#include "stream/stream_file.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace setcover;

/// Times each ProcessEdgeBatch call of the wrapped algorithm: the
/// send-to-ack latency of one batch on the replay path. Everything else
/// forwards unchanged.
class TimedBatches final : public StreamingSetCoverAlgorithm {
 public:
  TimedBatches(std::unique_ptr<StreamingSetCoverAlgorithm> inner,
               Measurement* out, Clock::time_point phase_start)
      : inner_(std::move(inner)), out_(out), phase_start_(phase_start) {}

  std::string Name() const override { return inner_->Name(); }
  void Begin(const StreamMetadata& meta) override { inner_->Begin(meta); }
  void ProcessEdge(const Edge& edge) override { inner_->ProcessEdge(edge); }
  void ProcessEdgeBatch(std::span<const Edge> edges) override {
    const auto start = Clock::now();
    inner_->ProcessEdgeBatch(edges);
    const auto end = Clock::now();
    out_->ack_us.Add(std::chrono::duration<double>(end - phase_start_).count(),
                     std::chrono::duration<double>(end - start).count() * 1e6);
  }
  CoverSolution Finalize() override { return inner_->Finalize(); }
  const MemoryMeter& Meter() const override { return inner_->Meter(); }
  size_t StateWords() const override { return inner_->StateWords(); }
  void EncodeState(StateEncoder* encoder) const override {
    inner_->EncodeState(encoder);
  }
  bool DecodeState(const StreamMetadata& meta,
                   const std::vector<uint64_t>& words) override {
    return inner_->DecodeState(meta, words);
  }

 private:
  std::unique_ptr<StreamingSetCoverAlgorithm> inner_;
  Measurement* out_;
  Clock::time_point phase_start_;
};

class BatchWorkload final : public Workload {
 public:
  BatchWorkload(const Options& options, bool sharded)
      : options_(options), sharded_(sharded) {
    algorithms_ = sharded ? std::vector<std::string>{"kk",
                                                     "adversarial-level"}
                          : AllAlgorithms();
    path_ = options.work_dir + "/replay.v3";
  }

  // The next set-up then writes a new file instead of renaming over this
  // one, which ext4 would flush to disk at once: set-up time followed the
  // host's disk.
  ~BatchWorkload() override {
    std::error_code ignored;
    if (!sharded_) std::filesystem::remove(path_, ignored);
  }

  void Setup(Tracer* tracer, Report* report) override {
    Span setup(tracer, "setup");
    {
      Span span(tracer, "instance.generate");
      Rng rng(DeriveSeed(options_.seed, 1));
      instance_.emplace(GeneratePlantedCover(Params(), rng));
    }
    {
      Span span(tracer, "stream.order");
      Rng rng(DeriveSeed(options_.seed, 2));
      stream_ = OrderedStream(*instance_, Order(), rng);
    }
    if (!sharded_) {
      Span span(tracer, "stream.write");
      std::string error;
      const bool ok =
          WriteStreamFile(stream_, path_, StreamFormat::kV3, &error);
      report->Check(ok, "write " + path_ + ": " + error);
    }
    {
      Span span(tracer, "offline.greedy");
      greedy_size_ = GreedyCover(*instance_).cover.size();
    }
  }

  Measurement Measure(double seconds, Tracer* tracer,
                      Report* report) override {
    Measurement out;
    // Each slice must hold 1000 acks and 100 jobs: a sharded job yields
    // four acks and takes about 11 ms.
    out.SliceInto(seconds, sharded_ ? 3.0 : 1.0);
    CpuRotation rotation;
    const double cpu_start = ProcessCpuSeconds();
    const auto start = Clock::now();
    // Whole rounds only, so every algorithm weighs the same in the rate
    // and percentiles.
    auto round_start = start;
    uint64_t round_edges = out.edges;
    for (size_t job = 0;
         SecondsSince(start) < seconds || job % algorithms_.size() != 0;
         ++job) {
      // A replay job keeps two threads busy (consumer + prefetch
      // decoder, which inherits this mask), so each round runs on the
      // next pair of cores; sharded jobs use every core anyway.
      if (!sharded_ && job % algorithms_.size() == 0) rotation.PinNextPair();
      RunJob(algorithms_[job % algorithms_.size()], start, tracer, report,
             &out);
      if ((job + 1) % algorithms_.size() == 0) {
        out.round_rates.push_back(double(out.edges - round_edges) /
                                  SecondsSince(round_start));
        round_start = Clock::now();
        round_edges = out.edges;
      }
    }
    out.wall_s = SecondsSince(start);
    out.cpu_s = ProcessCpuSeconds() - cpu_start;
    return out;
  }

  void ReportCounts(Report* report) const override {
    uint64_t words = 0;
    uint64_t cover = 0;
    for (const std::string& name : algorithms_) {
      auto it = first_.find(name);
      if (it == first_.end()) continue;
      words += it->second.peak_words;
      cover += it->second.solution.cover.size();
    }
    report->Set("state_words", double(words), "words");
    report->Set("cover_ratio",
                double(cover) / double(greedy_size_ * algorithms_.size()),
                "ratio");
  }

  ProbeInput Probe() const override {
    ProbeInput input;
    input.instance = &*instance_;
    input.stream = &stream_;
    input.params = Params();
    input.instance_seed = DeriveSeed(options_.seed, 1);
    input.order_seed = DeriveSeed(options_.seed, 2);
    input.order = Order();
    input.algorithms = algorithms_;
    input.algorithm_seed = DeriveSeed(options_.seed, 3);
    input.job = sharded_ ? EngineJob::kSharded : EngineJob::kFile;
    input.file_path = sharded_ ? "" : path_;
    return input;
  }

 private:
  const PlantedCoverParams& Params() const {
    return sharded_ ? options_.scale.sharded : options_.scale.replay;
  }

  StreamOrder Order() const {
    return sharded_ ? StreamOrder::kLargeSetsLast : StreamOrder::kRandom;
  }

  void RunJob(const std::string& name, Clock::time_point phase_start,
              Tracer* tracer, Report* report, Measurement* out) {
    engine::RunConfig config;
    config.options.seed = DeriveSeed(options_.seed, 3);
    config.validate = &*instance_;
    std::unique_ptr<TimedBatches> timed;
    if (sharded_) {
      config.algorithm = name;
      config.source = engine::SourceSpec::InMemory(stream_);
      config.backend.name = "sharded";
      config.backend.workers = 4;
    } else {
      timed = std::make_unique<TimedBatches>(
          MakeAlgorithmByName(name, config.options), out, phase_start);
      config.algorithm_instance = timed.get();
      config.source = engine::SourceSpec::File(path_);
      config.backend.name = "inprocess";
    }

    const auto start = Clock::now();
    engine::RunReport run;
    {
      Span span(tracer, "engine.execute");
      run = engine::Execute(config);
    }
    const double at = SecondsSince(phase_start);
    out->session_ms.Add(at, SecondsSince(start) * 1e3);
    out->edges += run.edges_delivered;
    if (sharded_) {
      // Each shard pipeline acknowledges its slice once.
      for (double seconds : run.sharded.shard_stream_seconds)
        out->ack_us.Add(at, seconds * 1e6);
    }
    Check(name, run, report);
  }

  // A job passes when it completed cleanly, the engine's own validation
  // and ValidateSolution here both accept the cover and certificate, and
  // it reproduces the first job of the same algorithm bit for bit.
  void Check(const std::string& name, engine::RunReport& run,
             Report* report) {
    if (options_.inject_wrong_cover && !injected_ &&
        !run.solution.cover.empty()) {
      injected_ = true;
      run.solution.cover.pop_back();
    }
    bool ok = run.completed && run.error.empty() && !run.degraded &&
              run.edges_delivered == stream_.size() && run.validated &&
              run.validation.ok;
    const ValidationResult verdict = ValidateSolution(*instance_, run.solution);
    ok = ok && verdict.ok;
    auto [it, inserted] = first_.try_emplace(name);
    if (inserted) {
      it->second.solution = run.solution;
      it->second.peak_words = run.peak_words;
    } else {
      ok = ok && run.solution.cover == it->second.solution.cover &&
           run.solution.certificate == it->second.solution.certificate &&
           run.peak_words == it->second.peak_words;
    }
    report->Check(ok, name + " job: " +
                          (run.error.empty() ? verdict.error : run.error));
  }

  struct FirstJob {
    CoverSolution solution;
    size_t peak_words = 0;
  };

  Options options_;
  bool sharded_;
  std::vector<std::string> algorithms_;
  std::string path_;
  std::optional<SetCoverInstance> instance_;
  EdgeStream stream_;
  size_t greedy_size_ = 0;
  std::map<std::string, FirstJob> first_;
  bool injected_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeBatchWorkload(const Options& options,
                                            bool sharded) {
  return std::make_unique<BatchWorkload>(options, sharded);
}

}  // namespace perfbench
