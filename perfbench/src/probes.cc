// Layer probes of a traced run. Each probe calls one module's public
// entry point directly on the workload's inputs, inside a span named
// after the layer, and repeats it `probe_reps` times; a metric is the
// median over repetitions. Times not named per algorithm are per round
// (summed over the algorithms the workload runs); stream, generator,
// greedy and codec times are per pass over the stream.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <unordered_map>

#include "comm/deterministic_protocol.h"
#include "core/registry.h"
#include "engine/engine.h"
#include "engine/session.h"
#include "instance/validator.h"
#include "offline/greedy.h"
#include "run/checkpoint.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stream/stream_file.h"
#include "util/math.h"
#include "util/serialize.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace setcover;

constexpr uint32_t kShards = 4;
constexpr size_t kFrameEdges = 512;
constexpr size_t kWindow = 8;
constexpr int kCheckpointsPerSession = 3;

template <typename Fn>
double Timed(Tracer* tracer, const std::string& name, Fn&& fn) {
  Span span(tracer, name);
  const auto start = Clock::now();
  fn();
  return SecondsSince(start);
}

void AddChild(Tracer* tracer, const std::string& name, double seconds) {
  if (tracer != nullptr) tracer->AddChild(name, seconds);
}

void IngestAll(StreamingSetCoverAlgorithm& algorithm,
               const StreamMetadata& meta, std::span<const Edge> edges) {
  algorithm.Begin(meta);
  for (size_t offset = 0; offset < edges.size(); offset += kIngestBatchEdges) {
    algorithm.ProcessEdgeBatch(edges.subspan(
        offset, std::min(kIngestBatchEdges, edges.size() - offset)));
  }
}

bool SameCover(const CoverSolution& a, const CoverSolution& b) {
  return a.cover == b.cover && a.certificate == b.certificate;
}

/// Medians of one repetition's per-round sums, keyed by metric name.
class RepSums {
 public:
  void Add(const std::string& name, double value) { current_[name] += value; }
  void EndRep() {
    for (const auto& [name, value] : current_) reps_[name].push_back(value);
    current_.clear();
  }
  double Median(const std::string& name) const {
    auto it = reps_.find(name);
    return it == reps_.end() ? 0.0 : perfbench::Median(it->second);
  }

 private:
  std::map<std::string, double> current_;
  std::map<std::string, std::vector<double>> reps_;
};

/// The sharded job split into its layers: partition once, per-shard
/// ingest + finalize on W threads, candidate build, §3 merge.
CoverSolution ShardedSplit(const std::string& name, const EdgeStream& stream,
                           const std::vector<std::vector<Edge>>& slices,
                           uint64_t seed,
                           Tracer* tracer, RepSums* sums, uint64_t* words,
                           uint64_t* bound) {
  std::vector<double> ingest_s(kShards);
  std::vector<double> finalize_s(kShards);
  std::vector<CoverSolution> locals(kShards);
  {
    Span fanout(tracer, "engine.sharded.fanout");
    ThreadPool pool(kShards);
    pool.RunIndexed(kShards, [&](size_t w) {
      AlgorithmOptions options;
      options.seed = seed + w;
      auto algorithm = MakeAlgorithmByName(name, options);
      auto start = Clock::now();
      IngestAll(*algorithm, stream.meta, slices[w]);
      ingest_s[w] = SecondsSince(start);
      start = Clock::now();
      locals[w] = algorithm->Finalize();
      finalize_s[w] = SecondsSince(start);
    });
    for (uint32_t w = 0; w < kShards; ++w) {
      AddChild(tracer, "engine.sharded.shard_ingest", ingest_s[w]);
      AddChild(tracer, "engine.sharded.shard_finalize", finalize_s[w]);
    }
  }
  double slowest = 0.0;
  for (uint32_t w = 0; w < kShards; ++w) {
    slowest = std::max(slowest, ingest_s[w] + finalize_s[w]);
    sums->Add("engine.sharded.shard_ingest_sum_s", ingest_s[w]);
  }
  sums->Add("engine.sharded.shard_ingest_max_s",
            *std::max_element(ingest_s.begin(), ingest_s.end()));
  sums->Add("critical.sharded.shards", slowest);

  // Certificate groups become party-disjoint candidate sets.
  const uint32_t n = stream.meta.num_elements;
  std::vector<std::vector<ElementId>> candidate_elems;
  std::vector<SetId> candidate_set;
  std::vector<uint32_t> candidate_owner;
  std::optional<SetCoverInstance> merged;
  sums->Add("critical.sharded.candidates",
            Timed(tracer, "engine.sharded.candidates", [&] {
              std::unordered_map<SetId, size_t> index;
              for (uint32_t w = 0; w < kShards; ++w) {
                const std::vector<SetId>& certificate = locals[w].certificate;
                for (ElementId u = 0; u < certificate.size(); ++u) {
                  const SetId s = certificate[u];
                  if (s == kNoSet) continue;
                  auto [it, inserted] =
                      index.try_emplace(s, candidate_elems.size());
                  if (inserted) {
                    candidate_elems.emplace_back();
                    candidate_set.push_back(s);
                    candidate_owner.push_back(w);
                  }
                  candidate_elems[it->second].push_back(u);
                }
              }
              merged.emplace(SetCoverInstance::FromSets(
                  n, std::move(candidate_elems)));
            }));
  const uint32_t tau =
      std::max<uint32_t>(1, uint32_t(ISqrt(uint64_t(n) * kShards)));
  DeterministicProtocolResult protocol;
  sums->Add("comm.merge_s", Timed(tracer, "comm.merge", [&] {
              protocol = RunDeterministicProtocol(*merged, candidate_owner,
                                                  kShards, tau);
            }));
  *words += protocol.max_message_words;
  *bound += (n + 63) / 64 + n + (n + tau - 1) / tau;

  CoverSolution solution;
  for (SetId candidate : protocol.solution.cover)
    solution.cover.push_back(candidate_set[candidate]);
  solution.certificate.assign(n, kNoSet);
  for (ElementId u = 0; u < n; ++u) {
    const SetId candidate = protocol.solution.certificate[u];
    if (candidate != kNoSet) solution.certificate[u] = candidate_set[candidate];
  }
  return solution;
}

std::string Fixed(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

void LedgerLine(const std::string& label, double seconds, double total) {
  std::printf("  %-48s %12s s  %6.1f%%\n", label.c_str(),
              Fixed(seconds).c_str(),
              total > 0.0 ? 100.0 * seconds / total : 0.0);
}

/// One traced run's probes: the workload's inputs, the running sums,
/// and what later probes and the ledger reuse.
struct ProbeRun {
  ProbeRun(const ProbeInput& input, const Options& run_options,
           Tracer* run_tracer, Report* run_report)
      : in(input),
        options(run_options),
        tracer(run_tracer),
        report(run_report),
        reps(std::max(1, run_options.scale.probe_reps)),
        instance(*input.instance),
        stream(*input.stream),
        meta(input.stream->meta),
        edges(double(input.stream->size())),
        probe_file(run_options.work_dir + "/probe.v3"),
        probe_checkpoint(run_options.work_dir + "/probe.sckp") {}

  void StreamLayers();
  void Core();
  void Engine();
  void Server();
  void Ledgers();

  const ProbeInput& in;
  const Options& options;
  Tracer* tracer;
  Report* report;
  const int reps;
  const SetCoverInstance& instance;
  const EdgeStream& stream;
  const StreamMetadata& meta;
  const double edges;
  const std::string probe_file;
  const std::string probe_checkpoint;
  RepSums sums;
  // Each algorithm's cover on the in-memory stream: every other path
  // must reproduce it.
  std::map<std::string, CoverSolution> reference;
  double decode_s = 0.0;
  double execute_s = 0.0;
  std::vector<double> encode, decode_frames, session_s;
};

void ProbeRun::StreamLayers() {
  // Per-pass layers: generator, order, writer, reader, greedy.
  std::vector<double> generate, order, write, decode, greedy;
  for (int rep = 0; rep < reps; ++rep) {
    generate.push_back(Timed(tracer, "instance.generate", [&] {
      Rng rng(in.instance_seed);
      GeneratePlantedCover(in.params, rng);
    }));
    order.push_back(Timed(tracer, "stream.order", [&] {
      Rng rng(in.order_seed);
      OrderedStream(instance, in.order, rng);
    }));
    std::string error;
    bool wrote = false;
    write.push_back(Timed(tracer, "stream.write", [&] {
      wrote = WriteStreamFile(stream, probe_file, StreamFormat::kV3, &error);
    }));
    report->Check(wrote, "probe write: " + error);
    size_t decoded = 0;
    decode.push_back(Timed(tracer, "stream.decode", [&] {
      auto reader = OpenBatchEdgeReader(probe_file, StreamReadOptions{},
                                        &error);
      if (reader == nullptr) return;
      for (auto batch = reader->NextBatch(); !batch.empty();
           batch = reader->NextBatch()) {
        decoded += batch.size();
      }
    }));
    report->Check(decoded == stream.size(), "probe decode: " + error);
    greedy.push_back(
        Timed(tracer, "offline.greedy", [&] { GreedyCover(instance); }));
  }
  std::error_code size_error;
  const double file_bytes =
      double(std::filesystem::file_size(probe_file, size_error));
  decode_s = Median(decode);
  report->Set("stream.decode_s", decode_s, "s");
  report->Set("stream.decode_edges_per_s", edges / decode_s, "edges/s");
  report->Set("stream.bytes_per_edge", file_bytes / edges, "count");
  report->Set("stream.write_s", Median(write), "s");
  report->Set("stream.order_s", Median(order), "s");
  report->Set("instance.generate_s", Median(generate), "s");
  report->Set("offline.greedy_s", Median(greedy), "s");

}

void ProbeRun::Core() {
  std::error_code size_error;
  // core: ingest and finalize of in-memory batches of the same stream,
  // for every algorithm; validation and checkpoints of the workload's.
  std::map<std::string, Checkpoint> snapshots;
  for (const std::string& name : AllAlgorithms()) {
    std::vector<double> ingest, finalize;
    size_t peak_words = 0;
    for (int rep = 0; rep < reps; ++rep) {
      AlgorithmOptions algorithm_options;
      algorithm_options.seed = in.algorithm_seed;
      auto algorithm = MakeAlgorithmByName(name, algorithm_options);
      ingest.push_back(Timed(tracer, "core." + name + ".ingest", [&] {
        IngestAll(*algorithm, meta, stream.edges);
      }));
      if (rep == 0) {
        StateEncoder encoder;
        algorithm->EncodeState(&encoder);
        Checkpoint& snapshot = snapshots[name];
        snapshot.algorithm_name = algorithm->Name();
        snapshot.meta = meta;
        snapshot.stream_position = stream.size();
        snapshot.edges_delivered = stream.size();
        snapshot.state_words = encoder.Words();
      }
      CoverSolution solution;
      finalize.push_back(Timed(tracer, "core." + name + ".finalize",
                               [&] { solution = algorithm->Finalize(); }));
      peak_words = algorithm->Meter().PeakWords();
      if (rep == 0) reference[name] = solution;
      report->Check(SameCover(solution, reference[name]),
                    "core " + name + " not deterministic");
    }
    report->Set("core." + name + ".ingest_s", Median(ingest), "s");
    report->Set("core." + name + ".finalize_s", Median(finalize), "s");
    report->Set("core." + name + ".state_words", double(peak_words), "words");
  }
  double checkpoint_bytes = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& name : in.algorithms) {
      ValidationResult verdict;
      sums.Add("instance.validate_s",
               Timed(tracer, "instance.validate", [&] {
                 verdict = ValidateSolution(instance, reference[name]);
               }));
      report->Check(verdict.ok, "core " + name + ": " + verdict.error);
      std::string error;
      bool saved = false;
      sums.Add("run.checkpoint_save_s",
               Timed(tracer, "run.checkpoint_save", [&] {
                 saved = SaveCheckpoint(snapshots[name], probe_checkpoint,
                                        &error);
               }));
      report->Check(saved, "checkpoint save: " + error);
      if (rep == 0) {
        checkpoint_bytes +=
            double(std::filesystem::file_size(probe_checkpoint, size_error));
      }
    }
    sums.EndRep();
  }
  report->Set("instance.validate_s", sums.Median("instance.validate_s"), "s");
  report->Set("run.checkpoint_save_s", sums.Median("run.checkpoint_save_s"),
              "s");
  report->Set("run.checkpoint_bytes", checkpoint_bytes, "count");

}

void ProbeRun::Engine() {
  // engine: the workload's own job, and the sharded split (W = 4) plus
  // its W = 1 baseline on the same stream.
  std::map<std::string, CoverSolution> engine_covers;
  uint64_t message_words = 0;
  uint64_t message_bound = 0;
  double skew = 0.0;
  double w1_seconds = 0.0;
  double w1_edges = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& name : in.algorithms) {
      engine::RunConfig config;
      config.algorithm = name;
      config.options.seed = in.algorithm_seed;
      config.backend.name = "inprocess";
      config.source = engine::SourceSpec::InMemory(stream);
      if (in.job == EngineJob::kFile) {
        config.source = engine::SourceSpec::File(in.file_path);
        config.validate = &instance;
      } else if (in.job == EngineJob::kSharded) {
        config.backend.name = "sharded";
        config.backend.workers = kShards;
        config.validate = &instance;
      }
      engine::RunReport run;
      sums.Add("engine.execute_s", Timed(tracer, "engine.execute", [&] {
                 run = engine::Execute(config);
               }));
      const bool ok = run.completed && run.error.empty() &&
                      (config.validate == nullptr || run.validation.ok);
      report->Check(ok, "probe engine " + name + ": " + run.error);
      if (rep == 0) engine_covers[name] = run.solution;
      if (in.job != EngineJob::kSharded) {
        report->Check(SameCover(run.solution, reference[name]),
                      "engine " + name + " differs from core");
      }

      engine::RunConfig w1 = config;
      w1.validate = nullptr;
      w1.backend.name = "sharded";
      w1.backend.workers = 1;
      if (in.job == EngineJob::kSharded)
        w1.source = engine::SourceSpec::InMemory(stream);
      engine::RunReport w1_run;
      w1_seconds += Timed(tracer, "engine.sharded.w1", [&] {
        w1_run = engine::Execute(w1);
      });
      w1_edges += double(w1_run.edges_delivered);
      report->Check(w1_run.completed && SameCover(w1_run.solution,
                                                  reference[name]),
                    "sharded W=1 " + name + " differs from core");
    }

    std::vector<std::vector<Edge>> slices(kShards);
    sums.Add("engine.sharded.partition_s",
             Timed(tracer, "engine.sharded.partition", [&] {
               for (auto& slice : slices)
                 slice.reserve(stream.size() / kShards + 1);
               for (const Edge& e : stream.edges)
                 slices[e.set % kShards].push_back(e);
             }));
    size_t largest = 0;
    for (const auto& slice : slices)
      largest = std::max(largest, slice.size());
    skew = double(largest) * kShards / edges;
    uint64_t words = 0;
    uint64_t bound = 0;
    for (const std::string& name : in.algorithms) {
      CoverSolution merged =
          ShardedSplit(name, stream, slices, in.algorithm_seed, tracer, &sums,
                       &words, &bound);
      ValidationResult verdict;
      sums.Add("critical.sharded.validate",
               Timed(tracer, "instance.validate",
                     [&] { verdict = ValidateSolution(instance, merged); }));
      report->Check(verdict.ok, "sharded split " + name + ": " +
                                    verdict.error);
      if (in.job == EngineJob::kSharded) {
        report->Check(SameCover(merged, engine_covers[name]),
                      "sharded split " + name + " differs from the engine");
      }
    }
    report->Check(words <= bound, "merge message over its bound");
    message_words = words;
    message_bound = bound;
    sums.EndRep();
  }
  execute_s = sums.Median("engine.execute_s");
  report->Set("engine.execute_s", execute_s, "s");
  report->Set("engine.sharded.w1_edges_per_s", w1_edges / w1_seconds,
              "edges/s");
  report->Set("engine.sharded.partition_s",
              sums.Median("engine.sharded.partition_s"), "s");
  report->Set("engine.sharded.shard_ingest_max_s",
              sums.Median("engine.sharded.shard_ingest_max_s"), "s");
  report->Set("engine.sharded.shard_ingest_sum_s",
              sums.Median("engine.sharded.shard_ingest_sum_s"), "s");
  report->Set("engine.sharded.shard_edges_skew", skew, "count");
  report->Set("comm.merge_s", sums.Median("comm.merge_s"), "s");
  report->Set("comm.message_words", double(message_words), "count");
  report->Set("comm.message_bound", double(message_bound), "count");

}

void ProbeRun::Server() {
  // server: codec and in-process apply directly, then the live server.
  const size_t batches = (stream.size() + kFrameEdges - 1) / kFrameEdges;
  auto batch = [&](size_t b) {
    return std::span<const Edge>(stream.edges)
        .subspan(b * kFrameEdges,
                 std::min(kFrameEdges, stream.size() - b * kFrameEdges));
  };
  std::vector<std::vector<uint8_t>> frames(batches);
  for (int rep = 0; rep < reps; ++rep) {
    encode.push_back(Timed(tracer, "server.encode", [&] {
      for (size_t b = 0; b < batches; ++b)
        server::EncodeIngest(1, b + 1, batch(b), &frames[b]);
    }));
    size_t decoded = 0;
    decode_frames.push_back(Timed(tracer, "server.decode", [&] {
      std::string error;
      for (size_t b = 0; b < batches; ++b) {
        std::optional<server::Message> message =
            server::DecodeMessage(frames[b], &error);
        if (message) decoded += message->edges.size();
      }
    }));
    report->Check(decoded == stream.size(), "frame decode lost edges");
    for (const std::string& name : in.algorithms) {
      engine::SessionConfig config;
      config.algorithm = name;
      config.options.seed = in.algorithm_seed;
      config.meta = meta;
      std::string error;
      auto session = engine::Session::Open(config, false, &error);
      report->Check(session != nullptr, "session open: " + error);
      if (session == nullptr) continue;
      bool applied = true;
      sums.Add("engine.session.apply_s",
               Timed(tracer, "engine.session.apply", [&] {
                 for (size_t b = 0; b < batches; ++b) {
                   applied = applied &&
                             session->Ingest(b + 1, batch(b), &error).status ==
                                 engine::IngestStatus::kApplied;
                 }
               }));
      const engine::RunReport& finished = session->Finalize();
      report->Check(applied && SameCover(finished.solution, reference[name]),
                    "session " + name + " differs from core: " + error);
    }
    sums.EndRep();
  }
  report->Set("server.encode_s", Median(encode), "s");
  report->Set("server.decode_s", Median(decode_frames), "s");
  report->Set("engine.session.apply_s", sums.Median("engine.session.apply_s"),
              "s");

  std::unique_ptr<server::SessionServer> own_server;
  std::string socket_path = in.socket_path;
  const std::string probe_state = options.work_dir + "/probe_state";
  if (socket_path.empty()) {
    socket_path = options.work_dir + "/probe.sock";
    std::error_code ignored;
    std::filesystem::create_directories(probe_state, ignored);
    std::string error;
    auto listener = server::ListenUnix(socket_path, &error);
    report->Check(listener != nullptr, "probe listen: " + error);
    if (listener != nullptr) {
      server::ServerOptions server_options;
      server_options.worker_threads = 2;
      server_options.state_dir = probe_state;
      own_server = std::make_unique<server::SessionServer>(
          server_options, std::move(listener));
      own_server->Start();
    }
  }
  server::ClientOptions client_options;
  client_options.backoff.max_retries = 1000;
  client_options.backoff.initial_delay_us = 10;
  client_options.backoff.max_delay_us = 2000;
  server::SessionClient unix_client(
      [socket_path](std::string* error) {
        return server::ConnectUnix(socket_path, error);
      },
      client_options);
  server::SessionClient shm_client(
      [socket_path](std::string* error) {
        return server::ConnectShm(socket_path, server::kDefaultShmRingBytes,
                                  error);
      },
      client_options);

  // Server-scope Stats round trips: transport + dispatch, no session.
  auto rtt_p50 = [&](server::SessionClient& client, const std::string& span) {
    server::Message reply;
    std::string error;
    report->Check(client.Stats(0, &reply, &error), "stats: " + error);
    std::vector<double> micros;
    for (int i = 0; i < options.scale.rtt_samples; ++i) {
      bool ok = false;
      micros.push_back(
          Timed(tracer, span, [&] { ok = client.Stats(0, &reply, &error); }) *
          1e6);
      if (!ok) report->Check(false, "stats: " + error);
    }
    return Median(micros);
  };
  report->Set("server.unix.rtt_p50_us", rtt_p50(unix_client, "server.unix.rtt"),
              "us");
  report->Set("server.shm.rtt_p50_us", rtt_p50(shm_client, "server.shm.rtt"),
              "us");

  // Whole sessions over unix, timing open, checkpoint and finalize ops.
  std::vector<double> open_us, checkpoint_us, finalize_us;
  uint64_t session_id = uint64_t(1) << 40;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& name : in.algorithms) {
      ++session_id;
      server::OpenBody open;
      open.algorithm = name;
      open.seed = in.algorithm_seed;
      open.meta = meta;
      open.checkpoint_every = in.checkpoint_every;
      server::Message reply;
      std::string error;
      Span session(tracer, "server.session");
      const auto session_start = Clock::now();
      bool ok = false;
      open_us.push_back(Timed(tracer, "server.open", [&] {
                          ok = unix_client.Open(session_id, open, &reply,
                                                &error);
                        }) *
                        1e6);
      uint64_t next = 1;
      if (ok) {
        Timed(tracer, "server.ingest", [&] {
          ok = unix_client.StreamWindow(session_id, stream.edges, kFrameEdges,
                                        batches, &next, kWindow, nullptr,
                                        &error) ==
               server::WindowOutcome::kCompleted;
        });
      }
      for (int c = 0; c < kCheckpointsPerSession && ok; ++c) {
        checkpoint_us.push_back(Timed(tracer, "server.checkpoint", [&] {
                                  ok = unix_client.Checkpoint(session_id,
                                                              &reply, &error);
                                }) *
                                1e6);
      }
      if (ok) {
        finalize_us.push_back(Timed(tracer, "server.finalize", [&] {
                                ok = unix_client.Finalize(session_id, batches,
                                                          &reply, &error);
                              }) *
                              1e6);
      }
      session_s.push_back(SecondsSince(session_start));
      ok = ok && reply.cover == std::vector<uint32_t>(
                                    reference[name].cover.begin(),
                                    reference[name].cover.end());
      server::Message closed;
      ok = unix_client.Close(session_id, &closed, &error) && ok;
      report->Check(ok, "probe session " + name + ": " + error);
    }
  }
  report->Set("server.open_p50_us", Median(open_us), "us");
  report->Set("server.checkpoint_p50_us", Median(checkpoint_us), "us");
  report->Set("server.finalize_p50_us", Median(finalize_us), "us");

  server::Message stats;
  std::string stats_error;
  report->Check(unix_client.Stats(0, &stats, &stats_error),
                "stats: " + stats_error);
  auto redials = [](const server::SessionClient& client) {
    return client.Reconnects() > 0 ? client.Reconnects() - 1 : 0;
  };
  report->Set("server.sheds", double(stats.sheds), "count");
  report->Set("server.redials",
              double(in.client_redials + redials(unix_client) +
                     redials(shm_client)),
              "count");
  report->Set("server.frames", double(stats.frames_received), "count");
  if (own_server != nullptr) own_server->DrainAndStop();
  std::error_code ignored;
  std::filesystem::remove_all(probe_state, ignored);

}

void ProbeRun::Ledgers() {
  // engine.overhead_s: the Execute span minus its blocking layer calls.
  // Decode runs on the prefetch thread beside ingest, so only the longer
  // of the two blocks a file job.
  double critical = 0.0;
  std::vector<std::pair<std::string, double>> parts;
  for (const std::string& name : in.algorithms) {
    const double ingest = report->Get("core." + name + ".ingest_s");
    const double finalize = report->Get("core." + name + ".finalize_s");
    if (in.job == EngineJob::kFile) {
      critical += std::max(decode_s, ingest) + finalize;
      parts.push_back({"max(stream.decode, core." + name + ".ingest)",
                       std::max(decode_s, ingest)});
      parts.push_back({"core." + name + ".finalize", finalize});
    } else if (in.job == EngineJob::kInMemory) {
      critical += ingest + finalize;
      parts.push_back({"core." + name + ".ingest", ingest});
      parts.push_back({"core." + name + ".finalize", finalize});
    }
  }
  if (in.job == EngineJob::kFile) {
    const double validate = report->Get("instance.validate_s");
    critical += validate;
    parts.push_back({"instance.validate", validate});
  } else if (in.job == EngineJob::kSharded) {
    const double per_pass =
        report->Get("engine.sharded.partition_s") * in.algorithms.size();
    parts = {{"engine.sharded.partition (scatter once, per job)", per_pass},
             {"slowest shard ingest+finalize",
              sums.Median("critical.sharded.shards")},
             {"engine.sharded.candidates",
              sums.Median("critical.sharded.candidates")},
             {"comm.merge", sums.Median("comm.merge_s")},
             {"instance.validate", sums.Median("critical.sharded.validate")}};
    for (const auto& part : parts) critical += part.second;
  }
  report->Set("engine.overhead_s", execute_s - critical, "s");

  std::printf("ledger %s: one round of engine jobs (%zu algorithms), "
              "median of %d probe repetitions\n",
              options.workload.c_str(), in.algorithms.size(), reps);
  LedgerLine("engine.execute (end to end)", execute_s, execute_s);
  for (const auto& [label, seconds] : parts)
    LedgerLine(label, seconds, execute_s);
  LedgerLine("= layer self-time sum", critical, execute_s);
  LedgerLine("unexplained", execute_s - critical, execute_s);

  // One session over unix against its direct layer calls: the rest is
  // transport, dispatch and queueing.
  const double session_wall = Median(session_s);
  const double per_alg = 1.0 / double(in.algorithms.size());
  const double checkpoints =
      (kCheckpointsPerSession +
       (in.checkpoint_every > 0 ? double(stream.size() / in.checkpoint_every)
                                : 0.0)) *
      report->Get("run.checkpoint_save_s") * per_alg;
  const std::vector<std::pair<std::string, double>> session_parts = {
      {"server.encode", Median(encode)},
      {"server.decode", Median(decode_frames)},
      {"engine.session.apply", report->Get("engine.session.apply_s") * per_alg},
      {"run.checkpoint_save", checkpoints},
      {"core finalize (mean over algorithms)",
       [&] {
         double sum = 0.0;
         for (const std::string& name : in.algorithms)
           sum += report->Get("core." + name + ".finalize_s");
         return sum * per_alg;
       }()}};
  double session_sum = 0.0;
  std::printf("ledger %s: one server session over unix (%zu edges), median\n",
              options.workload.c_str(), stream.size());
  LedgerLine("server.session (end to end)", session_wall, session_wall);
  for (const auto& [label, seconds] : session_parts) {
    LedgerLine(label, seconds, session_wall);
    session_sum += seconds;
  }
  LedgerLine("= layer self-time sum", session_sum, session_wall);
  LedgerLine("unexplained (transport, dispatch, queueing)",
             session_wall - session_sum, session_wall);
}

}  // namespace

void RunProbes(const ProbeInput& in, const Options& options, Tracer* tracer,
               Report* report) {
  ProbeRun run(in, options, tracer, report);
  run.StreamLayers();
  run.Core();
  run.Engine();
  run.Server();
  run.Ledgers();
}

}  // namespace perfbench
