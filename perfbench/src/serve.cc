// The `serve` workload: an in-process SessionServer (2 worker threads,
// durable sessions in a state dir, periodic checkpoints) on a unix
// socket, driven closed-loop by 2 client threads — one over the framed
// unix transport, one over the shm ring — each keeping K = 8 ingest
// batches of 512 edges in flight. Sessions run back to back, cycling
// kk / adversarial-level / random-order over small instances; every
// cover must be bit-identical to an engine::Execute oracle.

#include <atomic>
#include <filesystem>
#include <thread>

#include "core/registry.h"
#include "engine/engine.h"
#include "offline/greedy.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace setcover;

constexpr int kClients = 2;
constexpr size_t kBatchEdges = 512;
constexpr size_t kWindow = 8;
// Latency percentiles are taken per slice of this length.
constexpr double kSliceSeconds = 1.0;

std::vector<uint32_t> ToU32(const std::vector<SetId>& ids) {
  return std::vector<uint32_t>(ids.begin(), ids.end());
}

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Options& options) : options_(options) {
    socket_path_ = options.work_dir + "/serve.sock";
    state_dir_ = options.work_dir + "/serve_state";
  }

  ~ServeWorkload() override {
    if (server_ != nullptr) server_->DrainAndStop();
    server_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(state_dir_, ignored);
  }

  void Setup(Tracer* tracer, Report* report) override {
    Span setup(tracer, "setup");
    const uint32_t count = options_.scale.serve_instances;
    for (uint32_t i = 0; i < count; ++i) {
      {
        Span span(tracer, "instance.generate");
        Rng rng(DeriveSeed(options_.seed, 100 + i));
        instances_.push_back(
            GeneratePlantedCover(options_.scale.serve, rng));
      }
      {
        Span span(tracer, "stream.order");
        Rng rng(DeriveSeed(options_.seed, 200 + i));
        streams_.push_back(
            OrderedStream(instances_.back(), StreamOrder::kRandom, rng));
      }
      {
        Span span(tracer, "offline.greedy");
        greedy_sizes_.push_back(GreedyCover(instances_.back()).cover.size());
      }
    }
    {
      Span span(tracer, "engine.oracle");
      for (uint32_t i = 0; i < count; ++i) {
        for (const std::string& name : AllAlgorithms()) {
          engine::RunConfig config;
          config.algorithm = name;
          config.options.seed = DeriveSeed(options_.seed, 3);
          config.source = engine::SourceSpec::InMemory(streams_[i]);
          config.backend.name = "inprocess";
          engine::RunReport oracle = engine::Execute(config);
          report->Check(oracle.completed && oracle.error.empty(),
                        "oracle " + name + ": " + oracle.error);
          oracles_.push_back(std::move(oracle));
        }
      }
    }
    {
      Span span(tracer, "server.start");
      std::error_code ignored;
      std::filesystem::remove_all(state_dir_, ignored);
      std::filesystem::create_directories(state_dir_, ignored);
      std::string error;
      std::unique_ptr<server::Listener> listener =
          server::ListenUnix(socket_path_, &error);
      report->Check(listener != nullptr, "listen " + socket_path_ + ": " +
                                             error);
      if (listener == nullptr) return;
      server::ServerOptions server_options;
      server_options.worker_threads = 2;
      server_options.state_dir = state_dir_;
      server_ = std::make_unique<server::SessionServer>(server_options,
                                                        std::move(listener));
      server_->Start();
    }
  }

  Measurement Measure(double seconds, Tracer* tracer,
                      Report* report) override {
    Measurement out;
    if (server_ == nullptr) return out;
    out.SliceInto(seconds, kSliceSeconds);
    out.ack_whole_us = true;
    // Each client fills its own Measurement; they merge after the join.
    std::vector<Measurement> per_client(kClients);
    for (Measurement& mine : per_client) mine.SliceInto(seconds, kSliceSeconds);
    // Edges of the sessions that ended in each slice, per client.
    std::vector<std::vector<double>> slice_edges(
        kClients, std::vector<double>(out.slices, 0.0));
    const double cpu_start = ProcessCpuSeconds();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));

    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        Measurement& mine = per_client[t];
        server::SessionClient client(Dialer(t), ClientOptionsFor(t));
        while (Clock::now() < deadline) {
          const uint64_t k = next_session_.fetch_add(1);
          const size_t plan = size_t(k % oracles_.size());
          const EdgeStream& stream =
              streams_[plan / AllAlgorithms().size()];

          server::RunSessionOptions run;
          run.batch_edges = kBatchEdges;
          run.window = kWindow;
          run.ingest_latency = [&mine, start](uint64_t micros) {
            mine.ack_us.Add(SecondsSince(start), double(micros));
          };
          server::Message reply;
          std::string error;
          const auto session_start = Clock::now();
          bool ok;
          {
            Span span(tracer, "client.session");
            ok = server::RunSessionToCompletion(&client, k + 1,
                                                OpenFor(plan), stream.edges,
                                                run, &reply, &error);
          }
          const double at = SecondsSince(start);
          mine.session_ms.Add(at, SecondsSince(session_start) * 1e3);
          if (ok) ok = MatchesOracle(plan, &reply, &error);
          if (ok) {
            mine.edges += stream.edges.size();
            const size_t slice = size_t(at / out.slice_s);
            if (slice < out.slices)
              slice_edges[t][slice] += double(stream.edges.size());
          }
          server::Message closed;
          {
            Span span(tracer, "client.close");
            ok = client.Close(k + 1, &closed, &error) && ok;
          }
          report->Check(ok, "session " + std::to_string(k + 1) + ": " +
                                error);
        }
        redials_.fetch_add(client.Reconnects() > 0 ? client.Reconnects() - 1
                                                   : 0);
      });
    }
    for (std::thread& thread : threads) thread.join();
    out.wall_s = SecondsSince(start);
    out.cpu_s = ProcessCpuSeconds() - cpu_start;

    for (const Measurement& mine : per_client) {
      out.edges += mine.edges;
      out.session_ms.Append(mine.session_ms);
      out.ack_us.Append(mine.ack_us);
    }
    for (size_t slice = 0; slice < out.slices; ++slice) {
      double edges = 0.0;
      for (int t = 0; t < kClients; ++t) edges += slice_edges[t][slice];
      out.round_rates.push_back(edges / out.slice_s);
    }
    return out;
  }

  // Taken from the oracles, which every served cover must match, so the
  // counts do not depend on how many sessions fit in the run.
  void ReportCounts(Report* report) const override {
    uint64_t words = 0;
    uint64_t cover = 0;
    uint64_t greedy = 0;
    for (size_t plan = 0; plan < oracles_.size(); ++plan) {
      words += oracles_[plan].peak_words;
      cover += oracles_[plan].solution.cover.size();
      greedy += greedy_sizes_[plan / AllAlgorithms().size()];
    }
    report->Set("state_words", double(words), "words");
    report->Set("cover_ratio", double(cover) / double(greedy), "ratio");
  }

  ProbeInput Probe() const override {
    ProbeInput input;
    input.instance = &instances_[0];
    input.stream = &streams_[0];
    input.params = options_.scale.serve;
    input.instance_seed = DeriveSeed(options_.seed, 100);
    input.order_seed = DeriveSeed(options_.seed, 200);
    input.order = StreamOrder::kRandom;
    input.algorithms = AllAlgorithms();
    input.algorithm_seed = DeriveSeed(options_.seed, 3);
    input.job = EngineJob::kInMemory;
    input.socket_path = server_ != nullptr ? socket_path_ : "";
    input.checkpoint_every = options_.scale.serve_checkpoint_every;
    input.client_redials = redials_.load();
    return input;
  }

 private:
  server::SessionClient::Dialer Dialer(int client) const {
    const std::string path = socket_path_;
    if (client == 0) {
      return [path](std::string* error) {
        return server::ConnectUnix(path, error);
      };
    }
    return [path](std::string* error) {
      return server::ConnectShm(path, server::kDefaultShmRingBytes, error);
    };
  }

  static server::ClientOptions ClientOptionsFor(int client) {
    server::ClientOptions options;
    options.backoff.max_retries = 1000;
    options.backoff.initial_delay_us = 10;
    options.backoff.max_delay_us = 2000;
    options.backoff.jitter = 0.5;
    options.backoff.jitter_seed = uint64_t(client) + 1;
    return options;
  }

  server::OpenBody OpenFor(size_t plan) const {
    server::OpenBody open;
    open.algorithm = AllAlgorithms()[plan % AllAlgorithms().size()];
    open.seed = DeriveSeed(options_.seed, 3);
    open.meta = streams_[plan / AllAlgorithms().size()].meta;
    open.checkpoint_every = options_.scale.serve_checkpoint_every;
    return open;
  }

  bool MatchesOracle(size_t plan, server::Message* reply,
                     std::string* error) {
    if (options_.inject_wrong_cover && !injected_.exchange(true) &&
        !reply->cover.empty()) {
      reply->cover.pop_back();
    }
    const engine::RunReport& oracle = oracles_[plan];
    const bool ok = reply->cover == ToU32(oracle.solution.cover) &&
                    reply->certificate == ToU32(oracle.solution.certificate) &&
                    reply->peak_words == oracle.peak_words &&
                    !reply->degraded;
    if (!ok) *error = "cover differs from the engine oracle";
    return ok;
  }

  Options options_;
  std::string socket_path_;
  std::string state_dir_;
  std::vector<SetCoverInstance> instances_;
  std::vector<EdgeStream> streams_;
  std::vector<size_t> greedy_sizes_;
  // One oracle per plan: plan = instance * |algorithms| + algorithm.
  std::vector<engine::RunReport> oracles_;
  std::unique_ptr<server::SessionServer> server_;
  std::atomic<uint64_t> next_session_{0};
  std::atomic<uint64_t> redials_{0};
  std::atomic<bool> injected_{false};
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(const Options& options) {
  return std::make_unique<ServeWorkload>(options);
}

}  // namespace perfbench
