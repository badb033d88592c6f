// File-based streaming pipeline: generate an instance, persist an
// ordered edge stream to disk in the compressed v3 stream-file format,
// and replay it through two algorithms without ever materializing it in
// memory again — the deployment shape of a real one-pass system, where
// the stream source is a log or a message queue rather than a vector.
// Replay goes through engine::Execute with a file source and the one
// read path: the v3 file read from a memory mapping, decoded by the
// background prefetch decoder (pass StreamReadOptions{.prefetch =
// false} to SourceSpec::File to decode on the calling thread).
//
//   $ ./build/examples/file_stream [work_dir]

#include <cstdio>
#include <string>

#include "core/kk_algorithm.h"
#include "core/random_order.h"
#include "engine/engine.h"
#include "instance/generators.h"
#include "instance/validator.h"
#include "stream/orderings.h"
#include "stream/stream_file.h"
#include "util/rng.h"

static long FileSizeForDisplay(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return size;
}

int main(int argc, char** argv) {
  using namespace setcover;
  std::string dir = argc > 1 ? argv[1] : "/tmp";
  std::string path = dir + "/setcover_example_stream.bin";

  // Produce the stream once...
  Rng rng(123);
  PlantedCoverParams params;
  params.num_elements = 512;
  params.num_sets = 32768;
  params.planted_cover_size = 4;
  SetCoverInstance instance = GeneratePlantedCover(params, rng);
  EdgeStream stream = RandomOrderStream(instance, rng);
  std::string error;
  if (!WriteStreamFile(stream, path, StreamFormat::kV3, &error)) {
    std::printf("cannot write %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu edges, %.1f MB as v3 vs %.1f MB raw)\n",
              path.c_str(), stream.size(),
              double(FileSizeForDisplay(path)) / 1e6,
              double(stream.size()) * 8 / 1e6);

  // ...and replay it through algorithms that never see the whole thing.
  struct Row {
    const char* label;
    StreamingSetCoverAlgorithm* algorithm;
  };
  KkAlgorithm kk(7);
  RandomOrderAlgorithm alg1(7);
  for (Row row : {Row{"kk", &kk}, Row{"random-order", &alg1}}) {
    engine::RunConfig config;
    config.algorithm_instance = row.algorithm;
    config.source = engine::SourceSpec::File(path);
    engine::RunReport report = engine::Execute(config);
    if (!report.completed) {
      std::printf("replay failed: %s\n", report.error.c_str());
      return 1;
    }
    ValidationResult check = ValidateSolution(instance, report.solution);
    std::printf("%-14s cover=%4zu valid=%s peak_words=%zu\n", row.label,
                report.solution.cover.size(), check.ok ? "yes" : "NO",
                row.algorithm->Meter().PeakWords());
  }
  std::remove(path.c_str());
  return 0;
}
