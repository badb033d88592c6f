#ifndef SETCOVER_ENGINE_BACKENDS_COMMON_H_
#define SETCOVER_ENGINE_BACKENDS_COMMON_H_

#include <chrono>

#include "engine/engine.h"

namespace setcover {
namespace engine {
namespace internal {

/// Small helpers shared by Execute(), the Drive loop, and the shard
/// machinery. Internal to src/engine/ — not API.

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

inline uint64_t CountUncovered(const CoverSolution& solution) {
  uint64_t uncovered = 0;
  for (SetId s : solution.certificate)
    if (s == kNoSet) ++uncovered;
  return uncovered;
}

/// Records the algorithm's space accounting into the report — called on
/// every exit path so even killed or failed runs report their meter.
inline void StampMeter(RunReport* report,
                       const StreamingSetCoverAlgorithm& algorithm) {
  report->peak_words = algorithm.Meter().PeakWords();
  report->current_words = algorithm.Meter().CurrentWords();
  report->meter_breakdown = algorithm.Meter().BreakdownString();
}

/// Finalize + bookkeeping shared by every completing path.
inline void FinalizeRun(RunReport* report,
                        StreamingSetCoverAlgorithm& algorithm) {
  const auto start = Clock::now();
  report->solution = algorithm.Finalize();
  report->stages.finalize_seconds = Seconds(start);
  report->uncovered_elements = CountUncovered(report->solution);
  report->completed = true;
  StampMeter(report, algorithm);
}

}  // namespace internal
}  // namespace engine
}  // namespace setcover

#endif  // SETCOVER_ENGINE_BACKENDS_COMMON_H_
