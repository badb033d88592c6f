#ifndef SETCOVER_UTIL_SAMPLING_H_
#define SETCOVER_UTIL_SAMPLING_H_

#include <cmath>
#include <cstdint>

#include "util/rng.h"

namespace setcover {

/// Failures before the first success in i.i.d. Bernoulli(p) trials, as
/// a double: ⌊log1p(−U) / log_q⌋ for one U = rng.UniformDouble(), where
/// log_q = log1p(−p). P(result >= k) = (1 − p)^k, so the result is
/// Geometric(p) on {0, 1, ...}. It may be huge, +inf or NaN (p at or
/// near 0): callers compare it with their bound before converting it
/// to an integer, and treat a failed compare as "no success in range".
inline double GeometricFailures(Rng& rng, double log_q) {
  return std::floor(std::log1p(-rng.UniformDouble()) / log_q);
}

/// Geometric-skip Bernoulli sampling: invokes `fn(i)`, in ascending
/// order, for a random subset of [0, count) that holds each index
/// independently with probability p — the same distribution as one
/// `rng.Bernoulli(p)` per index, drawn from a different coin stream.
/// Each hit costs one coin: the scan jumps straight over the misses
/// in front of it (GeometricFailures), and one more coin finds the gap
/// that runs past `count`. So the set-sampling steps of the paper
/// (Algorithm 2's D_0, Algorithm 1's Sol and tracking samples Q̃) cost
/// O(expected hits), not O(m).
///
/// p <= 0 and NaN give no hits and p >= 1 gives every index, without
/// touching the generator.
template <typename Fn>
void ForEachBernoulliHit(Rng& rng, uint32_t count, double p, Fn&& fn) {
  if (count == 0 || !(p > 0.0)) return;
  if (p >= 1.0) {
    for (uint32_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const double log_q = std::log1p(-p);
  for (uint32_t next = 0;;) {
    const double gap = GeometricFailures(rng, log_q);
    // Compared as a double, so a huge, infinite or NaN gap ends the
    // scan instead of overflowing the index.
    if (!(gap < double(count - next))) return;
    const uint32_t hit = next + uint32_t(gap);
    fn(hit);
    next = hit + 1;  // <= count, as hit < count
  }
}

}  // namespace setcover

#endif  // SETCOVER_UTIL_SAMPLING_H_
