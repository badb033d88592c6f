#ifndef SETCOVER_UTIL_RNG_H_
#define SETCOVER_UTIL_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace setcover {

/// Deterministic pseudo-random number generator.
///
/// The generator is xoshiro256** seeded through SplitMix64, which gives
/// high-quality streams from arbitrary 64-bit seeds. All randomized
/// algorithms in this library draw exclusively from `Rng`, so a fixed seed
/// reproduces a run bit-for-bit (a property the tests rely on).
class Rng {
 public:
  /// Creates a generator from a 64-bit seed. Equal seeds yield equal
  /// streams; distinct seeds yield (for all practical purposes)
  /// independent streams.
  explicit Rng(uint64_t seed);

  /// Returns the next 64 uniformly random bits.
  uint64_t Next64();

  /// Returns a uniformly random integer in `[0, bound)`. `bound` must be
  /// positive. Uses rejection sampling, so the result is exactly uniform.
  uint64_t UniformInt(uint64_t bound);

  /// Returns a uniformly random integer in `[lo, hi]` (inclusive).
  /// Requires `lo <= hi`.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Returns a uniformly random double in `[0, 1)` with 53 random bits.
  double UniformDouble();

  /// Returns true with probability `p` (clamped to `[0, 1]`). This is the
  /// `Coin(p)` primitive used throughout the paper's algorithm listings.
  bool Bernoulli(double p);

  /// Returns a uniformly random `k`-subset of `{0, ..., universe - 1}`,
  /// in sorted order. Requires `k <= universe`. Runs in O(k) expected
  /// time for small k (Floyd's algorithm) plus a sort.
  std::vector<uint32_t> RandomSubset(uint32_t universe, uint32_t k);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Derives a new generator whose stream is independent of this one for
  /// any practical purpose. Used to hand child components their own
  /// deterministic randomness.
  Rng Fork();

  /// Raw generator state, for algorithm-state serialization (the
  /// communication experiments forward the RNG along with the rest of
  /// the state so a successor party continues the exact coin sequence).
  std::array<uint64_t, 4> GetState() const;
  void SetState(const std::array<uint64_t, 4>& state);

 private:
  uint64_t state_[4];
};

}  // namespace setcover

#endif  // SETCOVER_UTIL_RNG_H_
