#include "util/rng.h"

#include <algorithm>

namespace setcover {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (uint64_t& w : state_) w = SplitMix64(s);
  // Avoid the all-zero state (xoshiro's single fixed point).
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::Next64() {
  // xoshiro256** by Blackman & Vigna.
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  // Lemire-style rejection to remove modulo bias.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = Next64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

std::vector<uint32_t> Rng::RandomSubset(uint32_t universe, uint32_t k) {
  std::vector<uint32_t> result;
  result.reserve(k);
  if (k == 0) return result;
  if (2 * static_cast<uint64_t>(k) >= universe) {
    // Dense case: reservoir-free selection sampling.
    result.reserve(k);
    uint32_t remaining = k;
    for (uint32_t v = 0; v < universe && remaining > 0; ++v) {
      if (UniformInt(universe - v) < remaining) {
        result.push_back(v);
        --remaining;
      }
    }
    return result;
  }
  // Sparse case: Floyd's algorithm, then sort.
  std::vector<uint32_t> chosen;
  chosen.reserve(k);
  for (uint32_t j = universe - k; j < universe; ++j) {
    uint32_t v = static_cast<uint32_t>(UniformInt(j + 1));
    if (std::find(chosen.begin(), chosen.end(), v) != chosen.end()) v = j;
    chosen.push_back(v);
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

Rng Rng::Fork() { return Rng(Next64() ^ 0xa5a5a5a5deadbeefULL); }

std::array<uint64_t, 4> Rng::GetState() const {
  return {state_[0], state_[1], state_[2], state_[3]};
}

void Rng::SetState(const std::array<uint64_t, 4>& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state[i];
}

}  // namespace setcover
