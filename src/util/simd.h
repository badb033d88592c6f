#ifndef SETCOVER_UTIL_SIMD_H_
#define SETCOVER_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace setcover {
namespace simd {

/// Dispatch tiers, ordered by capability. Higher tiers are only ever
/// selected when the CPU supports them, so calling through the active
/// kernel table is always safe.
enum class Level : int {
  kScalar = 0,  // portable C++, the reference semantics
  kSse42 = 1,   // SSE4.2: hardware CRC-32C + POPCNT
  kAvx2 = 2,    // AVX2: gathers, 256-bit compares, vectorized scans
};

/// Human-readable tier name ("scalar", "sse4.2", "avx2").
const char* LevelName(Level level);

/// Parses a tier name as accepted by the SETCOVER_SIMD_LEVEL environment
/// variable: "scalar", "sse4.2" (or "sse42"), "avx2". Returns false on
/// anything else. Exposed for tests.
bool ParseLevel(const char* name, Level* out);

/// Highest tier this CPU can execute.
Level MaxSupportedLevel();

/// The tier in effect: MaxSupportedLevel() clamped down by the
/// SETCOVER_SIMD_LEVEL environment variable (read once, at first use).
/// Requesting a tier above what the CPU supports silently clamps to the
/// supported maximum, so a forced-tier test matrix can list every tier
/// and still run everywhere.
Level ActiveLevel();

/// The batch kernels every tier must implement. All kernels are *pure*
/// — identical outputs for identical inputs at every tier — which is
/// what lets the vectorized batch paths stay bit-identical to the
/// scalar reference (tests/simd_kernel_test.cc proves it per kernel,
/// tests/simd_dispatch_test.cc end-to-end).
///
/// Mask convention: `out_mask` packs result bit i at bit (i % 64) of
/// word i / 64 — the same layout as DynamicBitset — with every bit
/// beyond `count` in the last word zero. Callers size out_mask to
/// (count + 63) / 64 words.
struct Kernels {
  /// out_mask bit i = words[ids[i] / 64] >> (ids[i] % 64) & 1 — a
  /// batched DynamicBitset::Test over gathered indices.
  void (*gather_bits)(const uint64_t* words, const uint32_t* ids,
                      size_t count, uint64_t* out_mask);

  /// out_mask bit i = (values[ids[i]] == needle) — the batched
  /// first_set[u] == kNoSet screen.
  void (*gather_equal_u32)(const uint32_t* values, const uint32_t* ids,
                           size_t count, uint32_t needle,
                           uint64_t* out_mask);

  /// Total popcount of words[0, count).
  uint64_t (*popcount_words)(const uint64_t* words, size_t count);

  /// Σ popcount(a[i] & ~b[i]) — the greedy recount primitive (bits of
  /// `a` not yet covered by `b`).
  uint64_t (*popcount_andnot_words)(const uint64_t* a, const uint64_t* b,
                                    size_t count);

  /// Branch-free threshold scan: writes the indices i with
  /// values[i] < threshold to out_indices (ascending) and returns how
  /// many — the Bernoulli block-sampling primitive (coin < p).
  size_t (*less_than_indices_f64)(const double* values, size_t count,
                                  double threshold, uint32_t* out_indices);

  /// Owner screen over interleaved (set, element) pairs — pairs[2i] a
  /// set id, pairs[2i + 1] its element, the memory layout of an Edge
  /// array: copies, in order, the pairs whose set & mask == value to
  /// out_pairs and returns how many. out_pairs holds `count` pairs;
  /// pairs past the returned count are unspecified. The slice screen
  /// of a power-of-two W-way set partition.
  size_t (*select_masked_pairs)(const uint32_t* pairs, size_t count,
                                uint32_t mask, uint32_t value,
                                uint32_t* out_pairs);

  /// Stream-file v3 payload decode: reads LEB128 varints from
  /// bytes[0, size) two at a time, pair i's values landing in
  /// out_pairs[2i] and out_pairs[2i + 1] (the memory layout of an Edge
  /// array), for at most max_pairs pairs. Stops before the first pair
  /// it cannot take whole: one whose varints run past `size`, take more
  /// than 5 bytes, or hold a value of 2^32 or more. Returns the pairs
  /// taken and sets *consumed to the bytes they span. out_pairs holds
  /// max_pairs pairs; pairs past the returned count are unspecified.
  /// The scalar tier is util/varint.h's GetVarint loop; SSE4.2 and AVX2
  /// decode Masked-VByte style (Plaisance, Kurz & Lemire,
  /// arXiv:1503.07387), four short varints per pshufb.
  size_t (*decode_varint_pairs)(const uint8_t* bytes, size_t size,
                                size_t max_pairs, uint32_t* out_pairs,
                                size_t* consumed);

  /// CRC-32C (Castagnoli) with the Crc32c seed contract; the scalar
  /// tier is the table-driven portable implementation, SSE4.2+ the
  /// crc32 instruction. util/crc32.cc routes through this.
  uint32_t (*crc32c)(const void* data, size_t bytes, uint32_t seed);
};

/// The kernel table for the active tier.
const Kernels& Active();

/// The kernel table for a specific tier, clamped to MaxSupportedLevel()
/// (so the returned table is always executable on this CPU). The
/// differential tests drive every tier through this.
const Kernels& ForLevel(Level level);

/// Overrides the active tier in-process (clamped to the supported
/// maximum) and returns the previous tier, so tests can run the same
/// code under every tier without re-execing. Not thread-safe: call only
/// from single-threaded test setup.
Level ForceLevelForTest(Level level);

}  // namespace simd
}  // namespace setcover

#endif  // SETCOVER_UTIL_SIMD_H_
