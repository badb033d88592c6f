#include "util/simd.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "util/crc32.h"
#include "util/varint.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SETCOVER_SIMD_X86 1
#endif

namespace setcover {
namespace simd {
namespace {

// ---------------------------------------------------------------------
// Reference bodies. Marked always_inline so each tier's wrapper embeds
// them under its own target attribute: every tier compiles the exact
// same source, which keeps the semantics of the non-intrinsic kernels
// identical by construction.

__attribute__((always_inline)) inline void GatherBitsBody(
    const uint64_t* words, const uint32_t* ids, size_t count,
    uint64_t* out_mask) {
  uint64_t cur = 0;
  size_t i = 0;
  for (; i < count; ++i) {
    const uint32_t id = ids[i];
    cur |= ((words[id >> 6] >> (id & 63)) & uint64_t{1}) << (i & 63);
    if ((i & 63) == 63) {
      out_mask[i >> 6] = cur;
      cur = 0;
    }
  }
  if (count & 63) out_mask[count >> 6] = cur;
}

__attribute__((always_inline)) inline void GatherEqualU32Body(
    const uint32_t* values, const uint32_t* ids, size_t count,
    uint32_t needle, uint64_t* out_mask) {
  uint64_t cur = 0;
  size_t i = 0;
  for (; i < count; ++i) {
    cur |= uint64_t{values[ids[i]] == needle ? 1u : 0u} << (i & 63);
    if ((i & 63) == 63) {
      out_mask[i >> 6] = cur;
      cur = 0;
    }
  }
  if (count & 63) out_mask[count >> 6] = cur;
}

__attribute__((always_inline)) inline size_t SelectMaskedPairsBody(
    const uint32_t* pairs, size_t count, uint32_t mask, uint32_t value,
    uint32_t* out_pairs) {
  size_t found = 0;
  for (size_t i = 0; i < count; ++i) {
    // Branch-free emit: every pair is written at the cursor, and only a
    // hit advances it.
    std::memcpy(out_pairs + 2 * found, pairs + 2 * i, 2 * sizeof(uint32_t));
    found += (pairs[2 * i] & mask) == value ? 1 : 0;
  }
  return found;
}

/// One varint the payload decoder may take: at most 5 bytes, a value
/// below 2^32, wholly inside [*cursor, end).
__attribute__((always_inline)) inline bool TakeVarintU32(
    const uint8_t** cursor, const uint8_t* end, uint32_t* value) {
  const uint8_t* start = *cursor;
  uint64_t wide = 0;
  if (!GetVarint(cursor, end, &wide) || *cursor - start > 5 ||
      wide > 0xFFFFFFFFu) {
    return false;
  }
  *value = uint32_t(wide);
  return true;
}

__attribute__((always_inline)) inline size_t DecodeVarintPairsBody(
    const uint8_t* bytes, size_t size, size_t max_pairs, uint32_t* out_pairs,
    size_t* consumed) {
  const uint8_t* cursor = bytes;
  const uint8_t* const end = bytes + size;
  size_t taken = 0;
  for (; taken < max_pairs; ++taken) {
    const uint8_t* next = cursor;
    if (!TakeVarintU32(&next, end, out_pairs + 2 * taken) ||
        !TakeVarintU32(&next, end, out_pairs + 2 * taken + 1)) {
      break;
    }
    cursor = next;
  }
  *consumed = size_t(cursor - bytes);
  return taken;
}

// ---------------------------------------------------------------------
// Scalar tier.

void GatherBitsScalar(const uint64_t* words, const uint32_t* ids,
                      size_t count, uint64_t* out_mask) {
  GatherBitsBody(words, ids, count, out_mask);
}

void GatherEqualU32Scalar(const uint32_t* values, const uint32_t* ids,
                          size_t count, uint32_t needle, uint64_t* out_mask) {
  GatherEqualU32Body(values, ids, count, needle, out_mask);
}

size_t SelectMaskedPairsScalar(const uint32_t* pairs, size_t count,
                               uint32_t mask, uint32_t value,
                               uint32_t* out_pairs) {
  return SelectMaskedPairsBody(pairs, count, mask, value, out_pairs);
}

size_t DecodeVarintPairsScalar(const uint8_t* bytes, size_t size,
                               size_t max_pairs, uint32_t* out_pairs,
                               size_t* consumed) {
  return DecodeVarintPairsBody(bytes, size, max_pairs, out_pairs, consumed);
}

constexpr Kernels kScalarKernels = {
    GatherBitsScalar, GatherEqualU32Scalar, SelectMaskedPairsScalar,
    DecodeVarintPairsScalar, Crc32cPortable,
};

#ifdef SETCOVER_SIMD_X86

// ---------------------------------------------------------------------
// SSE4.2 tier: the hardware CRC-32C instruction (moved here from
// util/crc32.cc, which now routes through the kernel table) and the
// pshufb varint decode. No 256-bit gathers exist at this tier, so the
// gather/scan kernels are the reference bodies compiled with the tier's
// ISA enabled.

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t bytes,
                                                       uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = seed ^ 0xFFFFFFFFu;
  while (bytes >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    bytes -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (bytes-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return crc32 ^ 0xFFFFFFFFu;
}

__attribute__((target("sse4.2,popcnt"))) void GatherBitsSse42(
    const uint64_t* words, const uint32_t* ids, size_t count,
    uint64_t* out_mask) {
  GatherBitsBody(words, ids, count, out_mask);
}

__attribute__((target("sse4.2,popcnt"))) void GatherEqualU32Sse42(
    const uint32_t* values, const uint32_t* ids, size_t count,
    uint32_t needle, uint64_t* out_mask) {
  GatherEqualU32Body(values, ids, count, needle, out_mask);
}

__attribute__((target("sse4.2,popcnt"))) size_t SelectMaskedPairsSse42(
    const uint32_t* pairs, size_t count, uint32_t mask, uint32_t value,
    uint32_t* out_pairs) {
  return SelectMaskedPairsBody(pairs, count, mask, value, out_pairs);
}

// ---------------------------------------------------------------------
// Stream-file v3 payload decode, Masked-VByte style (Plaisance, Kurz &
// Lemire, "Vectorized VByte Decoding", arXiv:1503.07387). One movemask
// reads the continuation bits of a 16-byte window; when its first four
// varints take at most three bytes each, one pshufb spreads them into
// four u32 lanes — two (delta, element) pairs per step. Any other
// window takes one pair through the scalar body, and so do the bytes
// after the last whole window, so every tier takes exactly the pairs
// the scalar tier takes. A step's cursor advance waits on its own
// load, movemask and table reads, so the payload is split into
// independent chains whose steps interleave.
// Compiled at SSE4.2 (which implies SSSE3's pshufb) and inlined into
// both the SSE4.2 and the AVX2 tier.

/// For each 12-bit continuation mask (bit j = the high bit of byte j):
/// `index` is 0 unless the window's first four varints each end within
/// three bytes inside its first 12, else the number of the `shuffle`
/// that moves varint k's bytes to lane k (unused lane bytes zeroed), and
/// `bytes[number]` is how many bytes the four span. 3^4 length patterns
/// give 81 shuffles: 4 KiB of index plus 1.3 KiB of shuffles.
struct QuadTable {
  alignas(16) uint8_t shuffle[82][16];
  uint8_t index[4096];
  uint8_t bytes[82];
};

constexpr QuadTable MakeQuadTable() {
  QuadTable table{};
  for (unsigned mask = 0; mask < 4096; ++mask) {
    unsigned lengths[4] = {};
    unsigned start = 0;
    bool quad = true;
    for (unsigned k = 0; quad && k < 4; ++k) {
      unsigned length = 1;
      while (start + length <= 12 && (mask >> (start + length - 1) & 1)) {
        ++length;
      }
      quad = length <= 3 && start + length <= 12;
      lengths[k] = length;
      start += length;
    }
    if (!quad) continue;
    const unsigned number = 1 + (lengths[0] - 1) + 3 * (lengths[1] - 1) +
                            9 * (lengths[2] - 1) + 27 * (lengths[3] - 1);
    table.index[mask] = uint8_t(number);
    table.bytes[number] = uint8_t(start);
    unsigned from = 0;
    for (unsigned k = 0; k < 4; ++k) {
      for (unsigned j = 0; j < 4; ++j) {
        table.shuffle[number][4 * k + j] =
            j < lengths[k] ? uint8_t(from + j) : uint8_t{0x80};
      }
      from += lengths[k];
    }
  }
  return table;
}

constexpr QuadTable kQuad = MakeQuadTable();

/// One decode chain: pairs [pair, end) starting at byte `pos`.
struct VarintChain {
  size_t pos = 0;
  size_t pair = 0;
  size_t end = 0;
};

/// The payload is cut into this many chains when each gets at least
/// kMinChainPairs pairs.
constexpr size_t kChains = 4;
constexpr size_t kMinChainPairs = 256;

/// One scalar pair, for a window that holds no quad: the bytes it
/// spans, 0 when it cannot be taken. Out of line and free of chain
/// state, so the unrolled chains keep their cursors in registers.
__attribute__((noinline)) size_t TakeOnePair(const uint8_t* bytes, size_t size,
                                             uint32_t* out_pair) {
  size_t used = 0;
  return DecodeVarintPairsBody(bytes, size, 1, out_pair, &used) == 1 ? used
                                                                     : 0;
}

/// Advances `chain` by one step — a quad when the window at its cursor
/// holds one, else one scalar pair. Needs a whole window and two pairs
/// left. False, with the chain unmoved, when the next pair cannot be
/// taken.
__attribute__((target("sse4.2,popcnt"), always_inline)) inline bool
StepChain(const uint8_t* bytes, size_t size, uint32_t* out_pairs,
          VarintChain& chain) {
  const __m128i window =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + chain.pos));
  const unsigned number =
      kQuad.index[unsigned(_mm_movemask_epi8(window)) & 0xFFF];
  if (__builtin_expect(number == 0, 0)) {
    const size_t used = TakeOnePair(bytes + chain.pos, size - chain.pos,
                                    out_pairs + 2 * chain.pair);
    chain.pos += used;
    chain.pair += used != 0;
    return used != 0;
  }
  // Lane k holds varint k's bytes b0 b1 b2 (zero past its length), and
  // its value is b0 + b1·2^7 + b2·2^14 once the continuation bits go:
  // maddubs forms b0 + b1·2^7 and b2 per 16 bits, madd joins them.
  const __m128i spread = _mm_and_si128(
      _mm_shuffle_epi8(window, _mm_load_si128(reinterpret_cast<const __m128i*>(
                                   kQuad.shuffle[number]))),
      _mm_set1_epi8(0x7F));
  const __m128i values =
      _mm_madd_epi16(_mm_maddubs_epi16(_mm_set1_epi16(int16_t(0x8001)), spread),
                     _mm_set1_epi32(0x40000001));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out_pairs + 2 * chain.pair),
                   values);
  chain.pos += kQuad.bytes[number];
  chain.pair += 2;
  return true;
}

/// Runs `chain` to its end: steps while a whole window and two pairs
/// remain, then the scalar body. False, with the chain at the pair it
/// could not take, when it stops short.
__attribute__((target("sse4.2,popcnt"), always_inline)) inline bool
FinishChain(const uint8_t* bytes, size_t size, uint32_t* out_pairs,
            VarintChain& chain) {
  while (chain.pos + 16 <= size && chain.pair + 2 <= chain.end) {
    if (!StepChain(bytes, size, out_pairs, chain)) return false;
  }
  size_t used = 0;
  chain.pair += DecodeVarintPairsBody(bytes + chain.pos, size - chain.pos,
                                      chain.end - chain.pair,
                                      out_pairs + 2 * chain.pair, &used);
  chain.pos += used;
  return chain.pair == chain.end;
}

/// Cuts pairs [0, max_pairs) into kChains chains of equal pair counts.
/// Chain c starts after the payload's (2 · first pair)-th terminator (a
/// byte below 0x80 ends each varint), counted a window at a time. False,
/// with `chains` untouched, when the whole windows hold too few
/// terminators: one chain then takes everything, and stops where the
/// damage is.
__attribute__((target("sse4.2,popcnt"), always_inline)) inline bool
SplitChains(const uint8_t* bytes, size_t size, size_t max_pairs,
            VarintChain* chains) {
  size_t starts[kChains] = {};
  size_t pos = 0;
  size_t seen = 0;  // terminators before pos
  for (size_t c = 1; c < kChains; ++c) {
    const size_t target = 2 * (max_pairs * c / kChains);
    for (;;) {
      if (pos + 16 > size) return false;
      const unsigned ends =
          ~unsigned(_mm_movemask_epi8(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(bytes + pos)))) &
          0xFFFF;
      const size_t count = size_t(std::popcount(ends));
      if (seen + count < target) {
        seen += count;
        pos += 16;
        continue;
      }
      unsigned rest = ends;
      for (size_t drop = seen + 1; drop < target; ++drop) rest &= rest - 1;
      pos += size_t(std::countr_zero(rest)) + 1;
      seen = target;
      break;
    }
    starts[c] = pos;
  }
  for (size_t c = 0; c < kChains; ++c) {
    chains[c] = {starts[c], max_pairs * c / kChains,
                 max_pairs * (c + 1) / kChains};
  }
  return true;
}

/// Steps that keep `chain` inside its pairs and whole windows: a step
/// takes at most two pairs and 12 bytes.
inline size_t SafeSteps(const VarintChain& chain, size_t size) {
  if (chain.pos + 16 > size) return 0;
  return std::min((chain.end - chain.pair) / 2,
                  (size - 16 - chain.pos) / 12 + 1);
}

__attribute__((target("sse4.2,popcnt"), always_inline)) inline size_t
DecodeVarintPairsChains(const uint8_t* bytes, size_t size, size_t max_pairs,
                        uint32_t* out_pairs, size_t* consumed) {
  VarintChain chains[kChains];
  size_t count = 1;
  chains[0].end = max_pairs;
  if (max_pairs >= kChains * kMinChainPairs &&
      SplitChains(bytes, size, max_pairs, chains)) {
    count = kChains;
    // The interleaved steps run on named copies, so the cursors stay in
    // registers.
    static_assert(kChains == 4);
    VarintChain c0 = chains[0], c1 = chains[1], c2 = chains[2],
                c3 = chains[3];
    for (bool moved = true; moved;) {
      size_t steps = std::min({SafeSteps(c0, size), SafeSteps(c1, size),
                               SafeSteps(c2, size), SafeSteps(c3, size)});
      if (steps == 0) break;
      for (; moved && steps > 0; --steps) {
        moved = StepChain(bytes, size, out_pairs, c0) &
                StepChain(bytes, size, out_pairs, c1) &
                StepChain(bytes, size, out_pairs, c2) &
                StepChain(bytes, size, out_pairs, c3);
      }
    }
    chains[0] = c0;
    chains[1] = c1;
    chains[2] = c2;
    chains[3] = c3;
  }
  // Chain c's last pair ends where chain c + 1 starts, so the chains
  // finish in order and the first to stop short ends the decode.
  for (size_t c = 0; c < count; ++c) {
    if (!FinishChain(bytes, size, out_pairs, chains[c]) || c + 1 == count) {
      *consumed = chains[c].pos;
      return chains[c].pair;
    }
  }
  return 0;  // unreachable: the last chain always returns
}

__attribute__((target("sse4.2,popcnt"))) size_t DecodeVarintPairsSse42(
    const uint8_t* bytes, size_t size, size_t max_pairs, uint32_t* out_pairs,
    size_t* consumed) {
  return DecodeVarintPairsChains(bytes, size, max_pairs, out_pairs,
                                 consumed);
}

constexpr Kernels kSse42Kernels = {
    GatherBitsSse42, GatherEqualU32Sse42, SelectMaskedPairsSse42,
    DecodeVarintPairsSse42, Crc32cSse42,
};

// ---------------------------------------------------------------------
// AVX2 tier: real gathers and vectorized compares. Every kernel keeps
// the scalar mask/ordering contract exactly; the tails reuse the scalar
// logic so partial words behave identically.

__attribute__((target("avx2"))) void GatherBitsAvx2(const uint64_t* words,
                                                    const uint32_t* ids,
                                                    size_t count,
                                                    uint64_t* out_mask) {
  const __m256i kSixtyThree = _mm256_set1_epi64x(63);
  const __m256i kOne = _mm256_set1_epi64x(1);
  uint64_t cur = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i ids4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    const __m256i idx = _mm256_cvtepu32_epi64(ids4);
    const __m256i word_idx = _mm256_srli_epi64(idx, 6);
    const __m256i shift = _mm256_and_si256(idx, kSixtyThree);
    const __m256i gathered = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(words), word_idx, 8);
    const __m256i bit =
        _mm256_and_si256(_mm256_srlv_epi64(gathered, shift), kOne);
    const unsigned mask4 = unsigned(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(bit, kOne))));
    cur |= uint64_t{mask4} << (i & 63);
    if ((i & 63) == 60) {
      out_mask[i >> 6] = cur;
      cur = 0;
    }
  }
  for (; i < count; ++i) {
    const uint32_t id = ids[i];
    cur |= ((words[id >> 6] >> (id & 63)) & uint64_t{1}) << (i & 63);
    if ((i & 63) == 63) {
      out_mask[i >> 6] = cur;
      cur = 0;
    }
  }
  if (count & 63) out_mask[count >> 6] = cur;
}

__attribute__((target("avx2"))) void GatherEqualU32Avx2(
    const uint32_t* values, const uint32_t* ids, size_t count,
    uint32_t needle, uint64_t* out_mask) {
  const __m256i kNeedle = _mm256_set1_epi32(int(needle));
  uint64_t cur = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    const __m256i gathered =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(values), idx, 4);
    const unsigned mask8 = unsigned(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(gathered, kNeedle))));
    cur |= uint64_t{mask8} << (i & 63);
    if ((i & 63) == 56) {
      out_mask[i >> 6] = cur;
      cur = 0;
    }
  }
  for (; i < count; ++i) {
    cur |= uint64_t{values[ids[i]] == needle ? 1u : 0u} << (i & 63);
    if ((i & 63) == 63) {
      out_mask[i >> 6] = cur;
      cur = 0;
    }
  }
  if (count & 63) out_mask[count >> 6] = cur;
}

// permutevar8x32 lane indices per 4-bit hit mask: the hit pairs (two
// 32-bit lanes each) move to the front, in order; the rest is don't-care.
struct PairCompressTable {
  alignas(32) uint32_t lanes[16][8];
};

constexpr PairCompressTable MakePairCompressTable() {
  PairCompressTable table{};
  for (unsigned hits = 0; hits < 16; ++hits) {
    unsigned to = 0;
    for (unsigned pair = 0; pair < 4; ++pair) {
      if ((hits >> pair & 1) == 0) continue;
      table.lanes[hits][2 * to] = 2 * pair;
      table.lanes[hits][2 * to + 1] = 2 * pair + 1;
      ++to;
    }
  }
  return table;
}

constexpr PairCompressTable kPairCompress = MakePairCompressTable();

__attribute__((target("avx2,popcnt"))) size_t SelectMaskedPairsAvx2(
    const uint32_t* pairs, size_t count, uint32_t mask, uint32_t value,
    uint32_t* out_pairs) {
  // One 64-bit lane per pair, set id in the low half (x86 is little
  // endian); the zero high halves of mask and value drop the element.
  const __m256i kMask = _mm256_set1_epi64x(int64_t{mask});
  const __m256i kValue = _mm256_set1_epi64x(int64_t{value});
  size_t found = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i four =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pairs + 2 * i));
    const __m256i hit =
        _mm256_cmpeq_epi64(_mm256_and_si256(four, kMask), kValue);
    const unsigned hits =
        unsigned(_mm256_movemask_pd(_mm256_castsi256_pd(hit)));
    const __m256i lanes = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPairCompress.lanes[hits]));
    // A full 4-pair store at found <= i stays inside out_pairs' `count`
    // pairs; the lanes past the hits are overwritten or unspecified.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_pairs + 2 * found),
                        _mm256_permutevar8x32_epi32(four, lanes));
    found += unsigned(std::popcount(hits));
  }
  return found + SelectMaskedPairsBody(pairs + 2 * i, count - i, mask, value,
                                       out_pairs + 2 * found);
}

__attribute__((target("avx2,popcnt"))) size_t DecodeVarintPairsAvx2(
    const uint8_t* bytes, size_t size, size_t max_pairs, uint32_t* out_pairs,
    size_t* consumed) {
  return DecodeVarintPairsChains(bytes, size, max_pairs, out_pairs,
                                 consumed);
}

constexpr Kernels kAvx2Kernels = {
    GatherBitsAvx2, GatherEqualU32Avx2, SelectMaskedPairsAvx2,
    DecodeVarintPairsAvx2, Crc32cSse42,
};

#endif  // SETCOVER_SIMD_X86

const Kernels& TableFor(Level level) {
  switch (level) {
#ifdef SETCOVER_SIMD_X86
    case Level::kAvx2:
      return kAvx2Kernels;
    case Level::kSse42:
      return kSse42Kernels;
#endif
    default:
      return kScalarKernels;
  }
}

Level ClampToSupported(Level level) {
  const Level max = MaxSupportedLevel();
  return static_cast<int>(level) > static_cast<int>(max) ? max : level;
}

struct ActiveState {
  Level level;
  const Kernels* kernels;
};

ActiveState Resolve() {
  Level level = MaxSupportedLevel();
  if (const char* env = std::getenv("SETCOVER_SIMD_LEVEL")) {
    Level requested;
    if (ParseLevel(env, &requested)) level = ClampToSupported(requested);
  }
  return {level, &TableFor(level)};
}

ActiveState& MutableActive() {
  static ActiveState state = Resolve();
  return state;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kSse42:
      return "sse4.2";
    default:
      return "scalar";
  }
}

bool ParseLevel(const char* name, Level* out) {
  if (name == nullptr || out == nullptr) return false;
  const std::string_view v(name);
  if (v == "scalar") {
    *out = Level::kScalar;
  } else if (v == "sse4.2" || v == "sse42") {
    *out = Level::kSse42;
  } else if (v == "avx2") {
    *out = Level::kAvx2;
  } else {
    return false;
  }
  return true;
}

Level MaxSupportedLevel() {
#ifdef SETCOVER_SIMD_X86
  static const Level kMax = [] {
    if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
    if (__builtin_cpu_supports("sse4.2")) return Level::kSse42;
    return Level::kScalar;
  }();
  return kMax;
#else
  return Level::kScalar;
#endif
}

Level ActiveLevel() { return MutableActive().level; }

const Kernels& Active() { return *MutableActive().kernels; }

const Kernels& ForLevel(Level level) {
  return TableFor(ClampToSupported(level));
}

Level ForceLevelForTest(Level level) {
  ActiveState& state = MutableActive();
  const Level previous = state.level;
  state.level = ClampToSupported(level);
  state.kernels = &TableFor(state.level);
  return previous;
}

}  // namespace simd
}  // namespace setcover
