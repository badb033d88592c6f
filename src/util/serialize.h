#ifndef SETCOVER_UTIL_SERIALIZE_H_
#define SETCOVER_UTIL_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/bitset.h"

namespace setcover {

/// Helpers for encoding streaming-algorithm state into flat word
/// vectors — the literal messages forwarded between parties in the
/// communication experiments (comm/reduction). Encoders write plain
/// 64-bit words: a length prefix followed by payload; bit vectors are
/// packed 64 per word.
///
/// The encodings are *canonical* (sets and maps travel sorted), so
/// equal states produce equal messages — the tests rely on this.
class StateEncoder {
 public:
  void PutWord(uint64_t word) { words_.push_back(word); }

  /// Length-prefixed raw u32 vector (two values per word).
  void PutU32Vector(const std::vector<uint32_t>& values);

  /// Length-prefixed bool vector packed as bits.
  void PutBoolVector(const std::vector<bool>& values);

  /// Byte-identical to PutBoolVector over the same bits, but word-granular:
  /// DynamicBitset packs bit i at bit (i & 63) of word i >> 6 — exactly
  /// the wire layout — so the words are dumped directly instead of being
  /// re-packed one bit at a time (the EncodeState hot path for the
  /// covered/marked/in-sample indicators).
  void PutBitset(const DynamicBitset& bits);

  /// An id set, as its ids in ascending order: the PutU32Vector layout
  /// (GetSet reads it back). The caller sorts, so equal sets encode to
  /// equal words.
  void PutSortedIds(const std::vector<uint32_t>& sorted_ids);

  /// An id map, as its (key, value) pairs in ascending key order: a
  /// count word, then one word per pair, key in the low half (GetMap
  /// reads it back).
  void PutSortedPairs(
      const std::vector<std::pair<uint32_t, uint32_t>>& sorted_pairs);

  const std::vector<uint64_t>& Words() const { return words_; }
  size_t SizeWords() const { return words_.size(); }

 private:
  std::vector<uint64_t> words_;
};

/// Encoded sizes of the StateEncoder fields, in words, as pure
/// arithmetic on element counts. Algorithms use these to implement an
/// O(1) StateWords() override that stays exactly equal to the size a
/// full EncodeState() would produce (serialize_test verifies the
/// equality for every registered algorithm) without paying for the
/// encode — StateWords() is called per boundary in the communication
/// experiments, where a real encode per call dominated the runtime.
constexpr size_t EncodedU32VectorWords(size_t count) {
  return 1 + (count + 1) / 2;
}
constexpr size_t EncodedBoolVectorWords(size_t count) {
  return 1 + (count + 63) / 64;
}
constexpr size_t EncodedSetWords(size_t count) {
  return EncodedU32VectorWords(count);
}
constexpr size_t EncodedMapWords(size_t count) { return 1 + count; }

/// Mirror of StateEncoder: reads the fields back in the same order.
/// Out-of-bounds reads set the failure flag and return empty values
/// instead of crashing (malformed messages are data, not trusted).
class StateDecoder {
 public:
  explicit StateDecoder(const std::vector<uint64_t>& words)
      : words_(words) {}

  uint64_t GetWord();
  std::vector<uint32_t> GetU32Vector();
  std::vector<bool> GetBoolVector();
  std::unordered_set<uint32_t> GetSet();
  std::unordered_map<uint32_t, uint32_t> GetMap();

  /// Word-granular mirror of GetBoolVector: consumes exactly the same
  /// words and accepts exactly the same messages (junk bits beyond the
  /// declared size in the final word are ignored, as the bit-by-bit
  /// reader ignored them), but lands directly in a DynamicBitset. On
  /// failure `out` is left untouched and failed() is set.
  bool GetBitset(DynamicBitset* out);

  /// True once any read ran past the end of the message.
  bool failed() const { return failed_; }

  /// True when the whole message was consumed without failure.
  bool Done() const { return !failed_ && position_ == words_.size(); }

 private:
  const std::vector<uint64_t>& words_;
  size_t position_ = 0;
  bool failed_ = false;
};

}  // namespace setcover

#endif  // SETCOVER_UTIL_SERIALIZE_H_
