#include "util/serialize.h"

namespace setcover {

void StateEncoder::PutU32Vector(const std::vector<uint32_t>& values) {
  words_.push_back(values.size());
  uint64_t pending = 0;
  bool half = false;
  for (uint32_t v : values) {
    if (!half) {
      pending = v;
      half = true;
    } else {
      words_.push_back(pending | (uint64_t{v} << 32));
      half = false;
    }
  }
  if (half) words_.push_back(pending);
}

void StateEncoder::PutBoolVector(const std::vector<bool>& values) {
  words_.push_back(values.size());
  uint64_t word = 0;
  int bit = 0;
  for (bool v : values) {
    word |= uint64_t{v ? 1u : 0u} << bit;
    if (++bit == 64) {
      words_.push_back(word);
      word = 0;
      bit = 0;
    }
  }
  if (bit > 0) words_.push_back(word);
}

void StateEncoder::PutBitset(const DynamicBitset& bits) {
  words_.push_back(bits.size());
  const size_t word_count = bits.WordCount();
  const uint64_t* words = bits.WordsData();
  words_.insert(words_.end(), words, words + word_count);
}

void StateEncoder::PutSortedIds(const std::vector<uint32_t>& sorted_ids) {
  PutU32Vector(sorted_ids);
}

void StateEncoder::PutSortedPairs(
    const std::vector<std::pair<uint32_t, uint32_t>>& sorted_pairs) {
  words_.push_back(sorted_pairs.size());
  for (const auto& [k, v] : sorted_pairs) {
    words_.push_back(uint64_t{k} | (uint64_t{v} << 32));
  }
}

uint64_t StateDecoder::GetWord() {
  if (position_ >= words_.size()) {
    failed_ = true;
    return 0;
  }
  return words_[position_++];
}

std::vector<uint32_t> StateDecoder::GetU32Vector() {
  uint64_t count = GetWord();
  std::vector<uint32_t> values;
  if (failed_ || count > (words_.size() - position_) * 2) {
    failed_ = true;
    return values;
  }
  values.reserve(count);
  for (uint64_t i = 0; i < count; i += 2) {
    uint64_t word = GetWord();
    values.push_back(static_cast<uint32_t>(word));
    if (i + 1 < count) values.push_back(static_cast<uint32_t>(word >> 32));
  }
  return values;
}

std::vector<bool> StateDecoder::GetBoolVector() {
  uint64_t count = GetWord();
  std::vector<bool> values;
  if (failed_ || count > (words_.size() - position_) * 64) {
    failed_ = true;
    return values;
  }
  values.reserve(count);
  uint64_t word = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (i % 64 == 0) word = GetWord();
    values.push_back((word >> (i % 64)) & 1);
  }
  return values;
}

bool StateDecoder::GetBitset(DynamicBitset* out) {
  uint64_t count = GetWord();
  if (failed_ || count > (words_.size() - position_) * 64) {
    failed_ = true;
    return false;
  }
  const size_t word_count = (count + 63) / 64;
  out->AssignWords(count,
                   std::span(words_.data() + position_, word_count));
  position_ += word_count;
  return true;
}

std::unordered_set<uint32_t> StateDecoder::GetSet() {
  std::vector<uint32_t> values = GetU32Vector();
  return {values.begin(), values.end()};
}

std::unordered_map<uint32_t, uint32_t> StateDecoder::GetMap() {
  uint64_t count = GetWord();
  std::unordered_map<uint32_t, uint32_t> values;
  if (failed_ || count > words_.size() - position_) {
    failed_ = true;
    return values;
  }
  values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t word = GetWord();
    values.emplace(static_cast<uint32_t>(word),
                   static_cast<uint32_t>(word >> 32));
  }
  return values;
}

}  // namespace setcover
