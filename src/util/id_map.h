#ifndef SETCOVER_UTIL_ID_MAP_H_
#define SETCOVER_UTIL_ID_MAP_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.h"

namespace setcover {

/// Flat open-addressing map from a 32-bit id to a 32-bit value, sized by
/// the ids it holds rather than by the id universe: one array of
/// (key, value) slots with linear probing, Fibonacci hashing and a load
/// of at most ½. The table doubles whenever an insert would pass that
/// load. kNoSet marks an empty slot, so it is the one id the map cannot
/// hold.
///
/// It backs the maps whose keys are a sparse subset of [0, m): Algorithm
/// 2's level map L, which holds only the promoted sets (Theorem 4's
/// Õ(m·n/α²) of them), and the set → candidate index of the sharded
/// merge. Neither is touched per edge, so a probe sequence costs less
/// than allocating and zeroing an m-word dense array for every run.
///
/// Iteration order follows the table layout; SortedEntries() is the
/// canonical (ascending-key) view the state encoders write, so equal
/// maps encode to equal words whatever order their ids came in.
class IdMap {
 public:
  /// An empty map sized for `expected` ids without growing.
  explicit IdMap(size_t expected = 0) { Reset(expected); }

  /// Removes every entry and sizes the table for `expected` ids.
  void Reset(size_t expected = 0) {
    bits_ = std::max(kMinBits, int(std::bit_width(2 * expected)));
    slots_.assign(size_t{1} << bits_, Entry{kNoSet, 0});
    size_ = 0;
  }

  /// Reference to the value for `id` (id != kNoSet), inserting 0 first
  /// when absent. Returns (ref, inserted) like try_emplace. The
  /// reference is valid until the next insert.
  std::pair<uint32_t&, bool> Slot(uint32_t id) {
    size_t at = Probe(id);
    const bool inserted = slots_[at].key == kNoSet;
    if (inserted) {
      if (2 * (size_ + 1) > slots_.size()) {
        Grow();
        at = Probe(id);
      }
      slots_[at].key = id;
      ++size_;
    }
    return {slots_[at].value, inserted};
  }

  /// Pointer to the value for `id`, or nullptr when absent.
  const uint32_t* Find(uint32_t id) const {
    const auto& slot = slots_[Probe(id)];
    return slot.key == kNoSet ? nullptr : &slot.value;
  }

  /// Number of ids held.
  size_t Size() const { return size_; }

  /// Slots in the table (a power of two, at least twice Size()).
  size_t Capacity() const { return slots_.size(); }

  /// The (id, value) entries in ascending id order.
  std::vector<std::pair<uint32_t, uint32_t>> SortedEntries() const {
    std::vector<std::pair<uint32_t, uint32_t>> entries;
    entries.reserve(size_);
    ForEach([&](uint32_t id, uint32_t value) {
      entries.emplace_back(id, value);
    });
    std::sort(entries.begin(), entries.end());
    return entries;
  }

  /// Calls fn(id, value) for every entry, in table order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& slot : slots_) {
      if (slot.key != kNoSet) fn(slot.key, slot.value);
    }
  }

 private:
  struct Entry {
    uint32_t key;  // kNoSet marks an empty slot
    uint32_t value;
  };
  static constexpr int kMinBits = 3;

  /// The slot holding `id`, or the empty slot where it would go. The
  /// top bits of id·2^64/φ spread ids that share their low bits (a
  /// shard's sets, s % W) across the table.
  size_t Probe(uint32_t id) const {
    const size_t mask = slots_.size() - 1;
    size_t at =
        size_t((uint64_t{id} * 0x9E3779B97F4A7C15ull) >> (64 - bits_));
    while (slots_[at].key != id && slots_[at].key != kNoSet) {
      at = (at + 1) & mask;
    }
    return at;
  }

  void Grow() {
    std::vector<Entry> old = std::move(slots_);
    ++bits_;
    slots_.assign(size_t{1} << bits_, Entry{kNoSet, 0});
    for (const auto& slot : old) {
      if (slot.key != kNoSet) slots_[Probe(slot.key)] = slot;
    }
  }

  std::vector<Entry> slots_;
  int bits_ = kMinBits;
  size_t size_ = 0;
};

}  // namespace setcover

#endif  // SETCOVER_UTIL_ID_MAP_H_
