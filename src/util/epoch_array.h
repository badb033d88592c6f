#ifndef SETCOVER_UTIL_EPOCH_ARRAY_H_
#define SETCOVER_UTIL_EPOCH_ARRAY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace setcover {

/// Dense map over ids in `[0, size)` with O(1) bulk clear, built for
/// per-edge hot paths that previously probed an `unordered_map`.
///
/// Every slot carries the epoch in which it was last written; a slot
/// whose stamp differs from the current epoch reads as absent. Lookup
/// is therefore a single indexed load (no hashing, no probing), and the
/// per-epoch reset Algorithm 1 performs on its tracking tables becomes
/// a counter bump instead of an O(occupancy) rehash.
///
/// The meter cost of the *information* stored here is unchanged from
/// the hash containers it replaces (entries are still charged per item
/// by the owning algorithm); the dense stamps are container overhead in
/// the sense of util/memory_meter.h and are excluded from word
/// accounting, exactly as hash-table buckets were.
template <typename V>
class EpochArray {
 public:
  EpochArray() = default;

  /// Resizes to cover ids `[0, size)` and clears all entries.
  void Assign(size_t size) {
    values_.assign(size, V{});
    stamps_.assign(size, 0);
    epoch_ = 1;
    live_ = 0;
  }

  /// Removes every entry in O(1) (epoch bump).
  void ClearAll() {
    if (++epoch_ == 0) {
      // Stamp wraparound: re-zero so stale slots cannot alias the new
      // epoch. Happens once per 2^32 clears.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
    live_ = 0;
  }

  bool Contains(uint32_t id) const { return stamps_[id] == epoch_; }

  /// Pointer to the entry for `id`, or nullptr when absent.
  const V* Find(uint32_t id) const {
    return stamps_[id] == epoch_ ? &values_[id] : nullptr;
  }

  /// Reference to the entry for `id`, inserting a default-constructed
  /// value first when absent. Returns (ref, inserted) like try_emplace.
  std::pair<V&, bool> Slot(uint32_t id) {
    bool inserted = stamps_[id] != epoch_;
    if (inserted) {
      stamps_[id] = epoch_;
      values_[id] = V{};
      ++live_;
    }
    return {values_[id], inserted};
  }

  /// Number of live entries.
  size_t Size() const { return live_; }

  /// Universe size (capacity in ids).
  size_t UniverseSize() const { return stamps_.size(); }

  /// Live (id, value) pairs in ascending id order — the canonical
  /// ordering StateEncoder::PutSortedPairs expects, so dense state
  /// encodes bit-identically to the hash map it replaced.
  std::vector<std::pair<uint32_t, uint32_t>> SortedEntries() const {
    std::vector<std::pair<uint32_t, uint32_t>> entries;
    entries.reserve(live_);
    for (uint32_t id = 0; id < stamps_.size(); ++id) {
      if (stamps_[id] == epoch_) {
        entries.emplace_back(id, static_cast<uint32_t>(values_[id]));
      }
    }
    return entries;
  }

  /// Calls fn(id, value&) for every live entry in ascending id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t id = 0; id < stamps_.size(); ++id) {
      if (stamps_[id] == epoch_) fn(id, values_[id]);
    }
  }

  friend void swap(EpochArray& a, EpochArray& b) {
    std::swap(a.values_, b.values_);
    std::swap(a.stamps_, b.stamps_);
    std::swap(a.epoch_, b.epoch_);
    std::swap(a.live_, b.live_);
  }

 private:
  std::vector<V> values_;
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 1;
  size_t live_ = 0;
};

/// Dense set over ids in `[0, size)` with O(1) bulk clear — the
/// membership-only sibling of EpochArray (stamps without values), used
/// where an `unordered_set` sat on the hot path.
class EpochSet {
 public:
  EpochSet() = default;

  void Assign(size_t size) {
    stamps_.assign(size, 0);
    epoch_ = 1;
    live_ = 0;
  }

  void ClearAll() {
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
    live_ = 0;
  }

  bool Contains(uint32_t id) const { return stamps_[id] == epoch_; }

  /// Inserts `id`; returns true when it was absent.
  bool Insert(uint32_t id) {
    if (stamps_[id] == epoch_) return false;
    stamps_[id] = epoch_;
    ++live_;
    return true;
  }

  size_t Size() const { return live_; }
  size_t UniverseSize() const { return stamps_.size(); }

  /// Live ids ascending — the canonical ordering
  /// StateEncoder::PutSortedIds expects.
  std::vector<uint32_t> SortedIds() const {
    std::vector<uint32_t> ids;
    ids.reserve(live_);
    for (uint32_t id = 0; id < stamps_.size(); ++id) {
      if (stamps_[id] == epoch_) ids.push_back(id);
    }
    return ids;
  }

  friend void swap(EpochSet& a, EpochSet& b) {
    std::swap(a.stamps_, b.stamps_);
    std::swap(a.epoch_, b.epoch_);
    std::swap(a.live_, b.live_);
  }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 1;
  size_t live_ = 0;
};

}  // namespace setcover

#endif  // SETCOVER_UTIL_EPOCH_ARRAY_H_
