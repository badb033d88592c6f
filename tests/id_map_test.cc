#include "util/id_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/serialize.h"

namespace setcover {
namespace {

TEST(IdMap, SlotInsertsAndFinds) {
  IdMap map;
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_EQ(map.Find(5), nullptr);

  auto [value, inserted] = map.Slot(5);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(value, 0u);  // a fresh id starts at 0
  value = 7;
  EXPECT_EQ(map.Size(), 1u);
  ASSERT_NE(map.Find(5), nullptr);
  EXPECT_EQ(*map.Find(5), 7u);
  EXPECT_EQ(map.Find(6), nullptr);

  auto [again, inserted_again] = map.Slot(5);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again, 7u);  // re-taking a held id must not reset it
  EXPECT_EQ(map.Size(), 1u);

  // The largest id the map can hold: every id but kNoSet.
  map.Slot(kNoSet - 1).first = 9;
  ASSERT_NE(map.Find(kNoSet - 1), nullptr);
  EXPECT_EQ(*map.Find(kNoSet - 1), 9u);

  map.Reset();
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_EQ(map.Find(5), nullptr);
  EXPECT_TRUE(map.Slot(5).second);
}

// The table doubles exactly when an insert would pass load ½, and every
// id inserted before a doubling keeps its value after it. Ids that
// share their low bits (one shard's sets under the set-modulo split)
// go in too.
TEST(IdMap, GrowsPastHalfLoad) {
  IdMap map;
  const size_t initial = map.Capacity();
  EXPECT_GE(initial, 2u);
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 3000; ++i) ids.push_back(i * 64 + 3);
  for (uint32_t i = 0; i < 1000; ++i) ids.push_back(kNoSet - 1 - i);
  size_t doublings = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    const size_t before = map.Capacity();
    auto [value, inserted] = map.Slot(ids[i]);
    ASSERT_TRUE(inserted) << ids[i];
    value = uint32_t(i) * 7 + 1;
    // A doubling happens exactly when the insert would pass load ½.
    const bool should_grow = 2 * (i + 1) > before;
    EXPECT_EQ(map.Capacity(), should_grow ? 2 * before : before) << i;
    doublings += should_grow ? 1 : 0;
    EXPECT_LE(2 * map.Size(), map.Capacity());
  }
  EXPECT_EQ(map.Size(), ids.size());
  EXPECT_GT(doublings, 8u);
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint32_t* value = map.Find(ids[i]);
    ASSERT_NE(value, nullptr) << ids[i];
    EXPECT_EQ(*value, uint32_t(i) * 7 + 1);
  }
  EXPECT_EQ(map.Find(5), nullptr);

  // Sized up front, it holds that many ids without growing.
  IdMap sized(ids.size());
  const size_t capacity = sized.Capacity();
  for (uint32_t id : ids) sized.Slot(id);
  EXPECT_EQ(sized.Capacity(), capacity);
}

// SortedEntries encodes word-identically to PutSortedPairs of the same
// entries sorted by hand, whatever order the ids went in: ascending,
// descending or shuffled.
TEST(IdMap, SortedEntriesEncodeLikeSortedPairsInAnyInsertionOrder) {
  Rng rng(17);
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 500; ++i) {
    ids.push_back(uint32_t(rng.UniformInt(1u << 30)));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::map<uint32_t, uint32_t> reference;
  for (uint32_t id : ids) reference[id] = id ^ 0x5a5a5a5au;
  StateEncoder expected;
  expected.PutSortedPairs({reference.begin(), reference.end()});

  std::vector<std::vector<uint32_t>> orders = {ids, ids};
  std::reverse(orders[1].begin(), orders[1].end());
  for (int shuffle = 0; shuffle < 3; ++shuffle) {
    orders.push_back(ids);
    std::vector<uint32_t>& order = orders.back();
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformInt(i)]);
    }
  }
  for (size_t o = 0; o < orders.size(); ++o) {
    IdMap map;
    for (uint32_t id : orders[o]) map.Slot(id).first = reference[id];
    StateEncoder actual;
    actual.PutSortedPairs(map.SortedEntries());
    EXPECT_EQ(actual.Words(), expected.Words()) << "order " << o;
    EXPECT_EQ(actual.SizeWords(), EncodedMapWords(map.Size()));
  }
}

TEST(IdMap, ForEachVisitsEveryEntryOnce) {
  IdMap map;
  std::map<uint32_t, uint32_t> expected;
  for (uint32_t id : {40u, 2u, 17u, 1000000u}) {
    map.Slot(id).first = id + 100;
    expected[id] = id + 100;
  }
  std::map<uint32_t, uint32_t> seen;
  map.ForEach([&](uint32_t id, uint32_t value) {
    EXPECT_TRUE(seen.emplace(id, value).second) << id;
  });
  EXPECT_EQ(seen, expected);
}

}  // namespace
}  // namespace setcover
