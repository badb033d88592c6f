#include "util/epoch_array.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/serialize.h"

namespace setcover {
namespace {

TEST(EpochArray, SlotInsertsAndFinds) {
  EpochArray<uint32_t> array;
  array.Assign(16);
  EXPECT_EQ(array.Size(), 0u);
  EXPECT_EQ(array.UniverseSize(), 16u);
  EXPECT_FALSE(array.Contains(5));
  EXPECT_EQ(array.Find(5), nullptr);

  auto [value, inserted] = array.Slot(5);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(value, 0u);  // fresh slots start default-constructed
  value = 7;
  EXPECT_EQ(array.Size(), 1u);
  ASSERT_NE(array.Find(5), nullptr);
  EXPECT_EQ(*array.Find(5), 7u);

  auto [again, inserted_again] = array.Slot(5);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again, 7u);  // re-taking a live slot must not reset it
  EXPECT_EQ(array.Size(), 1u);
}

TEST(EpochArray, ClearAllEmptiesAndSlotsResetAfterClear) {
  EpochArray<uint32_t> array;
  array.Assign(8);
  array.Slot(3).first = 42;
  array.Slot(6).first = 43;
  EXPECT_EQ(array.Size(), 2u);

  array.ClearAll();
  EXPECT_EQ(array.Size(), 0u);
  EXPECT_FALSE(array.Contains(3));
  EXPECT_EQ(array.Find(6), nullptr);

  // A stale value from the previous epoch must not leak through.
  auto [value, inserted] = array.Slot(3);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(value, 0u);
}

// The map wire format: SortedEntries feeds PutSortedPairs the same
// words as the entries sorted by hand, whatever order they went in.
TEST(EpochArray, SortedEntriesMatchesPutMapWireFormat) {
  EpochArray<uint32_t> array;
  array.Assign(100);
  std::map<uint32_t, uint32_t> mirror;
  for (uint32_t id : {97u, 4u, 31u, 0u, 55u}) {
    uint32_t v = id * 3 + 1;
    array.Slot(id).first = v;
    mirror[id] = v;
  }
  StateEncoder dense, sorted;
  dense.PutSortedPairs(array.SortedEntries());
  sorted.PutSortedPairs({mirror.begin(), mirror.end()});
  EXPECT_EQ(dense.Words(), sorted.Words());
  EXPECT_EQ(dense.SizeWords(), EncodedMapWords(array.Size()));
}

TEST(EpochArray, ForEachVisitsAscending) {
  EpochArray<uint32_t> array;
  array.Assign(50);
  for (uint32_t id : {40u, 2u, 17u}) array.Slot(id).first = id + 100;
  std::vector<std::pair<uint32_t, uint32_t>> seen;
  array.ForEach([&](uint32_t id, uint32_t value) {
    seen.emplace_back(id, value);
  });
  std::vector<std::pair<uint32_t, uint32_t>> expected = {
      {2, 102}, {17, 117}, {40, 140}};
  EXPECT_EQ(seen, expected);
}

TEST(EpochArray, SwapExchangesContents) {
  EpochArray<uint32_t> a, b;
  a.Assign(10);
  b.Assign(10);
  a.Slot(1).first = 11;
  b.Slot(2).first = 22;
  b.ClearAll();  // desynchronize the epochs before swapping
  b.Slot(3).first = 33;
  swap(a, b);
  EXPECT_FALSE(a.Contains(1));
  ASSERT_TRUE(a.Contains(3));
  EXPECT_EQ(*a.Find(3), 33u);
  ASSERT_TRUE(b.Contains(1));
  EXPECT_EQ(*b.Find(1), 11u);
  EXPECT_FALSE(b.Contains(2));
}

TEST(EpochSet, InsertContainsClear) {
  EpochSet set;
  set.Assign(20);
  EXPECT_TRUE(set.Insert(7));
  EXPECT_FALSE(set.Insert(7));  // duplicate insert reports present
  EXPECT_TRUE(set.Insert(19));
  EXPECT_EQ(set.Size(), 2u);
  EXPECT_TRUE(set.Contains(7));
  EXPECT_FALSE(set.Contains(8));

  set.ClearAll();
  EXPECT_EQ(set.Size(), 0u);
  EXPECT_FALSE(set.Contains(7));
  EXPECT_TRUE(set.Insert(7));
}

// The set wire format: SortedIds feeds PutSortedIds the same words as
// the ids sorted by hand, whatever order they went in.
TEST(EpochSet, SortedIdsMatchesPutSetWireFormat) {
  EpochSet set;
  set.Assign(64);
  std::set<uint32_t> mirror;
  for (uint32_t id : {63u, 0u, 12u, 5u}) {
    set.Insert(id);
    mirror.insert(id);
  }
  StateEncoder dense, sorted;
  dense.PutSortedIds(set.SortedIds());
  sorted.PutSortedIds({mirror.begin(), mirror.end()});
  EXPECT_EQ(dense.Words(), sorted.Words());
  EXPECT_EQ(dense.SizeWords(), EncodedSetWords(set.Size()));
}

TEST(EpochSet, AssignResetsEverything) {
  EpochSet set;
  set.Assign(4);
  set.Insert(3);
  set.Assign(8);  // re-Assign after use, as Begin() does on reruns
  EXPECT_EQ(set.Size(), 0u);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_EQ(set.UniverseSize(), 8u);
}

// Many epochs in sequence: entries from any prior epoch must stay
// invisible. (Full 2^32 wraparound is exercised implicitly by the
// re-zeroing branch; here we check a long run of clears stays sound.)
TEST(EpochSet, ManyClearCyclesStaySound) {
  EpochSet set;
  set.Assign(3);
  for (int cycle = 0; cycle < 10000; ++cycle) {
    EXPECT_TRUE(set.Insert(cycle % 3));
    EXPECT_EQ(set.Size(), 1u);
    set.ClearAll();
    EXPECT_FALSE(set.Contains(cycle % 3));
  }
}

}  // namespace
}  // namespace setcover
