#include "util/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "instance/generators.h"
#include "stream/orderings.h"
#include "util/rng.h"

namespace setcover {
namespace {

TEST(SerializeTest, U32VectorPacksTwoPerWord) {
  StateEncoder encoder;
  encoder.PutU32Vector({1, 2, 3, 4});
  // 1 length word + 2 payload words.
  ASSERT_EQ(encoder.SizeWords(), 3u);
  EXPECT_EQ(encoder.Words()[0], 4u);
  EXPECT_EQ(encoder.Words()[1], 1u | (uint64_t{2} << 32));
  EXPECT_EQ(encoder.Words()[2], 3u | (uint64_t{4} << 32));
}

TEST(SerializeTest, U32VectorOddLength) {
  StateEncoder encoder;
  encoder.PutU32Vector({7, 8, 9});
  ASSERT_EQ(encoder.SizeWords(), 3u);
  EXPECT_EQ(encoder.Words()[2], 9u);
}

TEST(SerializeTest, EmptyVectors) {
  StateEncoder encoder;
  encoder.PutU32Vector({});
  encoder.PutBoolVector({});
  EXPECT_EQ(encoder.SizeWords(), 2u);  // two length words, no payload
}

TEST(SerializeTest, BoolVectorPacksBits) {
  StateEncoder encoder;
  std::vector<bool> bits(65, false);
  bits[0] = true;
  bits[64] = true;
  encoder.PutBoolVector(bits);
  ASSERT_EQ(encoder.SizeWords(), 3u);  // length + 2 bit words
  EXPECT_EQ(encoder.Words()[0], 65u);
  EXPECT_EQ(encoder.Words()[1], 1u);
  EXPECT_EQ(encoder.Words()[2], 1u);
}

TEST(SerializeTest, SetAndMapAreCanonical) {
  // Sets and maps travel as their sorted contents, so one set encodes
  // to one message whatever order its ids were gathered in.
  std::vector<uint32_t> a = {5, 1, 9};
  std::vector<uint32_t> b = {9, 5, 1};
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  StateEncoder ea, eb;
  ea.PutSortedIds(a);
  eb.PutSortedIds(b);
  EXPECT_EQ(ea.Words(), eb.Words());
  // The id count, then the ids two per word.
  EXPECT_EQ(ea.Words(),
            (std::vector<uint64_t>{3, 1 | (uint64_t{5} << 32), 9}));

  StateEncoder em;
  em.PutSortedPairs({{1, 10}, {2, 20}});
  // 1 length + 2 pair words, key in the low half.
  EXPECT_EQ(em.Words(),
            (std::vector<uint64_t>{2, 1 | (uint64_t{10} << 32),
                                   2 | (uint64_t{20} << 32)}));

  StateEncoder both = ea;
  both.PutSortedPairs({{1, 10}, {2, 20}});
  StateDecoder decoder(both.Words());
  EXPECT_EQ(decoder.GetSet(), (std::unordered_set<uint32_t>{1, 5, 9}));
  EXPECT_EQ(decoder.GetMap(),
            (std::unordered_map<uint32_t, uint32_t>{{1, 10}, {2, 20}}));
  EXPECT_TRUE(decoder.Done());
}

TEST(SerializeTest, AlgorithmsEncodeDeterministically) {
  Rng rng(1);
  PlantedCoverParams p;
  p.num_elements = 64;
  p.num_sets = 256;
  p.planted_cover_size = 4;
  auto inst = GeneratePlantedCover(p, rng);
  auto stream = RandomOrderStream(inst, rng);

  for (const std::string& name : RegisteredAlgorithmNames()) {
    auto a1 = MakeAlgorithmByName(name, {.seed = 7});
    auto a2 = MakeAlgorithmByName(name, {.seed = 7});
    a1->Begin(stream.meta);
    a2->Begin(stream.meta);
    for (size_t i = 0; i < stream.size() / 2; ++i) {
      a1->ProcessEdge(stream.edges[i]);
      a2->ProcessEdge(stream.edges[i]);
    }
    StateEncoder e1, e2;
    a1->EncodeState(&e1);
    a2->EncodeState(&e2);
    EXPECT_EQ(e1.Words(), e2.Words()) << name;
  }
}

TEST(SerializeTest, EncodedSizeTracksMeterScale) {
  // The literal message and the metered working set must agree on the
  // order of magnitude for the algorithms that implement EncodeState.
  Rng rng(2);
  PlantedCoverParams p;
  p.num_elements = 128;
  p.num_sets = 4096;
  p.planted_cover_size = 4;
  auto inst = GeneratePlantedCover(p, rng);
  auto stream = RandomOrderStream(inst, rng);

  for (const std::string& name :
       {std::string("kk"), std::string("adversarial-level"),
        std::string("random-order"), std::string("element-sampling")}) {
    auto algorithm = MakeAlgorithmByName(name, {.seed = 3});
    algorithm->Begin(stream.meta);
    for (const Edge& e : stream.edges) algorithm->ProcessEdge(e);
    StateEncoder encoder;
    algorithm->EncodeState(&encoder);
    ASSERT_GT(encoder.SizeWords(), 0u) << name;
    size_t metered = algorithm->Meter().CurrentWords();
    EXPECT_LT(encoder.SizeWords(), 4 * metered + 64) << name;
    EXPECT_GT(8 * encoder.SizeWords() + 64, metered) << name;
  }
}

TEST(SerializeTest, StateWordsUsesEncodingWhenAvailable) {
  Rng rng(3);
  PlantedCoverParams p;
  p.num_elements = 32;
  p.num_sets = 64;
  p.planted_cover_size = 2;
  auto inst = GeneratePlantedCover(p, rng);
  auto stream = RandomOrderStream(inst, rng);
  auto algorithm = MakeAlgorithmByName("kk", {.seed = 5});
  algorithm->Begin(stream.meta);
  for (const Edge& e : stream.edges) algorithm->ProcessEdge(e);
  StateEncoder encoder;
  algorithm->EncodeState(&encoder);
  EXPECT_EQ(algorithm->StateWords(), encoder.SizeWords());
}

TEST(SerializeTest, StateWordsMatchesEncodeSizeForEveryAlgorithm) {
  // StateWords() is O(1) arithmetic (no encode) since it sits on the
  // hot path of the communication experiments; this pins each override
  // to the size a real encode produces, at many points mid-stream.
  Rng rng(7);
  UniformRandomParams p;
  p.num_elements = 48;
  p.num_sets = 64;
  auto inst = GenerateUniformRandom(p, rng);
  auto stream = RandomOrderStream(inst, rng);

  for (const std::string& name : RegisteredAlgorithmNames()) {
    auto algorithm = MakeAlgorithmByName(name, {.seed = 13});
    algorithm->Begin(stream.meta);
    size_t processed = 0;
    auto check = [&] {
      StateEncoder encoder;
      algorithm->EncodeState(&encoder);
      EXPECT_EQ(algorithm->StateWords(), encoder.SizeWords())
          << name << " after " << processed << " edges";
    };
    check();
    for (const Edge& e : stream.edges) {
      algorithm->ProcessEdge(e);
      if (++processed % 37 == 0) check();
    }
    check();
  }
}

TEST(SerializeTest, EncodedSizeHelpersMatchTheEncoder) {
  for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{63},
                       size_t{64}, size_t{65}, size_t{1000}}) {
    StateEncoder u32;
    u32.PutU32Vector(std::vector<uint32_t>(count, 5));
    EXPECT_EQ(u32.SizeWords(), EncodedU32VectorWords(count)) << count;

    StateEncoder bools;
    bools.PutBoolVector(std::vector<bool>(count, true));
    EXPECT_EQ(bools.SizeWords(), EncodedBoolVectorWords(count)) << count;

    StateEncoder set;
    std::vector<uint32_t> ids(count);
    for (size_t i = 0; i < count; ++i) ids[i] = uint32_t(i);
    set.PutSortedIds(ids);
    EXPECT_EQ(set.SizeWords(), EncodedSetWords(count)) << count;

    StateEncoder map;
    std::vector<std::pair<uint32_t, uint32_t>> pairs(count);
    for (size_t i = 0; i < count; ++i) pairs[i] = {uint32_t(i), uint32_t(i)};
    map.PutSortedPairs(pairs);
    EXPECT_EQ(map.SizeWords(), EncodedMapWords(count)) << count;
  }
}

}  // namespace
}  // namespace setcover
