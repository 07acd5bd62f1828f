#include "storage/flat_hash_map.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <unordered_map>

#include "util/rng.h"

namespace ringo {
namespace {

TEST(FlatHashMapTest, InsertAndFind) {
  FlatHashMap<int64_t, int64_t> m;
  EXPECT_TRUE(m.empty());
  auto [v1, inserted1] = m.Insert(7, 70);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(*v1, 70);
  auto [v2, inserted2] = m.Insert(7, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 70) << "existing value must not be overwritten";
  EXPECT_EQ(m.size(), 1);
  EXPECT_EQ(*m.Find(7), 70);
  EXPECT_EQ(m.Find(8), nullptr);
}

TEST(FlatHashMapTest, GetOrInsertDefaultConstructs) {
  FlatHashMap<int64_t, std::vector<int>> m;
  m.GetOrInsert(1).push_back(10);
  m.GetOrInsert(1).push_back(11);
  EXPECT_EQ(m.size(), 1);
  EXPECT_EQ(m.Find(1)->size(), 2u);
}

TEST(FlatHashMapTest, EraseRemoves) {
  FlatHashMap<int64_t, int64_t> m;
  for (int64_t i = 0; i < 100; ++i) m.Insert(i, i * 2);
  EXPECT_TRUE(m.Erase(50));
  EXPECT_FALSE(m.Erase(50));
  EXPECT_EQ(m.size(), 99);
  EXPECT_EQ(m.Find(50), nullptr);
  // Backward-shift deletion must not break other probes.
  for (int64_t i = 0; i < 100; ++i) {
    if (i != 50) {
      ASSERT_NE(m.Find(i), nullptr) << i;
      EXPECT_EQ(*m.Find(i), i * 2);
    }
  }
}

TEST(FlatHashMapTest, GrowsPastInitialCapacity) {
  FlatHashMap<int64_t, int64_t> m(16);
  for (int64_t i = 0; i < 10000; ++i) m.Insert(i, i);
  EXPECT_EQ(m.size(), 10000);
  for (int64_t i = 0; i < 10000; ++i) EXPECT_EQ(*m.Find(i), i);
}

TEST(FlatHashMapTest, ClearEmptiesButKeepsCapacity) {
  FlatHashMap<int64_t, int64_t> m;
  for (int64_t i = 0; i < 100; ++i) m.Insert(i, i);
  const int64_t cap = m.capacity();
  m.Clear();
  EXPECT_EQ(m.size(), 0);
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.Find(5), nullptr);
  m.Insert(5, 55);
  EXPECT_EQ(*m.Find(5), 55);
}

TEST(FlatHashMapTest, StringKeys) {
  FlatHashMap<std::string, int64_t> m;
  m.Insert("alpha", 1);
  m.Insert("beta", 2);
  EXPECT_EQ(*m.Find("alpha"), 1);
  EXPECT_EQ(m.Find("gamma"), nullptr);
  EXPECT_TRUE(m.Erase("alpha"));
  EXPECT_EQ(m.Find("alpha"), nullptr);
}

TEST(FlatHashMapTest, ForEachVisitsAll) {
  FlatHashMap<int64_t, int64_t> m;
  for (int64_t i = 0; i < 50; ++i) m.Insert(i, i);
  int64_t sum = 0, count = 0;
  m.ForEach([&](const int64_t& k, const int64_t& v) {
    EXPECT_EQ(k, v);
    sum += v;
    ++count;
  });
  EXPECT_EQ(count, 50);
  EXPECT_EQ(sum, 49 * 50 / 2);
}

TEST(FlatHashMapTest, KeysReturnsAllKeys) {
  FlatHashMap<int64_t, int64_t> m;
  for (int64_t i = 10; i < 20; ++i) m.Insert(i, 0);
  auto keys = m.Keys();
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(keys.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(keys[i], 10 + i);
}

TEST(FlatHashMapTest, ReserveAvoidsRehash) {
  FlatHashMap<int64_t, int64_t> m;
  m.Reserve(1000);
  const int64_t cap = m.capacity();
  for (int64_t i = 0; i < 1000; ++i) m.Insert(i, i);
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatHashMapTest, CapacityForTerminatesOnAdversarialCounts) {
  // Regression: the old `want * 7 < n * 10` comparison overflowed int64 for
  // huge n, so `want <<= 1` shifted into the sign bit and looped forever.
  using Map = FlatHashMap<int64_t, int64_t>;
  constexpr int64_t kMax = int64_t{1} << 62;
  EXPECT_EQ(Map::CapacityFor(std::numeric_limits<int64_t>::max()), kMax);
  EXPECT_EQ(Map::CapacityFor(kMax), kMax);
  // Below the clamp the load-factor rule still decides: 2^61 slots hold
  // INT64_MAX/10 elements at ≤ 0.7 load.
  EXPECT_EQ(Map::CapacityFor(std::numeric_limits<int64_t>::max() / 10),
            int64_t{1} << 61);
}

TEST(FlatHashMapTest, CapacityForSmallCounts) {
  using Map = FlatHashMap<int64_t, int64_t>;
  EXPECT_EQ(Map::CapacityFor(0), 16);
  EXPECT_EQ(Map::CapacityFor(-5), 16);
  EXPECT_EQ(Map::CapacityFor(1), 16);
  EXPECT_EQ(Map::CapacityFor(11), 16);   // 11/16 ≤ 0.7 fails → next check:
  EXPECT_EQ(Map::CapacityFor(12), 32);   // 12/16 > 0.7 → grow.
  // Resulting load factor is always ≤ 7/10.
  for (int64_t n = 1; n < 5000; n = n * 3 + 1) {
    const int64_t cap = Map::CapacityFor(n);
    EXPECT_LE(n * 10, cap * 7) << n;
  }
}

TEST(FlatHashMapTest, ReservedBuildReportsZeroGrowRehashes) {
  // The hash-join build side pre-sizes with Reserve; the rehash counter
  // must then stay at zero through the whole insert loop (Reserve's own
  // pre-sizing rehash is intentionally not counted).
  FlatHashMap<int64_t, int64_t> m;
  m.Reserve(5000);
  for (int64_t i = 0; i < 5000; ++i) m.Insert(i, i);
  EXPECT_EQ(m.GrowRehashes(), 0);
  EXPECT_EQ(m.stats().grow_rehashes, 0);
  EXPECT_GE(m.stats().probes, 5000);

  FlatHashMap<int64_t, int64_t> unsized;
  for (int64_t i = 0; i < 5000; ++i) unsized.Insert(i, i);
  EXPECT_GT(unsized.GrowRehashes(), 0);
  unsized.ResetStats();
  EXPECT_EQ(unsized.GrowRehashes(), 0);
  EXPECT_EQ(unsized.stats().probes, 0);
}

TEST(FlatHashMapTest, ConstFindLeavesStatsUntouched) {
  // Concurrent readers share the map during the conversion fill phase, so
  // the const lookup path must never write the stats block.
  FlatHashMap<int64_t, int64_t> m;
  for (int64_t i = 0; i < 100; ++i) m.Insert(i, i);
  const auto before = m.stats().probes;
  const FlatHashMap<int64_t, int64_t>& cm = m;
  for (int64_t i = 0; i < 100; ++i) cm.Find(i);
  EXPECT_EQ(m.stats().probes, before);
}

TEST(FlatHashMapTest, AdversarialKeysSameLowBits) {
  // Keys congruent mod a large power of two defeat an identity hash; the
  // mixer must keep probes short enough for this to terminate quickly.
  FlatHashMap<int64_t, int64_t> m;
  for (int64_t i = 0; i < 2000; ++i) m.Insert(i << 32, i);
  for (int64_t i = 0; i < 2000; ++i) EXPECT_EQ(*m.Find(i << 32), i);
}

// Property: a random operation sequence matches std::unordered_map.
class FlatHashMapFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatHashMapFuzz, MatchesStdUnorderedMap) {
  Rng rng(GetParam());
  FlatHashMap<int64_t, int64_t> m;
  std::unordered_map<int64_t, int64_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const int64_t key = rng.UniformInt(0, 500);  // Small space → collisions.
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // Insert.
        const int64_t val = rng.UniformInt(0, 1 << 20);
        const bool inserted = m.Insert(key, val).second;
        const bool ref_inserted = ref.emplace(key, val).second;
        ASSERT_EQ(inserted, ref_inserted);
        break;
      }
      case 1: {  // Erase.
        ASSERT_EQ(m.Erase(key), ref.erase(key) > 0);
        break;
      }
      case 2: {  // Find.
        const auto it = ref.find(key);
        const int64_t* v = m.Find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v != nullptr) ASSERT_EQ(*v, it->second);
        break;
      }
      case 3: {  // Size.
        ASSERT_EQ(m.size(), static_cast<int64_t>(ref.size()));
        break;
      }
    }
  }
  // Final full cross-check.
  ASSERT_EQ(m.size(), static_cast<int64_t>(ref.size()));
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.Find(k), nullptr);
    ASSERT_EQ(*m.Find(k), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatHashMapFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(FlatHashSetTest, BasicOps) {
  FlatHashSet<int64_t> s;
  EXPECT_TRUE(s.Insert(3));
  EXPECT_FALSE(s.Insert(3));
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(4));
  EXPECT_EQ(s.size(), 1);
  EXPECT_TRUE(s.Erase(3));
  EXPECT_FALSE(s.Erase(3));
  EXPECT_TRUE(s.empty());
}

// A moved-from map is empty and usable, whether moved by construction or
// assignment; the moved-to map has the contents.
TEST(FlatHashMapTest, MovedFromMapIsEmptyAndUsable) {
  for (const bool by_assignment : {false, true}) {
    FlatHashMap<int64_t, int64_t> src;
    for (int64_t i = 0; i < 100; ++i) src.Insert(i, i * 3);
    FlatHashMap<int64_t, int64_t> dst;
    dst.Insert(-1, -1);
    if (by_assignment) {
      dst = std::move(src);
    } else {
      FlatHashMap<int64_t, int64_t> moved(std::move(src));
      dst = moved;
    }
    EXPECT_EQ(dst.size(), 100);
    EXPECT_EQ(dst.Find(-1), nullptr);
    EXPECT_EQ(*dst.Find(42), 126);

    EXPECT_EQ(src.size(), 0);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(src.empty());
    EXPECT_EQ(src.Find(42), nullptr);
    EXPECT_FALSE(src.Contains(7));
    EXPECT_FALSE(src.Erase(7));
    EXPECT_TRUE(src.Keys().empty());
    EXPECT_TRUE(src.Insert(7, 70).second);
    EXPECT_EQ(src.GetOrInsert(8), 0);
    EXPECT_EQ(src.size(), 2);
    EXPECT_EQ(*src.Find(7), 70);
    for (int64_t i = 0; i < 1000; ++i) src.Insert(i + 100, i);
    EXPECT_EQ(src.size(), 1002);
    EXPECT_EQ(*src.Find(1099), 999);
  }
}

}  // namespace
}  // namespace ringo
