#include "storage/string_pool.h"

#include <gtest/gtest.h>

#include <string_view>
#include <thread>
#include <vector>

#include "table/key_normalize.h"
#include "util/metrics.h"

namespace ringo {
namespace {

TEST(StringPoolTest, InternReturnsStableIds) {
  StringPool pool;
  const auto a = pool.GetOrAdd("alpha");
  const auto b = pool.GetOrAdd("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.GetOrAdd("alpha"), a);
  EXPECT_EQ(pool.Get(a), "alpha");
  EXPECT_EQ(pool.Get(b), "beta");
  EXPECT_EQ(pool.size(), 2);
}

TEST(StringPoolTest, EmptyStringInternable) {
  StringPool pool;
  const auto id = pool.GetOrAdd("");
  EXPECT_EQ(pool.Get(id), "");
  EXPECT_EQ(pool.GetOrAdd(""), id);
}

// InternBatch gives exactly the ids of GetOrAdd called on each string in
// order, duplicates and already-interned strings included, and bumps the
// version only when the batch adds a string.
TEST(StringPoolTest, InternBatchMatchesGetOrAddInOrder) {
  const std::vector<std::string_view> strs = {"b", "new1", "a", "new2",
                                              "new1", "", "b"};
  std::vector<uint64_t> hashes;
  for (const std::string_view s : strs) hashes.push_back(StringPool::Hash(s));
  StringPool batch;
  StringPool single;
  for (StringPool* p : {&batch, &single}) {
    p->GetOrAdd("a");
    p->GetOrAdd("b");
  }
  const uint64_t v0 = batch.Version();
  std::vector<StringPool::Id> ids(strs.size());
  batch.InternBatch(strs, hashes, ids);
  EXPECT_GT(batch.Version(), v0);
  for (size_t i = 0; i < strs.size(); ++i) {
    EXPECT_EQ(ids[i], single.GetOrAdd(strs[i])) << strs[i];
  }
  EXPECT_EQ(batch.size(), single.size());

  const uint64_t v1 = batch.Version();
  std::vector<StringPool::Id> again(strs.size());
  batch.InternBatch(strs, hashes, again);
  EXPECT_EQ(again, ids);
  EXPECT_EQ(batch.Version(), v1);  // Nothing new: no bump.
}

TEST(StringPoolTest, FindWithoutInsert) {
  StringPool pool;
  EXPECT_EQ(pool.Find("nope"), StringPool::kInvalidId);
  const auto id = pool.GetOrAdd("yes");
  EXPECT_EQ(pool.Find("yes"), id);
}

TEST(StringPoolTest, ManyStringsSurviveRehash) {
  StringPool pool;
  std::vector<StringPool::Id> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(pool.GetOrAdd("key-" + std::to_string(i)));
  }
  EXPECT_EQ(pool.size(), 5000);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(pool.Get(ids[i]), "key-" + std::to_string(i));
    EXPECT_EQ(pool.Find("key-" + std::to_string(i)), ids[i]);
  }
}

TEST(StringPoolTest, BinaryContentSafe) {
  StringPool pool;
  const std::string with_nul("a\0b", 3);
  const auto id = pool.GetOrAdd(with_nul);
  EXPECT_EQ(pool.Get(id), std::string_view(with_nul));
  EXPECT_NE(id, pool.GetOrAdd("a"));
}

TEST(StringPoolTest, ConcurrentGetOrAddIsConsistent) {
  StringPool pool;
  constexpr int kThreads = 8;
  constexpr int kStrings = 500;
  std::vector<std::vector<StringPool::Id>> ids(kThreads,
                                               std::vector<StringPool::Id>(kStrings));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kStrings; ++i) {
        ids[t][i] = pool.GetOrAdd("shared-" + std::to_string(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(pool.size(), kStrings);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]) << "all threads must agree on ids";
  }
}

TEST(StringPoolTest, MemoryUsagePositiveAndGrows) {
  StringPool pool;
  const int64_t before = pool.MemoryUsageBytes();
  for (int i = 0; i < 1000; ++i) pool.GetOrAdd("payload-" + std::to_string(i));
  EXPECT_GT(pool.MemoryUsageBytes(), before);
}

TEST(StringPoolTest, VersionBumpsOnlyOnNewInterns) {
  StringPool pool;
  const uint64_t v0 = pool.Version();
  pool.GetOrAdd("alpha");
  const uint64_t v1 = pool.Version();
  EXPECT_GT(v1, v0);
  pool.GetOrAdd("alpha");  // Re-intern: no new id, no version bump.
  EXPECT_EQ(pool.Version(), v1);
  pool.GetOrAdd("beta");
  EXPECT_GT(pool.Version(), v1);
}

// The cached byte-order ranks: repeated calls return the memoized vector
// (and bump the hit counter, not the build counter) until a NEW intern
// invalidates it; the rebuilt ranks must match the uncached reference
// implementation exactly.
TEST(StringPoolTest, ByteOrderRanksCachedBehindVersion) {
  metrics::SetEnabled(true);
  StringPool pool;
  for (const char* s : {"pear", "apple", "zebra", "apples", "Pear", ""}) {
    pool.GetOrAdd(s);
  }

  const int64_t hits0 = metrics::CounterValue("string_pool/rank_cache_hit");
  const int64_t builds0 =
      metrics::CounterValue("string_pool/rank_cache_build");
  const auto ranks1 = pool.ByteOrderRanks();
  EXPECT_EQ(*ranks1, internal::ByteOrderRanks(pool));

  // Same version: the second call is a cache hit on the same vector.
  const auto ranks2 = pool.ByteOrderRanks();
  EXPECT_EQ(ranks1.get(), ranks2.get());
  EXPECT_EQ(metrics::CounterValue("string_pool/rank_cache_build") - builds0,
            1);
  EXPECT_EQ(metrics::CounterValue("string_pool/rank_cache_hit") - hits0, 1);

  // Re-interning an existing string does not invalidate...
  pool.GetOrAdd("apple");
  EXPECT_EQ(pool.ByteOrderRanks().get(), ranks1.get());

  // ...but a new intern does: the next call rebuilds, and the new ranks
  // again match the reference (which re-sorts from scratch every call).
  pool.GetOrAdd("banana");
  const auto ranks3 = pool.ByteOrderRanks();
  EXPECT_NE(ranks3.get(), ranks1.get());
  EXPECT_EQ(*ranks3, internal::ByteOrderRanks(pool));
  EXPECT_EQ(metrics::CounterValue("string_pool/rank_cache_build") - builds0,
            2);

  // The old shared_ptr stays valid for readers that grabbed it pre-bump.
  EXPECT_EQ(ranks1->size(), 6u);
}

}  // namespace
}  // namespace ringo
