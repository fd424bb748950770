#include "serve/answer_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "metrics/metrics.h"

namespace lcaknap::serve {
namespace {

TEST(AnswerCache, MissThenHit) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  config.shards = 4;
  AnswerCache cache(config, registry);
  EXPECT_FALSE(cache.get(7).has_value());
  cache.put(7, true);
  const auto hit = cache.get(7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->answer);
  EXPECT_FALSE(hit->paranoia_due);  // paranoia off by default
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(registry.counter_value("serve_cache_hits_total"), 1u);
  EXPECT_EQ(registry.counter_value("serve_cache_misses_total"), 1u);
}

TEST(AnswerCache, ShardCountRoundsUpToPowerOfTwo) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 64;
  config.shards = 5;
  const AnswerCache cache(config, registry);
  EXPECT_EQ(cache.shard_count(), 8u);
}

TEST(AnswerCache, ShardsNeverExceedCapacity) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 2;
  config.shards = 16;  // would leave 14 shards with zero entries
  const AnswerCache cache(config, registry);
  EXPECT_LE(cache.shard_count(), 2u);
}

TEST(AnswerCache, EvictsLeastRecentlyUsed) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 2;
  config.shards = 1;  // single shard so LRU order is global
  AnswerCache cache(config, registry);
  cache.put(1, true);
  cache.put(2, false);
  ASSERT_TRUE(cache.get(1).has_value());  // refresh 1; 2 is now LRU
  cache.put(3, true);                     // evicts 2
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(registry.counter_value("serve_cache_evictions_total"), 1u);
}

TEST(AnswerCache, ZeroCapacityDisablesCaching) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 0;
  AnswerCache cache(config, registry);
  cache.put(1, true);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(AnswerCache, ParanoiaFlagsEveryNthHit) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 8;
  config.paranoia_every = 3;
  AnswerCache cache(config, registry);
  cache.put(1, true);
  std::size_t due = 0;
  for (int i = 0; i < 9; ++i) {
    const auto hit = cache.get(1);
    ASSERT_TRUE(hit.has_value());
    due += hit->paranoia_due ? 1 : 0;
  }
  EXPECT_EQ(due, 3u);  // hits 3, 6, 9
}

TEST(AnswerCache, ParanoiaCountersTrackViolations) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  AnswerCache cache(config, registry);
  cache.record_paranoia(true);
  cache.record_paranoia(false);
  cache.record_paranoia(true);
  EXPECT_EQ(cache.paranoia_checks(), 3u);
  EXPECT_EQ(cache.paranoia_violations(), 1u);
  EXPECT_EQ(registry.counter_value("serve_cache_paranoia_checks_total"), 3u);
  EXPECT_EQ(registry.counter_value("serve_cache_paranoia_violations_total"), 1u);
}

TEST(AnswerCache, UpdatingAnExistingKeyDoesNotGrow) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 4;
  config.shards = 1;
  AnswerCache cache(config, registry);
  cache.put(1, true);
  cache.put(1, false);
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->answer);
}

TEST(AnswerCache, ConcurrentMixedTrafficConservesCounters) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 256;
  config.shards = 8;
  AnswerCache cache(config, registry);
  constexpr int kThreads = 4;
  constexpr int kOps = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const auto item = static_cast<std::size_t>((t * kOps + i) % 512);
        if (!cache.get(item).has_value()) cache.put(item, item % 2 == 0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_LE(cache.size(), 256u);
  // Cached answers are never corrupted by races.
  for (std::size_t item = 0; item < 512; ++item) {
    const auto hit = cache.get(item);
    if (hit.has_value()) {
      EXPECT_EQ(hit->answer, item % 2 == 0);
    }
  }
}

// --- generations (epoch-scoped invalidation; ISSUE 10) ---------------------

TEST(AnswerCacheGeneration, BumpIsMonotoneAndCounted) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  AnswerCache cache(config, registry);
  EXPECT_EQ(cache.generation(), 0u);
  EXPECT_EQ(cache.invalidations(), 0u);

  EXPECT_TRUE(cache.bump_generation(3));
  EXPECT_EQ(cache.generation(), 3u);
  // Equal or lower targets are ignored — the generation never moves back.
  EXPECT_FALSE(cache.bump_generation(3));
  EXPECT_FALSE(cache.bump_generation(1));
  EXPECT_EQ(cache.generation(), 3u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(registry.counter_value("serve_cache_invalidations_total"), 1u);
}

TEST(AnswerCacheGeneration, StaleEntryDropsAsAMissNeverAStaleAnswer) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  AnswerCache cache(config, registry);
  cache.put(7, true);
  ASSERT_TRUE(cache.get(7).has_value());

  EXPECT_TRUE(cache.bump_generation(1));
  // The epoch-0 answer must never surface after the advance: the lookup
  // reports a miss and erases the entry.
  EXPECT_FALSE(cache.get(7).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(AnswerCacheGeneration, InvalidationIsLazyEntriesDieOnLookup) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 64;
  AnswerCache cache(config, registry);
  for (std::size_t item = 0; item < 32; ++item) cache.put(item, true);
  ASSERT_EQ(cache.size(), 32u);

  // O(1) advance: no shard is scanned, the stale entries are still resident…
  EXPECT_TRUE(cache.bump_generation(1));
  EXPECT_EQ(cache.size(), 32u);
  // …and every subsequent lookup misses and reaps its entry.
  for (std::size_t item = 0; item < 32; ++item) {
    EXPECT_FALSE(cache.get(item).has_value());
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(AnswerCacheGeneration, StaleGenerationPutIsDropped) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  AnswerCache cache(config, registry);
  EXPECT_TRUE(cache.bump_generation(2));
  // A worker still finishing epoch-1 work after the advance must not poison
  // the epoch-2 cache.
  cache.put(9, AnswerCache::Entry{.answer = true, .generation = 1});
  EXPECT_FALSE(cache.get(9).has_value());
  EXPECT_EQ(cache.size(), 0u);

  // A current-generation put lands and reports its generation on the hit.
  cache.put(9, AnswerCache::Entry{.answer = true, .generation = 2});
  const auto hit = cache.get(9);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->generation, 2u);
}

TEST(AnswerCacheGeneration, ConveniencePutStampsTheCurrentGeneration) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  AnswerCache cache(config, registry);
  EXPECT_TRUE(cache.bump_generation(5));
  cache.put(3, true);
  const auto hit = cache.get(3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->generation, 5u);
}

TEST(AnswerCacheGeneration, ClearInvalidatesEverythingViaOneBump) {
  metrics::Registry registry;
  AnswerCacheConfig config;
  config.capacity = 16;
  AnswerCache cache(config, registry);
  cache.put(1, true);
  cache.put(2, false);
  cache.clear();
  EXPECT_EQ(cache.generation(), 1u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(registry.counter_value("serve_cache_invalidations_total"), 1u);
}

}  // namespace
}  // namespace lcaknap::serve
