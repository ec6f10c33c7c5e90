// Tests for the NN query cache: exact-match replay (replay-identical
// results, LRU bounds, -0.0/0.0 key canonicalization), the containment scan
// over symbolic reuse payloads, containment reuse soundness, cache
// statistics, thread-safety under a concurrent hammer, and containment-mode
// engine runs that stay sound.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "closed_loop_fixtures.hpp"
#include "core/engine.hpp"
#include "nn/query_cache.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

using testing_fixtures::braking_plant;
using testing_fixtures::threshold_controller;

NnQueryCache::Result make_result(std::vector<std::size_t> commands, const Box& output,
                                 NnQueryCache::Reuse reuse = {}) {
  return NnQueryCache::Result{std::move(commands), output, std::move(reuse)};
}

TEST(QueryCache, ModeNamesRoundTrip) {
  for (const NnCacheMode mode : {NnCacheMode::kOff, NnCacheMode::kContainment}) {
    EXPECT_EQ(parse_nn_cache_mode(to_string(mode)), mode);
  }
  EXPECT_FALSE(parse_nn_cache_mode("bogus").has_value());
  EXPECT_FALSE(parse_nn_cache_mode("").has_value());
  // The retired exact-match-only mode is an unknown value like any other.
  EXPECT_FALSE(parse_nn_cache_mode("memo").has_value());
  EXPECT_EQ(NnCacheConfig{}.mode, NnCacheMode::kOff);
}

TEST(QueryCache, ExactFindReturnsInsertedResult) {
  NnQueryCache cache;
  const Box input{Interval{0.0, 1.0}, Interval{-1.0, 1.0}};
  EXPECT_FALSE(cache.find_exact(3, 0, input).has_value());
  cache.insert(3, 0, input, make_result({1, 2}, Box{Interval{5.0, 6.0}}));
  const auto hit = cache.find_exact(3, 0, input);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->commands, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(hit->output_box, (Box{Interval{5.0, 6.0}}));
  // Different network id, domain tag or box: miss.
  EXPECT_FALSE(cache.find_exact(4, 0, input).has_value());
  EXPECT_FALSE(cache.find_exact(3, 1, input).has_value());
  EXPECT_FALSE(cache.find_exact(3, 0, Box{Interval{0.0, 2.0}, Interval{-1.0, 1.0}}).has_value());
}

TEST(QueryCache, DomainTagsKeepEntriesApart) {
  // The same (net, box) query under two abstract domains must never share
  // an entry: replaying an interval-domain result for a symbolic query (or
  // vice versa) substitutes one transformer's enclosure for another's.
  NnQueryCache cache;
  const Box input{Interval{0.0, 1.0}};
  cache.insert(0, 0, input, make_result({0}, Box{Interval{1.0, 2.0}}));
  cache.insert(0, 1, input, make_result({1}, Box{Interval{3.0, 4.0}}));
  const auto d0 = cache.find_exact(0, 0, input);
  const auto d1 = cache.find_exact(0, 1, input);
  ASSERT_TRUE(d0.has_value());
  ASSERT_TRUE(d1.has_value());
  EXPECT_EQ(d0->commands, std::vector<std::size_t>{0});
  EXPECT_EQ(d1->commands, std::vector<std::size_t>{1});
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(QueryCache, NegativeZeroKeysMatchPositiveZero) {
  // Box::operator== compares doubles, so {-0.0} == {0.0}; the hash must
  // agree or the map's equal-keys-equal-hash invariant breaks.
  NnQueryCache cache;
  const Box pos{Interval{0.0, 1.0}};
  const Box neg{Interval{-0.0, 1.0}};
  ASSERT_TRUE(pos == neg);
  cache.insert(0, 0, pos, make_result({0}, Box{Interval{1.0}}));
  EXPECT_TRUE(cache.find_exact(0, 0, neg).has_value());
}

TEST(QueryCache, LruEvictionBoundsEntries) {
  NnCacheConfig config;
  config.max_entries = 8;  // one slot per shard
  NnQueryCache cache(config);
  for (int i = 0; i < 100; ++i) {
    cache.insert(0, 0, Box{Interval{static_cast<double>(i), i + 1.0}},
                 make_result({0}, Box{Interval{0.0}}));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 100u);
  EXPECT_LE(stats.entries, 8u);
  EXPECT_EQ(stats.evictions, stats.insertions - stats.entries);
  EXPECT_GT(stats.bytes, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(QueryCache, FindContainingPrefersTightestCoveringBox) {
  NnQueryCache cache;
  const auto bounds_for = [](const Box& box) {
    auto sb = std::make_shared<SymbolicBounds>();
    sb->input = box;
    return NnQueryCache::Reuse{std::move(sb)};
  };
  const Box wide{Interval{-10.0, 10.0}};
  const Box tight{Interval{-1.0, 1.0}};
  const Box disjoint{Interval{5.0, 6.0}};
  cache.insert(0, 0, wide, make_result({0}, Box{Interval{0.0}}, bounds_for(wide)));
  cache.insert(0, 0, tight, make_result({0}, Box{Interval{0.0}}, bounds_for(tight)));
  cache.insert(0, 0, disjoint, make_result({0}, Box{Interval{0.0}}, bounds_for(disjoint)));
  // Entries without a reuse payload (interval domain) are never reused.
  cache.insert(0, 0, Box{Interval{-20.0, 20.0}}, make_result({0}, Box{Interval{0.0}}));

  const Box query{Interval{-0.5, 0.5}};
  const NnQueryCache::Reuse found = cache.find_containing(0, 0, query);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->input, tight);
  // Other network id: nothing to reuse.
  EXPECT_EQ(cache.find_containing(1, 0, query), nullptr);
  // Other domain tag: a covering symbolic entry of domain 0 must not leak.
  EXPECT_EQ(cache.find_containing(0, 1, query), nullptr);
  // Query not covered by any entry: no reuse.
  EXPECT_EQ(cache.find_containing(0, 0, Box{Interval{9.0, 11.0}}), nullptr);
}

TEST(QueryCache, StatsCountHitsMissesAndKinds) {
  NnQueryCache cache;
  cache.count_hit(false);
  cache.count_hit(true);
  cache.count_miss(false);
  cache.count_miss(true);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.containment_hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.reuse_fallbacks, 1u);
  EXPECT_EQ(stats.lookups(), 4u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(QueryCache, ConcurrentHammerIsConsistent) {
  NnCacheConfig config;
  config.max_entries = 64;
  NnQueryCache cache(config);
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  std::atomic<std::uint64_t> observed_hits{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &observed_hits, t] {
      Rng rng(1234 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const auto key = static_cast<double>(rng.uniform_int(0, 99));
        const Box box{Interval{key, key + 1.0}};
        const std::size_t net = static_cast<std::size_t>(rng.uniform_int(0, 4));
        const auto tag = static_cast<NnQueryCache::DomainTag>(rng.uniform_int(0, 2));
        if (rng.chance(0.5)) {
          // The written payload encodes (net, domain); a hit that crossed
          // either boundary would fail the assertions below.
          cache.insert(net, tag, box, NnQueryCache::Result{{net * 4 + tag}, box, {}});
        } else if (const auto hit = cache.find_exact(net, tag, box)) {
          observed_hits.fetch_add(1);
          ASSERT_EQ(hit->commands, std::vector<std::size_t>{net * 4 + tag});
          ASSERT_EQ(hit->output_box, box);
        }
        if (rng.chance(0.01)) {
          (void)cache.find_containing(net, tag, box);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_GT(observed_hits.load(), 0u);
  EXPECT_LE(cache.stats().entries, 64u);
}

/// Controller-level fixture: braking loop with a threshold controller whose
/// single network is exact, so abstract steps prune to one command away
/// from the threshold.
struct CacheLoopSetup {
  std::unique_ptr<Dynamics> plant = braking_plant();
  std::unique_ptr<NeuralController> ctrl = threshold_controller(-1e9, -8.0);
  ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  BoxRegion error{{{0, Interval{-1e9, 0.0}}}};
  BoxRegion target{{{0, Interval{20.0, 1e9}}}};

  EngineConfig config() const {
    static const TaylorIntegrator integrator;
    EngineConfig ec;
    ec.verify.reach.control_steps = 30;
    ec.verify.reach.integration_steps = 2;
    ec.verify.reach.gamma = 4;
    ec.verify.reach.integrator = &integrator;
    ec.verify.max_refinement_depth = 2;
    ec.verify.split_dims = {1};
    ec.verify.threads = 8;
    return ec;
  }

  SymbolicSet cells() const {
    SymbolicSet set;
    for (int i = 0; i < 4; ++i) {
      set.push_back({Box{Interval{4.0 + i, 5.0 + i}, Interval{-2.0, 2.0}}, 0});
    }
    return set;
  }
};

TEST(QueryCache, ContainmentModeStepAbstractReplaysExactResult) {
  const auto ctrl = threshold_controller(5.0, -8.0);
  NnCacheConfig cache;
  cache.mode = NnCacheMode::kContainment;
  ctrl->configure_cache(cache);
  const Box state{Interval{0.0, 1.0}, Interval{-1.0, 1.0}};
  const AbstractControlStep first = ctrl->step_abstract(state, 0);
  const AbstractControlStep second = ctrl->step_abstract(state, 0);
  EXPECT_EQ(first.commands, second.commands);
  EXPECT_TRUE(first.network_output == second.network_output);
  ASSERT_NE(ctrl->query_cache(), nullptr);
  const auto stats = ctrl->query_cache()->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.containment_hits, 0u) << "an equal box replays, it is not re-concretized";
  EXPECT_EQ(stats.misses, 1u);

  // And the replayed result matches what a cacheless controller computes.
  const auto bare = threshold_controller(5.0, -8.0);
  bare->configure_cache(NnCacheConfig{NnCacheMode::kOff});
  const AbstractControlStep fresh = bare->step_abstract(state, 0);
  EXPECT_EQ(fresh.commands, second.commands);
  EXPECT_TRUE(fresh.network_output == second.network_output);
}

TEST(QueryCache, ContainmentReuseIsSoundOnSampledPoints) {
  const auto ctrl = threshold_controller(5.0, -8.0);
  NnCacheConfig cache;
  cache.mode = NnCacheMode::kContainment;
  ctrl->configure_cache(cache);
  const Box parent{Interval{0.0, 2.0}, Interval{-1.0, 1.0}};
  (void)ctrl->step_abstract(parent, 0);  // populate the cache
  const Box child{Interval{0.5, 1.0}, Interval{0.0, 0.5}};
  const AbstractControlStep reused = ctrl->step_abstract(child, 0);
  ASSERT_NE(ctrl->query_cache(), nullptr);
  const auto stats = ctrl->query_cache()->stats();
  EXPECT_EQ(stats.containment_hits, 1u) << "child box should reuse the parent's bounds";

  // Soundness: every concretely reachable command is in the abstract set.
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const Vec point{rng.uniform(child[0].lo(), child[0].hi()),
                    rng.uniform(child[1].lo(), child[1].hi())};
    const std::size_t cmd = ctrl->step(point, 0);
    EXPECT_NE(std::find(reused.commands.begin(), reused.commands.end(), cmd),
              reused.commands.end());
  }
}

TEST(QueryCache, OffModeDisablesCacheEntirely) {
  const auto ctrl = threshold_controller(5.0, -8.0);
  ctrl->configure_cache(NnCacheConfig{NnCacheMode::kOff});
  EXPECT_EQ(ctrl->query_cache(), nullptr);
  const Box state{Interval{0.0, 1.0}, Interval{-1.0, 1.0}};
  (void)ctrl->step_abstract(state, 0);  // must not crash without a cache
}

TEST(QueryCache, ContainmentEngineRunKeepsLeafVerdictsSound) {
  // Containment reuse may widen enclosures (fewer proved leaves is
  // acceptable), but a cell proved safe under containment must also be
  // proved safe by the exact cacheless analysis on this exact fixture.
  CacheLoopSetup s;
  NnCacheConfig cache;
  cache.mode = NnCacheMode::kContainment;
  s.ctrl->configure_cache(cache);
  const VerificationEngine engine(s.system, s.error, s.target);
  const VerifyReport with_cache = engine.run(s.cells(), s.config()).report;

  s.ctrl->configure_cache(NnCacheConfig{NnCacheMode::kOff});
  const VerifyReport without = engine.run(s.cells(), s.config()).report;

  std::size_t proved_with = 0;
  for (const CellOutcome& leaf : with_cache.leaves) {
    proved_with += leaf.outcome == ReachOutcome::kProvedSafe ? 1 : 0;
  }
  std::size_t proved_without = 0;
  for (const CellOutcome& leaf : without.leaves) {
    proved_without += leaf.outcome == ReachOutcome::kProvedSafe ? 1 : 0;
  }
  EXPECT_LE(proved_with, proved_without);
  EXPECT_GT(proved_with, 0u);
}

}  // namespace
}  // namespace nncs
