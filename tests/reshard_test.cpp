// Dynamic re-sharding: online shard splits/merges under live traffic.
// Covers key conservation and routing consistency across split/merge,
// linearizable lookups while migration races concurrent insert/erase/move
// (the token-count invariant), shard retirement on merge, and the
// ReshardController policy (split on a hot shard, merge when cold). The
// churn tests are in the ThreadSanitizer CI job's regex.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "bench_core/rng.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/reshard.hpp"
#include "shard/sharded_map.hpp"
#include "trees/tree_checks.hpp"

namespace shard = sftree::shard;
namespace trees = sftree::trees;
namespace stm = sftree::stm;
using sftree::Key;
using sftree::Value;
using sftree::bench::Rng;

namespace {

// First `count` keys (ascending) currently routed to shard `idx`.
std::vector<Key> keysForShard(shard::ShardedMap& map, int idx, int count) {
  std::vector<Key> out;
  for (Key k = 0; static_cast<int>(out.size()) < count; ++k) {
    if (map.shardIndexFor(k) == idx) out.push_back(k);
  }
  return out;
}

TEST(ReshardTest, SplitConservesKeysAndPartition) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 4;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  constexpr Key kKeys = 2'000;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(map.insert(k, k * 10));
  const auto before = map.keysInOrder();

  const int newIdx = map.splitShard(0);
  ASSERT_GE(newIdx, 0);
  EXPECT_EQ(map.shardCount(), 5);

  // Abstraction unchanged; every key is where the routing now says.
  EXPECT_EQ(map.keysInOrder(), before);
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(map.sizeEstimate(), static_cast<std::int64_t>(kKeys));
  map.quiesce();
  std::size_t total = 0;
  for (int i = 0; i < map.shardCount(); ++i) {
    for (const Key k : map.shard(i).keysInOrder()) {
      EXPECT_EQ(map.shardIndexFor(k), i) << "key " << k << " misrouted";
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kKeys));

  const auto rs = map.reshardStats();
  EXPECT_EQ(rs.splits, 1u);
  EXPECT_GT(rs.keysMigrated, 0u);
  // Dual-route publication + settled publication.
  EXPECT_EQ(rs.tablePublishes, 2u);

  // The new shard took a nontrivial share of the split shard's slots.
  const auto owners = map.slotOwners();
  EXPECT_GT(std::count(owners.begin(), owners.end(), newIdx), 0);
}

TEST(ReshardTest, MergeConservesKeysAndRetiresShard) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 4;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  constexpr Key kKeys = 2'000;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(map.insert(k, k + 7));
  const auto before = map.keysInOrder();

  ASSERT_TRUE(map.mergeShards(1, 0));
  EXPECT_EQ(map.shardCount(), 3);
  EXPECT_EQ(map.keysInOrder(), before);
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(map.sizeEstimate(), static_cast<std::int64_t>(kKeys));

  // Values survived the migration.
  for (Key k = 0; k < kKeys; ++k) {
    const auto v = map.get(k);
    ASSERT_TRUE(v.has_value()) << "key " << k;
    EXPECT_EQ(*v, k + 7);
  }

  const auto rs = map.reshardStats();
  EXPECT_EQ(rs.merges, 1u);
  EXPECT_GT(rs.keysMigrated, 0u);
  EXPECT_GT(rs.retiredArenaBytes, 0u);

  // No slot routes to a retired tree.
  for (const int owner : map.slotOwners()) {
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, map.shardCount());
  }
  map.quiesce();
  for (int i = 0; i < map.shardCount(); ++i) {
    const auto res = trees::checkSFTree(map.shard(i));
    EXPECT_TRUE(res.ok) << "shard " << i << ": " << res.error;
  }
}

TEST(ReshardTest, SplitWorksInDedicatedThreadMode) {
  shard::ShardedMapConfig cfg;
  cfg.shards = 2;
  cfg.scheduler = nullptr;  // each shard runs its own maintenance thread
  shard::ShardedMap map(cfg);

  for (Key k = 0; k < 600; ++k) map.insert(k, k);
  const int newIdx = map.splitShard(1);
  ASSERT_GE(newIdx, 0);
  EXPECT_EQ(map.shardCount(), 3);
  for (int i = 0; i < map.shardCount(); ++i) {
    EXPECT_TRUE(map.shard(i).maintenanceRunning()) << "shard " << i;
  }
  ASSERT_TRUE(map.mergeShards(newIdx, 0));
  EXPECT_EQ(map.shardCount(), 2);
  map.quiesce();
  EXPECT_EQ(map.size(), 600u);
}

// Keys-conserved under churn: mutators run insert/erase with per-key net
// accounting while split/merge cycles run concurrently; afterwards the map
// must hold exactly the net-inserted keys.
TEST(ReshardTest, KeysConservedWhileReshardingRacesMutators) {
  shard::MaintenanceSchedulerConfig schedCfg;
  schedCfg.workers = 2;
  shard::MaintenanceScheduler scheduler(schedCfg);

  shard::ShardedMapConfig cfg;
  cfg.shards = 3;
  cfg.routingSlots = 32;
  cfg.migrationBatch = 16;  // more batch boundaries = more race windows
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  constexpr int kThreads = 3;
  constexpr Key kRange = 256;
  constexpr int kOpsPerThread = 8'000;
  std::vector<std::atomic<std::int64_t>> net(kRange);
  std::atomic<bool> stopResharder{false};
  std::barrier sync(kThreads + 1);

  std::thread resharder([&] {
    sync.arrive_and_wait();
    Rng rng(11);
    while (!stopResharder.load(std::memory_order_acquire)) {
      const int n = map.shardCount();
      const int victim = static_cast<int>(rng.nextBounded(
          static_cast<std::uint64_t>(n)));
      if (n < 6 && rng.nextBool()) {
        map.splitShard(victim);
      } else if (n > 2) {
        map.mergeShards(victim, (victim + 1) % n);
      }
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(5'000 + t);
      sync.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Key k = static_cast<Key>(rng.nextBounded(kRange));
        if (rng.nextBool()) {
          if (map.insert(k, k)) net[k].fetch_add(1);
        } else {
          if (map.erase(k)) net[k].fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  stopResharder.store(true, std::memory_order_release);
  resharder.join();

  std::int64_t expected = 0;
  std::vector<Key> expectedKeys;
  for (Key k = 0; k < kRange; ++k) {
    ASSERT_GE(net[k].load(), 0);
    ASSERT_LE(net[k].load(), 1);
    if (net[k].load() == 1) expectedKeys.push_back(k);
    expected += net[k].load();
  }

  map.quiesce();
  // An insert placed outside its key range would still be counted by the
  // in-order walks below; the range check catches it.
  for (int i = 0; i < map.shardCount(); ++i) {
    const auto res = trees::checkSFTree(map.shard(i));
    EXPECT_TRUE(res.ok) << "shard " << i << ": " << res.error;
  }
  EXPECT_EQ(map.keysInOrder(), expectedKeys);
  EXPECT_EQ(map.size(), static_cast<std::size_t>(expected));
  EXPECT_EQ(map.sizeEstimate(), expected);
  const auto rs = map.reshardStats();
  EXPECT_GT(rs.splits + rs.merges, 0u) << "the race never actually ran";
}

// Linearizable lookups during migration: tokens bounce between random slots
// (including composed cross-shard moves) while an observer takes whole-map
// transactional snapshots and split/merge cycles republish the routing
// table. A key visible in both the migration source and destination — or in
// neither — would change the observed cardinality.
TEST(ReshardTest, SnapshotsStayLinearizableAcrossSplitMergeCycles) {
  shard::MaintenanceSchedulerConfig schedCfg;
  schedCfg.workers = 1;
  shard::MaintenanceScheduler scheduler(schedCfg);

  shard::ShardedMapConfig cfg;
  cfg.shards = 4;
  cfg.routingSlots = 32;
  cfg.migrationBatch = 8;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  constexpr Key kRange = 192;
  constexpr int kTokens = 48;
  for (Key k = 0; k < kTokens; ++k) ASSERT_TRUE(map.insert(k, 1'000 + k));

  constexpr int kMovers = 2;
  constexpr int kMovesPerThread = 6'000;
  std::atomic<bool> stop{false};
  std::atomic<int> snapshotViolations{0};
  std::atomic<int> reshardCycles{0};

  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t seen = map.countRange(0, kRange - 1);
      if (seen != kTokens) snapshotViolations.fetch_add(1);
    }
  });

  std::thread resharder([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const int newIdx = map.splitShard(0);
      if (newIdx >= 0) map.mergeShards(newIdx, 0);
      reshardCycles.fetch_add(1);
    }
  });

  std::barrier sync(kMovers);
  std::vector<std::thread> movers;
  for (int t = 0; t < kMovers; ++t) {
    movers.emplace_back([&, t] {
      Rng rng(777 + t);
      sync.arrive_and_wait();
      for (int i = 0; i < kMovesPerThread; ++i) {
        const Key from = static_cast<Key>(rng.nextBounded(kRange));
        const Key to = static_cast<Key>(rng.nextBounded(kRange));
        map.move(from, to);
      }
    });
  }
  for (auto& th : movers) th.join();
  stop.store(true, std::memory_order_release);
  observer.join();
  resharder.join();

  EXPECT_EQ(snapshotViolations.load(), 0)
      << "a snapshot saw a migrating key at both shards or at neither";
  EXPECT_GT(reshardCycles.load(), 0);

  map.quiesce();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kTokens));
  EXPECT_EQ(map.sizeEstimate(), kTokens);

  // Every token payload survives exactly once.
  std::vector<Value> values;
  for (const Key k : map.keysInOrder()) {
    const auto v = map.get(k);
    ASSERT_TRUE(v.has_value());
    values.push_back(*v);
  }
  std::sort(values.begin(), values.end());
  ASSERT_EQ(values.size(), static_cast<std::size_t>(kTokens));
  for (int i = 0; i < kTokens; ++i) EXPECT_EQ(values[i], 1'000 + i);
}

// Composed transactions observe migration atomically: countRangeTx +
// insertTx in one transaction while the routing table flips underneath.
TEST(ReshardTest, ComposedTransactionsSpanMigration) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 2;
  cfg.routingSlots = 16;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  for (Key k = 0; k < 100; ++k) map.insert(k, k);

  std::atomic<bool> stop{false};
  std::thread resharder([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const int newIdx = map.splitShard(0);
      if (newIdx >= 0) map.mergeShards(newIdx, 0);
    }
  });

  for (int i = 0; i < 300; ++i) {
    const Key extra = static_cast<Key>(1'000 + i);
    const auto counts = stm::atomically([&](stm::Tx& tx) {
      const std::size_t before = map.countRangeTx(tx, 0, 100'000);
      map.insertTx(tx, extra, extra);
      const std::size_t after = map.countRangeTx(tx, 0, 100'000);
      return std::make_pair(before, after);
    });
    ASSERT_EQ(counts.second, counts.first + 1) << "iteration " << i;
    ASSERT_TRUE(map.erase(extra));
  }
  stop.store(true, std::memory_order_release);
  resharder.join();

  map.quiesce();
  EXPECT_EQ(map.size(), 100u);
}

TEST(ReshardTest, ControllerSplitsHotShardAndMergesCold) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 2;
  cfg.routingSlots = 32;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  shard::ReshardControllerConfig rcfg;
  rcfg.minShards = 2;
  rcfg.maxShards = 3;
  rcfg.splitFactor = 1.5;
  rcfg.mergeFactor = 0.5;
  rcfg.minOpsPerSample = 256;
  shard::ReshardController ctl(map, rcfg);

  // Baseline sample (tick deltas need a previous reading).
  ctl.sampleAndAct();

  // Hammer shard 0 only: its interval load dwarfs the fair share.
  for (int round = 0; round < 4 && map.shardCount() < 3; ++round) {
    const auto hotKeys = keysForShard(map, 0, 64);
    for (int i = 0; i < 50; ++i) {
      for (const Key k : hotKeys) {
        map.insert(k, k);
        map.erase(k);
      }
    }
    ctl.sampleAndAct();
  }
  EXPECT_GE(ctl.stats().splits, 1u);
  EXPECT_GE(map.shardCount(), 3);

  // Single-hot traffic at the shard ceiling: the split branch is capped
  // out, the two idle shards together fall below the merge threshold, and
  // the coldest pair merges.
  for (int round = 0; round < 8 && ctl.stats().merges == 0; ++round) {
    const auto hotKeys = keysForShard(map, 0, 64);
    for (int i = 0; i < 20; ++i) {
      for (const Key k : hotKeys) {
        map.insert(k, k);
        map.erase(k);
      }
    }
    ctl.sampleAndAct();
  }
  EXPECT_GE(ctl.stats().merges, 1u);
}

// Heat-weighted split policy: two shards carry the SAME traffic volume,
// but one concentrates it on a single key (one routing slot — the skew the
// splay heuristic serves) while the other spreads it evenly. The raw tick
// deltas tie, so the pre-heat policy (heatWeight = 0) must refuse to split;
// the hottest-slot heat term breaks the tie toward the skew-hot shard.
TEST(ReshardTest, HeatWeightedSplitPrefersSkewHotShard) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 2;
  cfg.routingSlots = 32;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  const Key hotKey = keysForShard(map, 0, 1).front();
  const auto spreadKeys = keysForShard(map, 1, 64);
  auto hammer = [&] {
    for (int i = 0; i < 3'000; ++i) {
      map.insert(hotKey, 1);
      map.erase(hotKey);
    }
    const int reps = 3'000 / static_cast<int>(spreadKeys.size());
    for (int i = 0; i < reps; ++i) {
      for (const Key k : spreadKeys) {
        map.insert(k, 1);
        map.erase(k);
      }
    }
  };

  shard::ReshardControllerConfig rcfg;
  rcfg.minShards = 2;
  rcfg.maxShards = 3;
  rcfg.splitFactor = 1.2;
  rcfg.mergeFactor = 0.0;  // merges off: this test is about the split score
  rcfg.minOpsPerSample = 1024;

  {
    rcfg.heatWeight = 0.0;
    shard::ReshardController ctl(map, rcfg);
    ctl.sampleAndAct();  // baseline reading
    hammer();
    EXPECT_FALSE(ctl.sampleAndAct())
        << "equal volume without the heat term must not cross splitFactor";
    EXPECT_EQ(ctl.stats().splits, 0u);
  }

  // Drain the violation backlog the first round left queued, so the second
  // controller's baseline sample sees an idle interval (queue-depth weight
  // alone must not trip the split).
  map.quiesce();

  {
    rcfg.heatWeight = 1.0;
    shard::ReshardController ctl(map, rcfg);
    ctl.sampleAndAct();  // baseline reading
    hammer();
    EXPECT_TRUE(ctl.sampleAndAct());
    EXPECT_EQ(ctl.stats().splits, 1u);
    const auto log = ctl.decisionLog();
    ASSERT_FALSE(log.empty());
    const auto& d = log.back();
    EXPECT_EQ(d.action, shard::ReshardDecision::Action::kSplit);
    EXPECT_EQ(d.shard, 0) << "the skew-hot shard must win the split";
    EXPECT_TRUE(d.acted);
    EXPECT_GT(d.hotSlotHeat, 0.0);
  }
  EXPECT_EQ(map.shardCount(), 3);
}

// Load-aware slot selection: splitShard ranks the victim's slots by their
// slotOpTicks gauges and peels the hottest ones onto the fresh shard, so a
// single scorching slot must land on the new tree — not stay behind by the
// luck of an index interleave.
TEST(ReshardTest, SplitPeelsHottestSlotOntoNewShard) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 2;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  // Background traffic so every slot has a nonzero gauge, then one key
  // hammered hard enough that its slot dominates any interleaving noise.
  constexpr Key kKeys = 2'000;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(map.insert(k, k));
  const Key hotKey = 1'234;
  for (int i = 0; i < 20'000; ++i) ASSERT_TRUE(map.contains(hotKey));

  const auto ticks = map.aggregatedStats().slotOpTicks;
  const int hotSlot = static_cast<int>(std::distance(
      ticks.begin(), std::max_element(ticks.begin(), ticks.end())));
  const int victim = map.slotOwners()[hotSlot];

  const int newIdx = map.splitShard(victim);
  ASSERT_GE(newIdx, 0);
  EXPECT_EQ(map.slotOwners()[hotSlot], newIdx)
      << "the hottest slot stayed on the split shard";
  // The abstraction is untouched by the load-aware selection.
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(map.sizeEstimate(), static_cast<std::int64_t>(kKeys));
}

}  // namespace
