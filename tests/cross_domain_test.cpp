// Domain binding and cross-shard moves. A transaction runs in exactly one
// stm::Domain: a flat-nested atomically() on another domain, or a data
// structure bound to another domain, throws std::logic_error and rolls the
// enclosing transaction back. A ShardedMap keeps every shard (and its
// routing table) on its one domain, so a cross-shard move() is a
// single-clock transaction; concurrent movers and observers must never see
// a key in zero or two shards. Exercised for both the orec and the NOrec
// backend and run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_core/rng.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/sharded_map.hpp"
#include "stm/stm.hpp"
#include "trees/sftree.hpp"

namespace shard = sftree::shard;
namespace stm = sftree::stm;
namespace trees = sftree::trees;
using sftree::Key;
using sftree::Value;
using sftree::bench::Rng;

namespace {

// --- one transaction, one domain -------------------------------------------

TEST(DomainBindingTest, NestedAtomicallyOnSecondDomainThrows) {
  stm::Domain a;
  stm::Domain b;
  stm::TxField<std::int64_t> x(1);
  int attempts = 0;

  EXPECT_THROW(stm::atomically(a,
                               [&](stm::Tx& tx) {
                                 ++attempts;
                                 x.write(tx, 2);
                                 stm::atomically(b, [](stm::Tx&) {});
                               }),
               std::logic_error);
  // Not retried, and the enclosing transaction left no write behind.
  EXPECT_EQ(attempts, 1);
  EXPECT_FALSE(stm::inTransaction());
  EXPECT_EQ(x.loadRelaxed(), 1);
  EXPECT_EQ(a.clock().now(), 0u);
  EXPECT_EQ(b.clock().now(), 0u);

  // The descriptor is reusable, and nesting on the same domain still
  // flattens into one transaction.
  stm::atomically(a, [&](stm::Tx& tx) {
    x.write(tx, 3);
    stm::atomically(a, [&](stm::Tx& inner) {
      EXPECT_EQ(&inner, &tx);
      EXPECT_EQ(&inner.domain(), &a);
    });
  });
  EXPECT_EQ(x.loadRelaxed(), 3);
}

TEST(DomainBindingTest, StructureOpOnForeignTransactionThrows) {
  stm::Domain a;
  stm::Domain b;
  trees::SFTreeConfig treeCfg;
  treeCfg.domain = &b;
  treeCfg.startMaintenance = false;
  trees::SFTree tree(treeCfg);
  ASSERT_TRUE(tree.insert(5, 50));

  shard::ShardedMapConfig mapCfg;
  mapCfg.shards = 2;
  mapCfg.domain = &b;
  mapCfg.tree.startMaintenance = false;
  shard::ShardedMap map(mapCfg);

  stm::TxField<std::int64_t> x(1);
  EXPECT_THROW(stm::atomically(a,
                               [&](stm::Tx& tx) {
                                 x.write(tx, 2);
                                 tree.insertTx(tx, 7, 70);
                               }),
               std::logic_error);
  EXPECT_THROW(stm::atomically(a,
                               [&](stm::Tx& tx) {
                                 x.write(tx, 2);
                                 map.insertTx(tx, 7, 70);
                               }),
               std::logic_error);
  EXPECT_EQ(x.loadRelaxed(), 1);
  EXPECT_EQ(a.clock().now(), 0u);
  EXPECT_FALSE(tree.contains(7));
  EXPECT_TRUE(tree.contains(5));
  EXPECT_FALSE(map.contains(7));

  // On the right domain the same composition commits.
  stm::atomically(b, [&](stm::Tx& tx) {
    EXPECT_TRUE(tree.insertTx(tx, 7, 70));
    EXPECT_TRUE(map.insertTx(tx, 7, 70));
  });
  EXPECT_TRUE(tree.contains(7));
  EXPECT_EQ(map.get(7), std::optional<Value>(70));
}

// --- cross-shard moves ------------------------------------------------------

// Tokens bounce between random slots of a sharded map while observers count
// them in one whole-map snapshot; the count is invariant under move, so any
// deviation means a key was visible in zero or two shards.
void runCrossShardMoveStress(stm::Config stmCfg) {
  shard::MaintenanceSchedulerConfig schedCfg;
  schedCfg.workers = 2;
  shard::MaintenanceScheduler scheduler(schedCfg);
  stm::Domain domain(stmCfg);

  shard::ShardedMapConfig cfg;
  cfg.shards = 4;
  cfg.scheduler = &scheduler;
  cfg.domain = &domain;
  shard::ShardedMap map(cfg);
  ASSERT_EQ(&map.domain(), &domain);

  constexpr Key kRange = 256;
  constexpr int kTokens = 64;
  for (Key k = 0; k < kTokens; ++k) ASSERT_TRUE(map.insert(k, 1'000 + k));

  constexpr int kMovers = 2;
  constexpr int kMovesPerThread = 10'000;
  std::atomic<bool> stop{false};
  std::atomic<int> snapshotViolations{0};
  std::atomic<int> pairViolations{0};

  // Observer 1: whole-map snapshot.
  std::thread counter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t seen = map.countRange(0, kRange - 1);
      if (seen != kTokens) snapshotViolations.fetch_add(1);
    }
  });
  // Observer 2: per-pair probes — for a random (from, to) pair the key
  // count in {from, to} read in one transaction can be 0, 1 or 2 slots
  // *occupied*, but a single token mid-move must never appear at both or
  // at neither of the two keys it is moving between. We approximate by
  // checking that two distinct keys never hold the same token value.
  std::thread prober([&] {
    Rng rng(31337);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k1 = static_cast<Key>(rng.nextBounded(kRange));
      const Key k2 = static_cast<Key>(rng.nextBounded(kRange));
      if (k1 == k2) continue;
      const auto [v1, v2] =
          stm::atomically(map.domain(), [&](stm::Tx& tx) {
            return std::pair{map.getTx(tx, k1), map.getTx(tx, k2)};
          });
      if (v1 && v2 && *v1 == *v2) pairViolations.fetch_add(1);
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
  counter.join();
  prober.join();

  EXPECT_EQ(snapshotViolations.load(), 0)
      << "a whole-map snapshot saw a moved key at both shards or neither";
  EXPECT_EQ(pairViolations.load(), 0)
      << "a token was observed at two keys simultaneously";

  map.quiesce();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kTokens));
  EXPECT_EQ(map.sizeEstimate(), kTokens);

  // Every token value survives exactly once (moves never duplicate or drop
  // a payload).
  std::vector<Value> values;
  for (const Key k : map.keysInOrder()) {
    const auto v = map.get(k);
    ASSERT_TRUE(v.has_value());
    values.push_back(*v);
  }
  std::sort(values.begin(), values.end());
  ASSERT_EQ(values.size(), static_cast<std::size_t>(kTokens));
  for (int i = 0; i < kTokens; ++i) EXPECT_EQ(values[i], 1'000 + i);

  // The map's stats report its domain's traffic.
  const auto stats = map.aggregatedStats();
  EXPECT_GT(stats.stm.commits, 0u);
  EXPECT_EQ(stats.stm.commits, domain.aggregateStats().commits);
}

TEST(CrossDomainMoveTest, MoveAtomicUnderConcurrencyOrec) {
  runCrossShardMoveStress(stm::Config{});
}

TEST(CrossDomainMoveTest, MoveAtomicUnderConcurrencyNOrec) {
  stm::Config cfg;
  cfg.backend = stm::TmBackend::NOrec;
  runCrossShardMoveStress(cfg);
}

// Cross-shard moves and range counts against the sequential model.
TEST(CrossDomainMoveTest, CrossShardMovesMatchSequentialModel) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 5;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  std::map<Key, Value> model;
  Rng rng(4242);
  constexpr Key kRange = 512;
  for (int i = 0; i < 10'000; ++i) {
    const Key k = static_cast<Key>(rng.nextBounded(kRange));
    switch (rng.nextBounded(5)) {
      case 0: {
        const Value v = static_cast<Value>(i);
        EXPECT_EQ(map.insert(k, v), model.emplace(k, v).second);
        break;
      }
      case 1:
        EXPECT_EQ(map.erase(k), model.erase(k) > 0);
        break;
      case 2:
        EXPECT_EQ(map.contains(k), model.count(k) > 0);
        break;
      case 3: {
        // Consistent whole-map range count.
        const Key hi = k + static_cast<Key>(rng.nextBounded(64));
        std::size_t expect = 0;
        for (auto it = model.lower_bound(k);
             it != model.end() && it->first <= hi; ++it) {
          ++expect;
        }
        EXPECT_EQ(map.countRange(k, hi), expect);
        break;
      }
      default: {
        const Key to = static_cast<Key>(rng.nextBounded(kRange));
        bool expect = false;
        auto it = model.find(k);
        if (it != model.end() && model.count(to) == 0 && k != to) {
          const Value v = it->second;
          model.erase(it);
          model.emplace(to, v);
          expect = true;
        }
        EXPECT_EQ(map.move(k, to), expect) << "move " << k << "->" << to;
        break;
      }
    }
  }
  map.quiesce();
  std::vector<Key> expectKeys;
  for (const auto& [k, v] : model) expectKeys.push_back(k);
  EXPECT_EQ(map.keysInOrder(), expectKeys);
  EXPECT_EQ(map.size(), model.size());
}

}  // namespace
