// Sharded map: partitioning the key space over several speculation-friendly
// trees whose restructuring shares one small maintenance worker pool, all
// on one STM clock domain.
//
//   $ ./examples/example_sharded_map
//
// Demonstrates: building a ShardedMap on a shared MaintenanceScheduler,
// concurrent use, atomic cross-shard moves (one transaction spanning two
// trees), consistent range counts that span every shard, and the whole
// observability surface — every subsystem registers a snapshot source with
// one MetricsRegistry and the text exporter renders the merged view
// (maintenance, scheduler, domain STM
// counters with the abort-cause taxonomy, per-slot load gauges, re-shard
// mechanics) instead of each example hand-formatting its own dump.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stats_bridge.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/sharded_map.hpp"

namespace obs = sftree::obs;
namespace shard = sftree::shard;
using sftree::Key;

int main() {
  // Two workers maintain four trees: the scheduler round-robins maintenance
  // passes and backs off on idle shards, so K < N costs nothing while the
  // map is cold and converges quickly while it is hot.
  shard::MaintenanceSchedulerConfig schedCfg;
  schedCfg.workers = 2;
  shard::MaintenanceScheduler scheduler(schedCfg);

  shard::ShardedMapConfig cfg;
  cfg.shards = 4;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  // --- basics ---------------------------------------------------------------
  map.insert(42, 4200);
  map.insert(7, 700);
  std::printf("contains(42) = %s (shard %d)\n",
              map.contains(42) ? "yes" : "no", map.shardIndexFor(42));
  std::printf("contains(7)  = %s (shard %d)\n",
              map.contains(7) ? "yes" : "no", map.shardIndexFor(7));

  // Atomic cross-shard relocation: one transaction spans both trees.
  Key dest = 1'000;
  while (map.shardIndexFor(dest) == map.shardIndexFor(42)) ++dest;
  map.move(42, dest);
  std::printf("after move(42 -> %lld): contains(42)=%s contains(%lld)=%s "
              "(shard %d -> shard %d)\n",
              static_cast<long long>(dest), map.contains(42) ? "yes" : "no",
              static_cast<long long>(dest), map.contains(dest) ? "yes" : "no",
              map.shardIndexFor(42), map.shardIndexFor(dest));

  // --- concurrent use -------------------------------------------------------
  constexpr int kThreads = 4;
  constexpr Key kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&map, t] {
      const Key base = t * kPerThread;
      for (Key i = 0; i < kPerThread; ++i) map.insert(base + i, i);
      for (Key i = 0; i < kPerThread; i += 2) map.erase(base + i);
    });
  }
  for (auto& w : workers) w.join();

  // A consistent snapshot over every shard in one transaction.
  std::printf("\ncountRange(0, 9999)   = %zu\n", map.countRange(0, 9999));

  // Let the shared pool finish restructuring, then inspect.
  map.quiesce();
  std::printf("abstract size         = %zu keys over %d shards\n", map.size(),
              map.shardCount());
  std::printf("max shard height      = %d (log2(n/shards) ~ 12)\n",
              map.height());

  // --- dynamic re-sharding --------------------------------------------------
  // The shard count is not fixed: splitShard moves half a hot shard's
  // routing slots onto a fresh tree under live traffic, mergeShards
  // migrates a cold shard away and retires its tree.
  // ReshardController automates both from the load gauges above; here the
  // mechanism is driven directly.
  const std::size_t before = map.size();
  const int fresh = map.splitShard(0);
  std::printf("\nsplitShard(0)         : now %d shards (new index %d), "
              "size still %zu\n",
              map.shardCount(), fresh, map.size());
  if (fresh >= 0) map.mergeShards(fresh, 0);
  std::printf("mergeShards back      : %d shards, size %zu (conserved: %s)\n",
              map.shardCount(), map.size(),
              map.size() == before ? "yes" : "NO");

  // --- the observability surface --------------------------------------------
  // Every subsystem registers a snapshot source; one renderText() replaces
  // the per-example printf dumps that used to live here. The map source
  // covers aggregated maintenance + violation queues, the summed STM
  // counters with the per-cause abort taxonomy, the per-slot load gauges,
  // and the re-shard mechanics (keys migrated, table publishes, the
  // migration-batch latency histogram), plus the map's clock domain.
  obs::MetricsRegistry registry;
  const auto mapReg = map.registerMetrics(registry, "map");
  const auto schedReg = scheduler.registerMetrics(registry, "scheduler");
  const auto domainReg =
      obs::registerDomainMetrics(registry, "domain", map.domain());
  std::printf("\nmetrics (%zu sources, text exporter; renderJson() / "
              "renderPrometheus() emit the same names):\n",
              registry.sourceCount());
  std::fputs(registry.renderText().c_str(), stdout);
  return 0;
}
