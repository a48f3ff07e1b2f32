// Shard scaling — throughput of the ShardedMap on a mixed workload
// (reads + insert/remove + composed cross-shard moves) as the number of
// shards grows with a *fixed* shared maintenance pool of K < N workers.
// Every shard commits against the map's one STM clock domain, so shards
// share no tree nodes but do share the version clock.
//
//   shard_scaling --shards=1,2,4,8 --threads=4 --updates=20 --moves=2 \
//                 --json=BENCH_shard_scaling.json
#include <algorithm>
#include <cstdio>

#include "bench_core/cli.hpp"
#include "bench_core/harness.hpp"
#include "bench_core/report.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/sharded_map.hpp"

namespace bench = sftree::bench;
namespace shard = sftree::shard;
namespace trees = sftree::trees;
namespace stm = sftree::stm;

namespace {

// K < N whenever N allows it; a single shard necessarily gets one worker.
int workersFor(int shards) { return std::clamp(shards / 2, 1, 4); }

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(argc, argv);
  auto shardCounts = cli.intList("shards", {1, 2, 4, 8});
  for (const int s : shardCounts) {
    if (s < 1) {
      std::fprintf(stderr, "--shards values must be >= 1 (got %d)\n", s);
      return 1;
    }
  }
  const int threads = static_cast<int>(cli.integer("threads", 4));
  const double updatePct = cli.real("updates", 20.0);
  const double movePct = cli.real("moves", 2.0);
  const int durationMs = static_cast<int>(cli.integer("duration-ms", 200));
  const auto sizeLog = cli.integer("size-log", 13);

  std::printf("Shard scaling: Opt-SFtree shards, shared maintenance pool "
              "(K < N workers), %d app threads, %.0f%% updates of which "
              "%.0f points are cross-shard moves\n",
              threads, updatePct, movePct);

  bench::JsonReport json("shard_scaling");
  json.meta()
      .set("threads", threads)
      .set("update_percent", updatePct)
      .set("move_percent", movePct)
      .set("duration_ms", durationMs)
      .set("size_log", sizeLog);

  bench::Table table({"shards", "workers", "ops/us", "commits/us",
                      "eff-upd%", "abort%", "maint passes", "rotations",
                      "removals"});

  for (const int shards : shardCounts) {
    const int workers = workersFor(shards);

    shard::MaintenanceSchedulerConfig schedCfg;
    schedCfg.workers = workers;
    shard::MaintenanceScheduler scheduler(schedCfg);

    shard::ShardedMapConfig mapCfg;
    mapCfg.shards = shards;
    mapCfg.scheduler = &scheduler;
    mapCfg.tree.ops = trees::OpsVariant::Optimized;
    shard::ShardedMap map(mapCfg);

    bench::RunConfig cfg;
    cfg.initialSize = std::int64_t{1} << sizeLog;
    cfg.workload.keyRange = cfg.initialSize * 2;
    cfg.workload.updatePercent = updatePct - movePct;  // moves are updates
    cfg.workload.movePercent = movePct;
    cfg.threads = threads;
    cfg.durationMs = durationMs;

    bench::populate(map, cfg);
    const auto result = bench::runThroughput(map, cfg);
    const auto schedStats = scheduler.stats();
    const auto mapStats = map.aggregatedStats();

    const double commitsPerUs =
        result.seconds == 0.0
            ? 0.0
            : static_cast<double>(result.stm.commits) /
                  (result.seconds * 1e6);

    table.addRow({bench::Table::num(shards), bench::Table::num(workers),
                  bench::Table::num(result.opsPerMicrosecond()),
                  bench::Table::num(commitsPerUs),
                  bench::Table::num(result.effectiveUpdateRatio()),
                  bench::Table::num(100.0 * result.stm.abortRatio()),
                  bench::Table::num(schedStats.passes),
                  bench::Table::num(mapStats.maintenance.rotations),
                  bench::Table::num(mapStats.maintenance.removals)});

    json.addRecord()
        .set("shards", shards)
        .set("workers", workers)
        .set("ops_per_us", result.opsPerMicrosecond())
        .set("total_ops", result.totalOps)
        .set("commits", result.stm.commits)
        .set("commits_per_us", commitsPerUs)
        .set("effective_update_ratio", result.effectiveUpdateRatio())
        .set("abort_ratio", result.stm.abortRatio())
        .set("maintenance_passes", schedStats.passes)
        .set("active_passes", schedStats.activePasses)
        .set("backoff_skips", schedStats.backoffSkips)
        .set("signal_wakeups", schedStats.signalWakeups)
        .set("rotations", mapStats.maintenance.rotations)
        .set("removals", mapStats.maintenance.removals)
        .set("size_estimate", mapStats.sizeEstimate);
  }
  table.print();
  return json.writeFile(cli.jsonPath()) ? 0 : 1;
}
