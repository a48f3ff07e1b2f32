// Re-shard churn — dynamic re-sharding vs static sharding on a skewed
// (hot-slot) workload, plus the throughput dip while a forced split->merge
// cycle migrates keys under live traffic.
//
// Scenario: hot-percent of all operations target keys routed to the slots
// initially owned by shard 0 (a hot tenant/partition — per-key hashing
// means a hot *range* spreads on its own, but a hot slot group does not).
// The static configuration serves that skew from one tree forever; the
// dynamic configuration runs a ReshardController during warmup, which
// splits the hot shard (spreading its slots over fresh trees) and
// merges the idle ones, converging back to the same total shard count.
//
// Reported per mode (static | dynamic), measured over identical workloads:
//   * ops/us                — end-to-end throughput;
//   * max_update_share      — the hottest shard's fraction of update
//                             traffic: the skew the topology failed (static)
//                             or managed (dynamic) to absorb. This is the
//                             deterministic gate metric: on boxes with
//                             enough cores the absorbed skew turns into
//                             throughput, on a single core it cannot
//                             (there is no parallelism to unlock), so the
//                             schema checker gates throughput only on
//                             multi-core runs — same rationale as the
//                             maintpath gate's visits-per-update proxy;
//   * migration dip         — windowed throughput while one forced
//                             split->merge cycle runs mid-measurement,
//                             as a fraction of the steady-state mean.
//
//   reshard_churn --threads=4 --updates=50 --hot-percent=95 --shards=4 \
//                 --size-log=15 --duration-ms=1200 --warmup-ms=1000 \
//                 --json=BENCH_reshard.json
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "bench_core/cli.hpp"
#include "bench_core/report.hpp"
#include "bench_core/rng.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/reshard.hpp"
#include "shard/sharded_map.hpp"

namespace bench = sftree::bench;
namespace shard = sftree::shard;
using sftree::Key;
using sftree::bench::Rng;
using Clock = std::chrono::steady_clock;

namespace {

struct PhaseResult {
  double opsPerUs = 0;
  double abortRatio = 0;
  double maxUpdateShare = 0;
  int shardCount = 0;
  double steadyOpsPerUs = 0;
  double migrationMinOpsPerUs = 0;
  double migrationDipRatio = 1.0;
  bool keysConserved = false;
  std::uint64_t ctlSplits = 0;
  std::uint64_t ctlMerges = 0;
  shard::ReshardStats reshard;
};

struct Workload {
  std::vector<Key> hot;
  std::vector<Key> cold;
  int hotPercent;
  int updatePercent;
};

struct alignas(64) OpCounter {
  std::atomic<std::uint64_t> n{0};
};

// Interval update share of the hottest shard, from id-keyed tick deltas
// (indexes shift under splits/merges; a transient tree's ticks drop out,
// which only *understates* the skew the gate wants to see).
double maxShare(const std::vector<shard::ShardLoadSample>& before,
                const std::vector<shard::ShardLoadSample>& after) {
  std::map<const void*, std::uint64_t> base;
  for (const auto& s : before) base[s.id] = s.updateTicks;
  std::uint64_t mx = 0, sum = 0;
  for (const auto& s : after) {
    const auto it = base.find(s.id);
    const std::uint64_t prev = it == base.end() ? 0 : it->second;
    const std::uint64_t d = s.updateTicks >= prev ? s.updateTicks - prev : 0;
    mx = std::max(mx, d);
    sum += d;
  }
  return sum == 0 ? 0.0 : static_cast<double>(mx) / static_cast<double>(sum);
}

PhaseResult runPhase(bool dynamic, const Workload& wl, int threads,
                     int shards, int slots, int warmupMs, int durationMs,
                     int windowMs) {
  shard::MaintenanceSchedulerConfig schedCfg;
  schedCfg.workers = 2;
  shard::MaintenanceScheduler scheduler(schedCfg);

  shard::ShardedMapConfig cfg;
  cfg.shards = shards;
  cfg.routingSlots = slots;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  for (std::size_t i = 0; i < wl.hot.size(); i += 2) map.insert(wl.hot[i], 1);
  for (std::size_t i = 0; i < wl.cold.size(); i += 2) {
    map.insert(wl.cold[i], 1);
  }

  std::atomic<bool> stop{false};
  std::vector<OpCounter> ops(static_cast<std::size_t>(threads));
  std::barrier sync(threads + 1);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x9000 + static_cast<std::uint64_t>(t));
      sync.arrive_and_wait();
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& ks =
            rng.nextBounded(100) < static_cast<std::uint64_t>(wl.hotPercent)
                ? wl.hot
                : wl.cold;
        const Key k = ks[rng.nextBounded(ks.size())];
        const auto r = rng.nextBounded(100);
        if (r < static_cast<std::uint64_t>(wl.updatePercent) / 2) {
          map.insert(k, k);
        } else if (r < static_cast<std::uint64_t>(wl.updatePercent)) {
          map.erase(k);
        } else {
          map.contains(k);
        }
        // Batch the shared-counter bump: one RMW per 32 ops.
        if ((++local & 31) == 0) {
          ops[static_cast<std::size_t>(t)].n.fetch_add(
              32, std::memory_order_relaxed);
        }
      }
    });
  }
  const auto sumOps = [&] {
    std::uint64_t s = 0;
    for (const auto& c : ops) s += c.n.load(std::memory_order_relaxed);
    return s;
  };

  sync.arrive_and_wait();

  // --- warmup: the dynamic mode adapts here ---------------------------------
  shard::ReshardControllerConfig rcfg;
  rcfg.minShards = shards;      // merge only to undo a split's +1
  rcfg.maxShards = shards + 1;  // equal-total-shards comparison
  rcfg.splitFactor = 1.5;
  rcfg.mergeFactor = 0.75;
  rcfg.minOpsPerSample = 512;
  rcfg.samplePeriod = std::chrono::milliseconds(50);
  shard::ReshardController ctl(map, rcfg);
  if (dynamic) ctl.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(warmupMs));
  if (dynamic) {
    ctl.stop();
    // Settle back to the static shard count if warmup ended mid-cycle.
    while (map.shardCount() > shards) {
      const auto ls = map.loadSamples();
      // Merge the two lowest-traffic shards.
      std::vector<shard::ShardLoadSample> s(ls);
      std::sort(s.begin(), s.end(), [](const auto& a, const auto& b) {
        return a.updateTicks < b.updateTicks;
      });
      if (!map.mergeShards(s[0].index, s[1].index)) break;
    }
  }

  // --- measurement ----------------------------------------------------------
  const auto samplesBefore = map.loadSamples();
  const auto stmBefore = map.aggregatedStats().stm;

  std::vector<double> windowOps;
  std::vector<std::uint8_t> windowInMigration;
  std::atomic<bool> migrating{false};
  // Sticky per-window bit: a forced cycle that starts AND finishes between
  // two window boundaries must still label that window as migration, or
  // the dip gate would bind on nothing while the real dip folds into the
  // steady-state mean it is compared against.
  std::atomic<bool> migratedThisWindow{false};
  std::thread sampler([&] {
    const auto t0 = Clock::now();
    std::uint64_t prev = sumOps();
    auto prevT = t0;
    while (Clock::now() - t0 < std::chrono::milliseconds(durationMs)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(windowMs));
      const auto now = Clock::now();
      const std::uint64_t cur = sumOps();
      const double sec = std::chrono::duration<double>(now - prevT).count();
      windowOps.push_back(static_cast<double>(cur - prev) / (sec * 1e6));
      const bool m = migratedThisWindow.exchange(false) ||
                     migrating.load(std::memory_order_relaxed);
      windowInMigration.push_back(m ? 1 : 0);
      prev = cur;
      prevT = now;
    }
  });

  // Forced split->merge cycle mid-measurement (dynamic mode only — static
  // never re-shards, so its migration fields are reported as the steady
  // value / ratio 1.0): the dip the bench exists to bound. The dynamic
  // mode migrates real keys; its hottest shard still carries the largest
  // slice.
  PhaseResult out;
  if (dynamic) {
    std::this_thread::sleep_for(std::chrono::milliseconds(durationMs / 3));
    const auto ls = map.loadSamples();
    int hottest = 0;
    std::uint64_t best = 0;
    for (const auto& s : ls) {
      if (s.updateTicks >= best) {
        best = s.updateTicks;
        hottest = s.index;
      }
    }
    migrating.store(true, std::memory_order_relaxed);
    migratedThisWindow.store(true, std::memory_order_relaxed);
    const int fresh = map.splitShard(hottest);
    if (fresh >= 0) map.mergeShards(fresh, hottest);
    migrating.store(false, std::memory_order_relaxed);
  }

  sampler.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : workers) th.join();

  const auto samplesAfter = map.loadSamples();
  const auto stmAfter = map.aggregatedStats().stm;

  double steadySum = 0, steadyN = 0, migMin = -1;
  double totalSum = 0;
  for (std::size_t i = 0; i < windowOps.size(); ++i) {
    totalSum += windowOps[i];
    if (windowInMigration[i]) {
      migMin = migMin < 0 ? windowOps[i] : std::min(migMin, windowOps[i]);
    } else {
      steadySum += windowOps[i];
      ++steadyN;
    }
  }
  out.opsPerUs = windowOps.empty() ? 0 : totalSum / windowOps.size();
  out.steadyOpsPerUs = steadyN == 0 ? 0 : steadySum / steadyN;
  out.migrationMinOpsPerUs = migMin < 0 ? out.steadyOpsPerUs : migMin;
  out.migrationDipRatio = out.steadyOpsPerUs == 0
                              ? 1.0
                              : out.migrationMinOpsPerUs / out.steadyOpsPerUs;
  out.maxUpdateShare = maxShare(samplesBefore, samplesAfter);
  out.shardCount = map.shardCount();
  const std::uint64_t commits = stmAfter.commits - stmBefore.commits;
  const std::uint64_t aborts = stmAfter.aborts - stmBefore.aborts;
  out.abortRatio = (commits + aborts) == 0
                       ? 0.0
                       : static_cast<double>(aborts) /
                             static_cast<double>(commits + aborts);
  const auto ctlStats = ctl.stats();
  out.ctlSplits = ctlStats.splits;
  out.ctlMerges = ctlStats.merges;
  out.reshard = map.reshardStats();

  map.quiesce();
  out.keysConserved =
      map.size() == static_cast<std::size_t>(map.sizeEstimate());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(argc, argv);
  const int threads = static_cast<int>(cli.integer("threads", 4));
  const int shards = static_cast<int>(cli.integer("shards", 4));
  const int slots = static_cast<int>(cli.integer("slots", 64));
  const int updatePct = static_cast<int>(cli.integer("updates", 50));
  const int hotPct = static_cast<int>(cli.integer("hot-percent", 95));
  const int durationMs = static_cast<int>(cli.integer("duration-ms", 1200));
  const int warmupMs = static_cast<int>(cli.integer("warmup-ms", 1000));
  const int windowMs = static_cast<int>(cli.integer("window-ms", 50));
  const auto sizeLog = cli.integer("size-log", 15);
  const unsigned hw = std::thread::hardware_concurrency();

  // Hot keys = keys routed to the slots initially owned by shard 0. The
  // routing is deterministic for a given (shards, slots), so a probe map
  // classifies the key universe up front.
  Workload wl;
  wl.hotPercent = hotPct;
  wl.updatePercent = updatePct;
  {
    shard::ShardedMapConfig probeCfg;
    probeCfg.shards = shards;
    probeCfg.routingSlots = slots;
    probeCfg.tree.startMaintenance = false;
    shard::ShardedMap probe(probeCfg);
    const Key range = Key{1} << sizeLog;
    for (Key k = 0; k < range; ++k) {
      (probe.shardIndexFor(k) == 0 ? wl.hot : wl.cold).push_back(k);
    }
  }

  std::printf(
      "Re-shard churn: %d%% of ops on shard 0's initial slots (%zu hot / %zu "
      "cold keys), %d threads, %d%% updates, %d+1 shard budget, hw=%u\n",
      hotPct, wl.hot.size(), wl.cold.size(), threads, updatePct, shards, hw);

  bench::JsonReport json("reshard_churn");
  json.meta()
      .set("threads", threads)
      .set("shards", shards)
      .set("routing_slots", slots)
      .set("update_percent", updatePct)
      .set("hot_percent", hotPct)
      .set("duration_ms", durationMs)
      .set("warmup_ms", warmupMs)
      .set("window_ms", windowMs)
      .set("size_log", static_cast<std::int64_t>(sizeLog))
      .set("hw_concurrency", static_cast<std::int64_t>(hw));

  bench::Table table({"mode", "ops/us", "abort%", "max-share", "shards",
                      "splits", "merges", "keys-migrated", "dip-ratio",
                      "keys-ok"});
  PhaseResult results[2];
  const char* names[2] = {"static", "dynamic"};
  for (int d = 0; d < 2; ++d) {
    results[d] = runPhase(d == 1, wl, threads, shards, slots, warmupMs,
                          durationMs, windowMs);
    const PhaseResult& r = results[d];
    table.addRow({names[d], bench::Table::num(r.opsPerUs, 3),
                  bench::Table::num(100.0 * r.abortRatio),
                  bench::Table::num(r.maxUpdateShare),
                  bench::Table::num(r.shardCount),
                  bench::Table::num(r.ctlSplits + (d == 1 ? 1 : 0)),
                  bench::Table::num(r.reshard.merges),
                  bench::Table::num(r.reshard.keysMigrated),
                  bench::Table::num(r.migrationDipRatio),
                  r.keysConserved ? "yes" : "NO"});
    json.addRecord()
        .set("mode", names[d])
        .set("ops_per_us", r.opsPerUs)
        .set("steady_ops_per_us", r.steadyOpsPerUs)
        .set("migration_min_ops_per_us", r.migrationMinOpsPerUs)
        .set("migration_dip_ratio", r.migrationDipRatio)
        .set("abort_ratio", r.abortRatio)
        .set("max_update_share", r.maxUpdateShare)
        .set("shard_count", r.shardCount)
        .set("ctl_splits", r.ctlSplits)
        .set("ctl_merges", r.ctlMerges)
        .set("splits", r.reshard.splits)
        .set("merges", r.reshard.merges)
        .set("keys_migrated", r.reshard.keysMigrated)
        .set("migration_batches", r.reshard.migrationBatches)
        .set("retired_arena_bytes", r.reshard.retiredArenaBytes)
        .set("keys_conserved", r.keysConserved);
  }
  table.print();
  const double speedup = results[0].opsPerUs == 0
                             ? 0
                             : results[1].opsPerUs / results[0].opsPerUs;
  const double skewAbsorbed =
      results[1].maxUpdateShare == 0
          ? 0
          : results[0].maxUpdateShare / results[1].maxUpdateShare;
  std::printf("dynamic/static throughput: %.2fx | skew absorbed "
              "(max-share ratio): %.2fx | migration dip ratio: %.2f\n",
              speedup, skewAbsorbed, results[1].migrationDipRatio);
  return json.writeFile(cli.jsonPath()) ? 0 : 1;
}
