#include "bench_core/harness.hpp"

#include <atomic>
#include <barrier>
#include <chrono>
#include <thread>
#include <vector>

#include "stm/runtime.hpp"

namespace sftree::bench {

void populate(trees::ITransactionalMap& map, const RunConfig& cfg) {
  Rng rng(cfg.seed ^ 0xC0FFEE);
  std::int64_t inserted = 0;
  while (inserted < cfg.initialSize) {
    const auto k = static_cast<sftree::Key>(
        rng.nextBounded(static_cast<std::uint64_t>(cfg.workload.keyRange)));
    if (map.insert(k, k)) ++inserted;
  }
}

RunResult runThroughput(trees::ITransactionalMap& map, const RunConfig& cfg) {
  struct ThreadCounters {
    std::uint64_t ops = 0;
    std::uint64_t effective = 0;
    std::uint64_t attempted = 0;
  };

  stm::Domain& domain = stm::defaultDomain();
  domain.resetStats();

  std::atomic<bool> stop{false};
  std::barrier sync(cfg.threads + 1);
  std::vector<ThreadCounters> counters(cfg.threads);
  std::vector<std::thread> threads;
  threads.reserve(cfg.threads);

  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      WorkloadGenerator gen(cfg.workload, cfg.seed + 0x1000u * (t + 1));
      ThreadCounters local;
      sync.arrive_and_wait();
      while (!stop.load(std::memory_order_acquire)) {
        const Op op = gen.next();
        switch (op.type) {
          case OpType::Contains:
            map.contains(op.key);
            break;
          case OpType::Insert:
            ++local.attempted;
            if (map.insert(op.key, op.key)) ++local.effective;
            break;
          case OpType::Remove:
            ++local.attempted;
            if (map.erase(op.key)) ++local.effective;
            break;
          case OpType::Move:
            ++local.attempted;
            if (map.move(op.key, op.destKey)) ++local.effective;
            break;
        }
        ++local.ops;
      }
      counters[t] = local;
    });
  }

  sync.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.durationMs));
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  for (const auto& c : counters) {
    result.totalOps += c.ops;
    result.effectiveUpdates += c.effective;
    result.attemptedUpdates += c.attempted;
  }
  result.stm = domain.aggregateStats();
  return result;
}

}  // namespace sftree::bench
