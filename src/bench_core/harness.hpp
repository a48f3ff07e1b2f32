// Duration-based multi-threaded throughput harness for the integer-set
// micro-benchmark (the synchrobench equivalent used by Figures 3-5 and
// Table 1).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench_core/workload.hpp"
#include "stm/domain.hpp"
#include "stm/stats.hpp"
#include "trees/map_interface.hpp"

namespace sftree::bench {

struct RunConfig {
  WorkloadConfig workload;
  int threads = 2;
  int durationMs = 200;
  std::int64_t initialSize = 1 << 12;  // paper: 2^12 elements
  std::uint64_t seed = 42;
};

struct RunResult {
  std::uint64_t totalOps = 0;
  std::uint64_t effectiveUpdates = 0;   // successful inserts+removes+moves
  std::uint64_t attemptedUpdates = 0;
  double seconds = 0.0;
  // Aggregated STM statistics over the run (reset before, sampled after).
  stm::ThreadStats stm;

  double opsPerMicrosecond() const {
    return seconds == 0.0 ? 0.0
                          : static_cast<double>(totalOps) / (seconds * 1e6);
  }
  double effectiveUpdateRatio() const {
    return totalOps == 0
               ? 0.0
               : 100.0 * static_cast<double>(effectiveUpdates) /
                     static_cast<double>(totalOps);
  }
};

// Fills the map with `initialSize` distinct keys drawn uniformly from the
// workload's key range (values equal keys).
void populate(trees::ITransactionalMap& map, const RunConfig& cfg);

// Runs the workload for cfg.durationMs across cfg.threads threads.
// Statistics of the whole process are reset at the start of the run.
RunResult runThroughput(trees::ITransactionalMap& map, const RunConfig& cfg);

}  // namespace sftree::bench
