// ReshardController: online shard-count adaptation policy.
//
// Ballard et al.'s contention-adapting trees split and merge on observed
// contention; this controller lifts the same feedback loop to the shard
// layer. It periodically samples the per-shard load gauges the maintenance
// side already collects — the violation-queue depth (backlog) and the
// monotonic update-tick counter (traffic) — and, past configurable
// thresholds:
//
//   * splits the hottest shard when its share of the sampled load exceeds
//     splitFactor times the fair share (and the shard count is below the
//     ceiling), spreading the hot slots over one more tree;
//   * merges the two coldest shards when their combined share falls below
//     mergeFactor times the fair share (and the count is above the floor),
//     retiring a tree.
//
// The mechanism (routing-table flips, batched key migration, retirement)
// lives in ShardedMap::splitShard/mergeShards; the controller is pure
// policy and can also be driven manually (sampleAndAct) by benchmarks and
// tests that force a cycle.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "shard/sharded_map.hpp"

namespace sftree::shard {

struct ReshardControllerConfig {
  int minShards = 1;
  // 0 = the map's routingSlots (the hard ceiling either way).
  int maxShards = 0;
  // Split when the hottest shard's load exceeds this multiple of the fair
  // (mean) share. 2.0 = "twice what it would carry under perfect balance".
  double splitFactor = 2.0;
  // Merge when the two coldest shards *together* carry less than this
  // multiple of one fair share.
  double mergeFactor = 0.5;
  // Ignore samples with fewer update ticks than this across the whole map:
  // thresholds on a near-idle interval are noise, and resharding an idle
  // map buys nothing.
  std::uint64_t minOpsPerSample = 1024;
  // Violation-queue backlog is weighted this many update ticks per entry
  // (backlog signals maintenance falling behind, which is worth reacting
  // to faster than raw traffic).
  std::uint64_t queueDepthWeight = 4;
  // Heat-weighted splitting: fold the shard's hottest routing slot's
  // decayed traffic into its load score, scaled by this factor. A shard
  // whose traffic concentrates on one slot (skew — the population the
  // splay heuristic serves) then out-scores a shard carrying the same
  // traffic spread evenly, and splits first. The decayed accumulator makes
  // *persistent* skew count more than one bursty interval: with decay d, a
  // slot sustaining delta t per interval converges to t / (1 - d). 0
  // disables the term (the pre-heat policy).
  double heatWeight = 1.0;
  double heatDecay = 0.5;
  // Background sampling period (start()/stop()).
  std::chrono::milliseconds samplePeriod{100};
};

struct ReshardControllerStats {
  std::uint64_t samples = 0;
  std::uint64_t idleSamples = 0;  // skipped: below minOpsPerSample
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
};

// One policy decision with the inputs it was made on, so "why did the map
// split at 14:02?" is answerable from the log instead of a rerun. Every
// sample that clears the idle filter produces one entry (action kNone when
// neither threshold tripped).
struct ReshardDecision {
  enum class Action : std::uint8_t { kNone = 0, kSplit = 1, kMerge = 2 };
  std::uint64_t ns = 0;  // wall-clock timestamp of the decision
  Action action = Action::kNone;
  // kSplit: the shard split / the new shard's index (-1 when the split was
  // refused). kMerge: the victim / the target. kNone: hottest / coldest.
  int shard = -1;
  int other = -1;
  bool acted = false;     // the mechanism accepted (stale indexes refuse)
  double load = 0.0;      // deciding load: hottest shard (split/none),
                          // coldest-pair sum (merge)
  double fairShare = 0.0; // total / shardCount this interval
  double total = 0.0;     // summed interval load (tick deltas + backlog)
  double threshold = 0.0; // the factor * fairShare the load was compared to
  std::uint64_t tickDelta = 0;   // deciding shard's update-tick delta
  std::uint64_t queueDepth = 0;  // deciding shard's backlog at sample time
  double hotSlotHeat = 0.0;      // deciding shard's hottest-slot decayed
                                 // heat (the heatWeight * this term of load)
};

class ReshardController {
 public:
  explicit ReshardController(ShardedMap& map,
                             ReshardControllerConfig cfg = {});
  ~ReshardController();  // stops the background thread if running

  ReshardController(const ReshardController&) = delete;
  ReshardController& operator=(const ReshardController&) = delete;

  // Background sampling loop (one dedicated thread; re-sharding itself runs
  // on it, so a migration never blocks an application thread).
  void start();
  void stop();
  bool running() const { return thread_.joinable(); }

  // One sampling step: returns true when it split or merged. Public so
  // tests and benchmarks can drive the policy deterministically.
  bool sampleAndAct();

  ReshardControllerStats stats() const;

  // The last kDecisionLogCapacity decisions, oldest first.
  std::vector<ReshardDecision> decisionLog() const;

  // Registers a snapshot source emitting the controller counters plus the
  // most recent decision (action/load/fair-share/threshold gauges). The
  // controller must outlive the registration.
  [[nodiscard]] obs::MetricsRegistry::Registration registerMetrics(
      obs::MetricsRegistry& reg, std::string prefix);

  static constexpr std::size_t kDecisionLogCapacity = 64;

 private:
  // Per-shard load score over the last sampling interval.
  struct Score {
    int index;
    double load;
    std::uint64_t tickDelta;
    std::uint64_t queueDepth;
    double hotHeat;
  };

  // Mirrors the decision into the event trace (TraceKind::kReshardDecision)
  // and appends to the bounded log (takes mu_ itself for the append).
  void recordDecision(ReshardDecision d);

  ShardedMap& map_;
  const ReshardControllerConfig cfg_;

  // Leaf lock: guards prevTicks_/stats_/decisions_ and is never held across
  // calls into the map (or anything else that takes a lock) — see the lock
  // ordering note at the top of sampleAndAct().
  mutable std::mutex mu_;
  // Update-tick reading at the previous sample, keyed by stable shard
  // identity (tree address; indexes shift under splits/merges).
  std::map<const void*, std::uint64_t> prevTicks_;
  // Per-routing-slot heat state (the heatWeight term): previous slot-tick
  // reading and the decayed accumulator. Slot indexes are stable for the
  // map's lifetime, unlike shard indexes. Empty until the first sample.
  std::vector<std::uint64_t> prevSlotTicks_;
  std::vector<double> slotHeat_;
  ReshardControllerStats stats_;
  std::deque<ReshardDecision> decisions_;  // bounded: kDecisionLogCapacity

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace sftree::shard
