// Shared pieces of the end-to-end benchmark: input generation, latency
// samples, the result report, environment probes, the span log and the
// per-layer statistics snapshots. Everything here calls the library only
// through its public headers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "obs/histogram.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/sharded_map.hpp"
#include "stm/stats.hpp"
#include "trees/sftree.hpp"

namespace perfbench {

using sftree::Key;
using sftree::Value;

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Busy threads a workload may run: load threads plus the program's busy
// background threads (maintenance worker, serving executors, checkpointer).
constexpr int kThreadBudget = 4;

// --- command line ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test scale: every size divided down so a run takes about a second.
  bool tiny = false;
  // Directory for spans, checkpoint files and other run artifacts.
  std::string outDir = ".";
  // Self-test only: feed one correctness check a deliberately wrong count.
  std::string fault;
};

// A correctness check failed: the run prints no metrics and exits non-zero.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Throws CheckFailed unless `actual == expected + (fault == check ? 1 : 0)`.
// The fault offset lets the self-test prove that each check can fail.
void expectCount(const Options& opt, const std::string& check,
                 std::int64_t actual, std::int64_t expected);

// --- input generation --------------------------------------------------------

// xorshift64*; the benchmark's inputs depend only on --seed and on this
// generator, never on the library's own test harness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed)
      : s_(seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL) {
    if (s_ == 0) s_ = 1;
    for (int i = 0; i < 4; ++i) next();
  }
  std::uint64_t next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545F4914F6CDD1DULL;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

// YCSB's Zipfian generator (Gray et al., "Quickly generating billion-record
// synthetic databases"): O(1) per draw after an O(n) zeta sum, so drawing
// millions of keys over a 2^21 range costs no table walk. Ranks are
// scattered over the range by an odd multiplier, so the hot keys land in
// every shard and routing slot rather than at the low end of the range.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta);
  Key next(Rng& rng) const;

 private:
  std::uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

enum class OpKind : std::uint8_t { kContains, kGet, kInsert, kErase, kMove };

inline bool isUpdate(OpKind k) { return k >= OpKind::kInsert; }
const char* spanName(OpKind k);  // "shard.contains", ...

// One pre-generated operation. kMove: `key` indexes the client's token
// table (its current position is the source), `dest` is the target key.
struct Op {
  std::uint32_t key = 0;
  std::uint32_t dest = 0;
  OpKind kind = OpKind::kContains;
};

// Keys of one closed-loop map workload.
struct KeySpace {
  std::uint32_t keys = 0;   // initial size
  std::uint32_t range = 0;  // keys are drawn from [0, range)
  double zipf = 0;          // 0 = uniform
  double updatePct = 0;     // effective updates, percent of operations
  bool biased = false;      // the paper's Fig. 3 (right) drifting cursors
};

// `n` operations of the insert/erase/contains mix. Effective updates are
// half the attempted ones at a half-full range, so 2 x updatePct percent of
// the operations are attempted updates, split evenly between insert and
// erase (the paper's convention).
std::vector<Op> makeMapStream(const KeySpace& ks, std::uint64_t seed,
                              std::size_t n);

// The initial key set in insertion order: `keys` distinct keys of [0, range)
// in a seeded random order.
std::vector<std::uint32_t> makeInitialKeys(const KeySpace& ks,
                                           std::uint64_t seed);

// --- measurements ------------------------------------------------------------

// Latency samples in nanoseconds; exact quantiles by sorting.
class Samples {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(std::uint64_t ns) {
    v_.push_back(static_cast<std::uint32_t>(
        ns > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : ns));
  }
  void merge(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  std::size_t size() const { return v_.size(); }
  // Sorts in place on first use after an add/merge.
  double quantile(double q);
  double max();

 private:
  std::vector<std::uint32_t> v_;
  std::size_t sortedSize_ = 0;
};

// End-to-end latencies and rates are taken per 100 ms slice of a measured
// window and reported as the median over the slices the host disturbed
// least (see calmMask): this class of VM loses CPUs to other tenants for
// milliseconds at a time, which would otherwise decide the tail of a run.
// Pooled tails over every slice are printed as diagnostics.
constexpr std::uint64_t kSliceNs = 100'000'000;

// Latency samples tagged with the slice they fell in.
class SlicedSamples {
 public:
  void reserve(std::size_t n) {
    ns_.reserve(n);
    slice_.reserve(n);
  }
  void add(std::uint64_t slice, std::uint64_t ns) {
    ns_.push_back(static_cast<std::uint32_t>(
        ns > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : ns));
    slice_.push_back(static_cast<std::uint32_t>(slice));
  }
  void merge(const SlicedSamples& o);
  std::size_t size() const { return ns_.size(); }
  // Median over the slices marked in `use` of each slice's q-quantile.
  double sliceMedian(double q, const std::vector<char>& use) const;
  // Samples per slice, for slices [0, n).
  std::vector<std::uint64_t> counts(std::size_t n) const;
  // Every sample, unsliced.
  Samples pooled() const;

 private:
  std::vector<std::uint32_t> ns_;
  std::vector<std::uint32_t> slice_;
};

// Samples the machine's cumulative steal time every 20 ms on a sleeping
// thread for the life of the process.
class StealSampler {
 public:
  static StealSampler& instance();
  ~StealSampler();
  // Steal (ms, summed over CPUs) between two instants.
  double between(std::uint64_t t0, std::uint64_t t1) const;

 private:
  StealSampler();
  mutable std::mutex mu_;
  std::vector<std::pair<std::uint64_t, double>> samples_;  // (ns, steal ms)
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// A slice is calm when the host stole at most this much CPU time during it
// (one 10 ms scheduler tick over all CPUs). The same test applies to a
// checkpoint or a restore over its duration.
constexpr double kCalmStealMs = 10;

// Marks the [start, end) intervals that count: the calm ones, or, when
// fewer than a tenth are calm, the tenth with the least steal. `calm`, if
// given, receives the number of calm intervals.
std::vector<char> calmMask(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& intervals,
    std::size_t* calm = nullptr);

// One repeated measurement and the interval it covered.
struct Timed {
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  double value = 0;
};

// The values whose intervals count (calmMask).
std::vector<double> calmValues(const std::vector<Timed>& v);

// Median of a small set of repeated measurements.
double median(std::vector<double> v);

// Quantile of the difference of two snapshots of one log histogram.
double histDeltaQuantile(const sftree::obs::LogHistogram& before,
                         const sftree::obs::LogHistogram& after, double q);

double peakRssMb();

// --- environment -------------------------------------------------------------

int usableCpus();
// Cumulative steal time of all CPUs from /proc/stat, in ms (0 when absent).
double stealMs();
// Spins for `seconds` reading the clock and returns the longest gap seen, in
// microseconds: a stall the host imposed on a running thread.
double stallProbeUs(double seconds);

// --- report ------------------------------------------------------------------

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Diagnostics go on their own stdout line, never into the metrics.
  void diag(const std::string& name, double value);
  void diag(const std::string& name, const std::string& value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::string resultJson() const;
  std::string diagJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> diag_;  // JSON values
};

// --- spans -------------------------------------------------------------------

// One timed call into a layer. Spans of one request or checkpoint share
// `trace`; a child names its caller's span in `parent`.
struct Span {
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  const char* name = "";
};

// In-memory spans, one bounded buffer per recording thread (no sharing on
// the hot path) plus one for the main thread; written out once when the run
// ends.
class SpanLog {
 public:
  SpanLog(int threads, std::size_t perThread);
  // Load thread `t` only. Drops the span once its buffer is full.
  void add(int t, const Span& s) {
    auto& b = bufs_[static_cast<std::size_t>(t)];
    if (b.size() < cap_) b.push_back(s);
  }
  // The main thread's buffer.
  void addMain(const Span& s) { add(static_cast<int>(bufs_.size()) - 1, s); }
  std::uint64_t newId() { return nextId_.fetch_add(1) + 1; }
  std::size_t count() const;
  bool write(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> bufs_;
  std::size_t cap_;
  std::atomic<std::uint64_t> nextId_{0};
};

// --- per-layer statistics ----------------------------------------------------

// Public stats of the map stack at one instant; two of them bracket a window.
struct LayerSnap {
  std::uint64_t atNs = 0;
  sftree::stm::ThreadStats stm;
  sftree::trees::MaintenanceStats maint;
  sftree::shard::SchedulerStats sched;
  std::vector<std::int64_t> shardSizes;

  static LayerSnap take(sftree::shard::ShardedMap& map,
                        const sftree::shard::MaintenanceScheduler& sched);
};

// Gauges the window owner samples while the load runs.
struct Gauges {
  std::uint64_t limboPendingMax = 0;
  double unremovedSum = 0;
  std::uint64_t samples = 0;
  void sample(sftree::shard::ShardedMap& map);
  double unremovedMean() const {
    return samples == 0 ? 0 : unremovedSum / static_cast<double>(samples);
  }
};

// Operation counts of one measured window.
struct OpCounts {
  std::uint64_t ops = 0;
  std::uint64_t updates = 0;
};

// stm.*, trees.* (maintenance and violation queue), gc.*, mem.*, and the
// shard.* scheduler/skew metrics from two snapshots around a window.
void reportMapLayers(Report& r, const LayerSnap& a, const LayerSnap& b,
                     const OpCounts& c, const Gauges& g,
                     sftree::shard::ShardedMap& map);

// --- the map stack -----------------------------------------------------------

// One-worker maintenance pool plus a sharded map on it: the thread budget
// cannot afford a dedicated maintenance thread per shard. The map must be
// destroyed before its scheduler.
struct MapStack {
  std::unique_ptr<sftree::shard::MaintenanceScheduler> sched;
  std::unique_ptr<sftree::shard::ShardedMap> map;
  double populateSec = 0;
};

sftree::shard::ShardedMapConfig mapConfig(
    int shards, sftree::shard::MaintenanceScheduler* sched);

// Builds the stack and inserts keys[i] with value i from `loaders` threads,
// then runs maintenance to its fixpoint so every run starts from a balanced
// tree.
MapStack buildMap(int shards, const std::vector<std::uint32_t>& keys,
                  int loaders);

// The setup_s metric: the median time of build(), run at least minReps
// times and more while a second of set-up lasts (at most 50), so a fast
// set-up rests on many repetitions. teardown() runs untimed before each.
template <typename Teardown, typename Build>
double repeatSetup(int minReps, Teardown&& teardown, Build&& build) {
  std::vector<double> s;
  double total = 0;
  for (int rep = 0; rep < minReps || (total < 1.0 && rep < 50); ++rep) {
    teardown();
    const std::uint64_t t0 = nowNs();
    build();
    s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    total += s.back();
  }
  return median(s);
}

// repeatSetup over buildMap; the last stack built stays in `stack`.
double buildRepeatedly(int minReps, int shards,
                       const std::vector<std::uint32_t>& keys,
                       MapStack& stack);

// Calls insertOne(i) for every i < n from `threads` threads, each taking a
// stride of the indices.
template <typename F>
void parallelLoad(std::size_t n, int threads, F&& insertOne) {
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < n;
           i += static_cast<std::size_t>(threads)) {
        insertOne(i);
      }
    });
  }
  for (auto& th : ts) th.join();
}

// Marks an eighth of the map's routing slots, the same number on every
// shard, chosen by `rng`. A snapshot walks every tree that owns a slot it
// must stream, so where the written slots fall decides what a checkpoint
// costs; balancing them keeps that cost the same on every seed.
std::vector<char> eighthOfSlots(sftree::shard::ShardedMap& map, Rng& rng);

// Quiesces and checks the map: size() and the size estimate equal
// `expected` (the conservation check), and every shard passes
// trees::checkSFTree while the shards hold `expected` distinct keys (the
// tree check).
void checkMap(const Options& opt, sftree::shard::ShardedMap& map,
              std::int64_t expected, const char* what);

// --- checkpoint cycle and ladder (layers.cpp) --------------------------------

// Checkpoints and restores of one run, and what the ckpt metrics derive
// from them.
class CkptStats {
 public:
  explicit CkptStats(bool underLoad) : underLoad_(underLoad) {}
  // Accounts one checkpoint call that started at `startNs` and took
  // `wallNs`, with its ckpt.full / ckpt.incremental span and the
  // ckpt.stream and ckpt.write children taken from the result's timings.
  void addCheckpoint(bool full, std::uint64_t startNs, std::uint64_t wallNs,
                     const sftree::ckpt::CheckpointResult& res, SpanLog* spans);
  // Checks that newestValidCheckpoint accepts the newest file written, and
  // times it.
  void verifyNewest(const Options& opt, const std::string& dir);
  // Restores the newest checkpoint of `dir` into a map on `sched`, timed.
  std::unique_ptr<sftree::shard::ShardedMap> restore(
      const Options& opt, const std::string& dir, int shards,
      sftree::shard::MaintenanceScheduler& sched, SpanLog* spans);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t checkpoints() const { return ok_; }

  // ckpt_bytes_per_key.
  void reportEndToEnd(Report& r) const;
  // ckpt.*: checkpoints taken under load by their median; checkpoints of a
  // quiesced map and restores by their fastest repetition.
  void reportLayers(Report& r) const;

 private:
  bool underLoad_;
  std::vector<Timed> full_, incr_, restore_;  // seconds
  std::vector<double> fullBytes_, incrBytes_, keys_, streamMs_, writeMs_,
      verifyMs_;
  std::uint64_t reused_ = 0, segments_ = 0, rounds_ = 0, forced_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0, ok_ = 0, lastOkId_ = 0;
};

// Deletes the checkpoint files of `dir` older than `keepFrom`, a full
// checkpoint's id: nothing newer references them.
void pruneBefore(const std::string& dir, std::uint64_t keepFrom);

// The checkpoint layer on a quiesced map, for the workloads whose load does
// not checkpoint: pairs of a full checkpoint and an incremental after
// toggling one key in each of eighthOfSlots, then restores, each repeated
// at least minReps times and, in a traced run, more while a one-second
// budget lasts; with the ckpt_newest and ckpt_restore checks.
CkptStats checkpointCycle(const Options& opt, sftree::shard::ShardedMap& map,
                          sftree::shard::MaintenanceScheduler& sched,
                          int minReps, SpanLog* spans);

// The single-thread layer ladder (traced run): the same op stream through an
// empty transaction, a standalone SFTree holding the map's current content,
// the ShardedMap and the ServingTier. Reports stm.empty_tx_ns, trees.read_ns,
// trees.update_ns, shard.read_extra_ns, shard.update_extra_ns and, when
// `serveLayers`, the serve.* metrics of the synchronous serving rung.
void runLadder(const Options& opt, Report& r, sftree::shard::ShardedMap& map,
               const std::vector<Op>& stream,
               const std::vector<Key>& tokenPositions, double secondsPerRung,
               bool serveLayers);

// --- workloads ---------------------------------------------------------------

void runUpdateSmall(const Options& opt, Report& r);
void runReadLarge(const Options& opt, Report& r);
void runServeOpen(const Options& opt, Report& r);
void runCkptWrites(const Options& opt, Report& r);

}  // namespace perfbench
