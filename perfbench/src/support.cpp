#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "mem/arena.hpp"
#include "trees/tree_checks.hpp"

namespace perfbench {

namespace shard = sftree::shard;

void expectCount(const Options& opt, const std::string& check,
                 std::int64_t actual, std::int64_t expected) {
  if (opt.fault == check) ++expected;
  if (actual != expected) {
    throw CheckFailed(check + ": got " + std::to_string(actual) +
                      ", expected " + std::to_string(expected));
  }
}

// --- input generation --------------------------------------------------------

Zipf::Zipf(std::uint64_t n, double theta)
    : n_(n), theta_(theta), alpha_(1.0 / (1.0 - theta)), zetan_(0) {
  for (std::uint64_t i = 1; i <= n; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  const double zeta2 = 1.0 + std::pow(0.5, theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

Key Zipf::next(Rng& rng) const {
  const double u = rng.unit();
  const double uz = u * zetan_;
  std::uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 1;
  } else {
    rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= n_) rank = n_ - 1;
  }
  // n_ is a power of two, so an odd multiplier permutes [0, n_).
  return static_cast<Key>((rank * 0x9E3779B97F4A7C15ULL) & (n_ - 1));
}

const char* spanName(OpKind k) {
  switch (k) {
    case OpKind::kContains: return "shard.contains";
    case OpKind::kGet: return "shard.get";
    case OpKind::kInsert: return "shard.insert";
    case OpKind::kErase: return "shard.erase";
    case OpKind::kMove: return "shard.move";
  }
  return "shard.op";
}

std::vector<Op> makeMapStream(const KeySpace& ks, std::uint64_t seed,
                              std::size_t n) {
  Rng rng(seed);
  std::unique_ptr<Zipf> zipf;
  if (ks.zipf > 0) zipf = std::make_unique<Zipf>(ks.range, ks.zipf);
  const auto pick = [&]() -> std::uint32_t {
    return static_cast<std::uint32_t>(zipf ? zipf->next(rng)
                                           : rng.below(ks.range));
  };
  const double attempted = std::min(100.0, 2.0 * ks.updatePct);
  std::int64_t insCursor = static_cast<std::int64_t>(rng.below(ks.range));
  std::int64_t delCursor = static_cast<std::int64_t>(rng.below(ks.range));
  const auto range = static_cast<std::int64_t>(ks.range);
  std::vector<Op> out(n);
  for (Op& op : out) {
    if (rng.unit() * 100.0 < attempted) {
      if ((rng.next() & 1) != 0) {
        op.kind = OpKind::kInsert;
        if (ks.biased) {
          insCursor = (insCursor + static_cast<std::int64_t>(rng.below(10))) %
                      range;
          op.key = static_cast<std::uint32_t>(insCursor);
        } else {
          op.key = pick();
        }
      } else {
        op.kind = OpKind::kErase;
        if (ks.biased) {
          delCursor = (delCursor - static_cast<std::int64_t>(rng.below(10)) +
                       range) % range;
          op.key = static_cast<std::uint32_t>(delCursor);
        } else {
          op.key = pick();
        }
      }
    } else {
      op.kind = OpKind::kContains;
      op.key = pick();
    }
  }
  return out;
}

std::vector<std::uint32_t> makeInitialKeys(const KeySpace& ks,
                                           std::uint64_t seed) {
  Rng rng(seed ^ 0xA5A5A5A5ULL);
  std::vector<std::uint32_t> all(ks.range);
  for (std::uint32_t i = 0; i < ks.range; ++i) all[i] = i;
  for (std::uint32_t i = 0; i < ks.keys; ++i) {
    const auto j = i + static_cast<std::uint32_t>(rng.below(ks.range - i));
    std::swap(all[i], all[j]);
  }
  all.resize(ks.keys);
  all.shrink_to_fit();
  return all;
}

// --- measurements ------------------------------------------------------------

double Samples::quantile(double q) {
  if (v_.empty()) return 0;
  if (sortedSize_ != v_.size()) {
    std::sort(v_.begin(), v_.end());
    sortedSize_ = v_.size();
  }
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v_[lo]) * (1 - frac) +
         static_cast<double>(v_[hi]) * frac;
}

double Samples::max() { return quantile(1.0); }

void SlicedSamples::merge(const SlicedSamples& o) {
  ns_.insert(ns_.end(), o.ns_.begin(), o.ns_.end());
  slice_.insert(slice_.end(), o.slice_.begin(), o.slice_.end());
}

double SlicedSamples::sliceMedian(double q,
                                  const std::vector<char>& use) const {
  std::vector<Samples> bySlice(use.size());
  for (std::size_t i = 0; i < ns_.size(); ++i) {
    if (slice_[i] < use.size() && use[slice_[i]] != 0) {
      bySlice[slice_[i]].add(ns_[i]);
    }
  }
  std::vector<double> q50;
  for (Samples& s : bySlice) {
    if (s.size() > 0) q50.push_back(s.quantile(q));
  }
  return median(q50);
}

std::vector<std::uint64_t> SlicedSamples::counts(std::size_t n) const {
  std::vector<std::uint64_t> c(n, 0);
  for (const auto s : slice_) {
    if (s < n) ++c[s];
  }
  return c;
}

StealSampler& StealSampler::instance() {
  static StealSampler s;
  return s;
}

StealSampler::StealSampler() {
  samples_.emplace_back(nowNs(), stealMs());
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const double st = stealMs();
      std::lock_guard<std::mutex> lk(mu_);
      samples_.emplace_back(nowNs(), st);
    }
  });
}

StealSampler::~StealSampler() {
  stop_.store(true);
  thread_.join();
}

double StealSampler::between(std::uint64_t t0, std::uint64_t t1) const {
  std::lock_guard<std::mutex> lk(mu_);
  // The last sample at or before t0 and the first at or after t1.
  const auto at = [&](std::uint64_t t, bool after) {
    const auto it = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const auto& s, std::uint64_t v) { return s.first < v; });
    if (after) {
      return it == samples_.end() ? samples_.back().second : it->second;
    }
    if (it != samples_.end() && it->first == t) return it->second;
    return it == samples_.begin() ? it->second : std::prev(it)->second;
  };
  return at(t1, true) - at(t0, false);
}

std::vector<char> calmMask(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& intervals,
    std::size_t* calmOut) {
  const StealSampler& st = StealSampler::instance();
  std::vector<double> steal;
  std::size_t calm = 0;
  for (const auto& [t0, t1] : intervals) {
    steal.push_back(st.between(t0, t1));
    if (steal.back() <= kCalmStealMs) ++calm;
  }
  if (calmOut != nullptr) *calmOut = calm;
  std::vector<char> use(intervals.size(), 0);
  const std::size_t tenth = (intervals.size() + 9) / 10;
  if (calm >= tenth) {
    for (std::size_t i = 0; i < steal.size(); ++i) {
      use[i] = steal[i] <= kCalmStealMs;
    }
    return use;
  }
  std::vector<std::size_t> order(intervals.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  for (std::size_t i = 0; i < tenth; ++i) use[order[i]] = 1;
  return use;
}

std::vector<double> calmValues(const std::vector<Timed>& v) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const Timed& t : v) iv.emplace_back(t.startNs, t.endNs);
  const std::vector<char> use = calmMask(iv);
  std::vector<double> kept;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (use[i] != 0) kept.push_back(v[i].value);
  }
  return kept;
}

Samples SlicedSamples::pooled() const {
  Samples s;
  s.reserve(ns_.size());
  for (const auto v : ns_) s.add(v);
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double histDeltaQuantile(const sftree::obs::LogHistogram& before,
                         const sftree::obs::LogHistogram& after, double q) {
  using H = sftree::obs::LogHistogram;
  double n = 0;
  double d[H::kBucketCount];
  for (std::size_t b = 0; b < H::kBucketCount; ++b) {
    d[b] = static_cast<double>(after.bucketCount(b) - before.bucketCount(b));
    n += d[b];
  }
  if (n == 0) return 0;
  const double target = std::clamp(q, 0.0, 1.0) * n;
  double cum = 0;
  for (std::size_t b = 0; b < H::kBucketCount; ++b) {
    if (d[b] == 0) continue;
    if (cum + d[b] >= target) {
      const double lo =
          b == 0 ? 0.0 : static_cast<double>(H::bucketUpperBound(b - 1)) + 1;
      const double hi = std::min(static_cast<double>(H::bucketUpperBound(b)),
                                 static_cast<double>(after.max()));
      return lo + (hi - lo) * std::clamp((target - cum) / d[b], 0.0, 1.0);
    }
    cum += d[b];
  }
  return static_cast<double>(after.max());
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

// --- environment -------------------------------------------------------------

int usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

double stealMs() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t f[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (auto& x : f) in >> x;
  return static_cast<double>(f[7]) * 1000.0 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double stallProbeUs(double seconds) {
  const std::uint64_t end = nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t prev = nowNs();
  std::uint64_t worst = 0;
  while (prev < end) {
    const std::uint64_t t = nowNs();
    worst = std::max(worst, t - prev);
    prev = t;
  }
  return static_cast<double>(worst) / 1e3;
}

// --- report ------------------------------------------------------------------

namespace {
// Shortest text that reads back as exactly `v`: every digit measured.
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}
}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not a finite number");
  }
  metrics_.push_back({name, value, unit});
}

void Report::diag(const std::string& name, double value) {
  diag_.emplace_back(name, std::isfinite(value) ? num(value) : "null");
}

void Report::diag(const std::string& name, const std::string& value) {
  diag_.emplace_back(name, "\"" + value + "\"");
}

std::string Report::resultJson() const {
  std::ostringstream o;
  o << "{\"correct\": true, \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << num(m.value)
      << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}}";
  return o.str();
}

std::string Report::diagJson() const {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < diag_.size(); ++i) {
    o << (i ? ", " : "") << "\"" << diag_[i].first << "\": " << diag_[i].second;
  }
  o << "}";
  return o.str();
}

// --- spans -------------------------------------------------------------------

SpanLog::SpanLog(int threads, std::size_t perThread)
    : bufs_(static_cast<std::size_t>(threads) + 1), cap_(perThread) {
  for (auto& b : bufs_) b.reserve(perThread);
}

std::size_t SpanLog::count() const {
  std::size_t n = 0;
  for (const auto& b : bufs_) n += b.size();
  return n;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  bool first = true;
  for (std::size_t t = 0; t < bufs_.size(); ++t) {
    for (const Span& s : bufs_[t]) {
      std::fprintf(f,
                   "%s{\"trace\": %llu, \"id\": %llu, \"parent\": %llu, "
                   "\"name\": \"%s\", \"thread\": %zu, \"start_ns\": %llu, "
                   "\"dur_ns\": %llu}",
                   first ? "" : ",\n", static_cast<unsigned long long>(s.trace),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name, t,
                   static_cast<unsigned long long>(s.startNs),
                   static_cast<unsigned long long>(s.endNs - s.startNs));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- per-layer statistics ----------------------------------------------------

LayerSnap LayerSnap::take(shard::ShardedMap& map,
                          const shard::MaintenanceScheduler& sched) {
  LayerSnap s;
  s.atNs = nowNs();
  const shard::ShardedMapStats st = map.aggregatedStats();
  s.stm = st.stm;
  s.maint = st.maintenance;
  s.shardSizes = st.shardSizeEstimates;
  s.sched = sched.stats();
  return s;
}

void Gauges::sample(shard::ShardedMap& map) {
  std::uint64_t pending = 0;
  std::int64_t unremoved = 0;
  for (int i = 0; i < map.shardCount(); ++i) {
    sftree::trees::SFTree& t = map.shard(i);
    const auto ms = t.maintenanceStats();
    const std::int64_t limbo =
        static_cast<std::int64_t>(ms.nodesRetired - ms.nodesFreed);
    pending += static_cast<std::uint64_t>(std::max<std::int64_t>(limbo, 0));
    // Arena blocks in use = reachable nodes (the sentinel included) plus
    // retired nodes still in limbo; reachable minus present keys is the
    // logically deleted nodes maintenance has not unlinked yet.
    unremoved += std::max<std::int64_t>(
        t.arenaForStats().liveBlocks() - 1 - limbo - t.sizeEstimate(), 0);
  }
  limboPendingMax = std::max(limboPendingMax, pending);
  unremovedSum += static_cast<double>(unremoved);
  ++samples;
}

namespace {
double ratio(double n, double d) { return d == 0 ? 0 : n / d; }
template <typename T>
double delta(T a, T b) {
  return static_cast<double>(b) - static_cast<double>(a);
}
}  // namespace

void reportMapLayers(Report& r, const LayerSnap& a, const LayerSnap& b,
                     const OpCounts& c, const Gauges& g,
                     shard::ShardedMap& map) {
  const double ops = static_cast<double>(c.ops);
  const double upd = static_cast<double>(c.updates);
  const double commits = delta(a.stm.commits, b.stm.commits);
  const double aborts = delta(a.stm.aborts, b.stm.aborts);
  r.metric("stm.commits_per_op", ratio(commits, ops), "count");
  r.metric("stm.writes_per_update",
           ratio(delta(a.stm.writes, b.stm.writes), upd), "count");
  r.metric("stm.abort_share", ratio(aborts, commits + aborts), "ratio");
  r.metric("stm.reads_per_op",
           ratio(delta(a.stm.reads + a.stm.ureads, b.stm.reads + b.stm.ureads),
                 ops),
           "count");
  r.metric("stm.ro_commit_share",
           ratio(delta(a.stm.roCommits, b.stm.roCommits), commits), "ratio");

  const auto& ma = a.maint;
  const auto& mb = b.maint;
  const double rot = delta(ma.rotations, mb.rotations);
  const double rem = delta(ma.removals, mb.removals);
  const double fail = delta(ma.failedStructuralOps, mb.failedStructuralOps);
  r.metric("trees.height", map.height(), "levels");
  r.metric("trees.unremoved_nodes", g.unremovedMean(), "nodes");
  r.metric("trees.maint_rotations_per_update", ratio(rot, upd), "count");
  r.metric("trees.maint_removals_per_update", ratio(rem, upd), "count");
  r.metric("trees.maint_visits_per_update",
           ratio(delta(ma.nodesVisited, mb.nodesVisited), upd), "count");
  r.metric("trees.maint_failed_share", ratio(fail, rot + rem + fail), "ratio");
  r.metric("trees.maint_pass_p50_us",
           histDeltaQuantile(ma.passNs, mb.passNs, 0.5) / 1e3, "us");
  r.metric("trees.vq_drain_lag_us",
           ratio(delta(ma.queue.drainLatencyUsSum, mb.queue.drainLatencyUsSum),
                 delta(ma.queue.drained, mb.queue.drained)),
           "us");
  r.metric("trees.vq_dedup_share",
           ratio(delta(ma.queue.deduped, mb.queue.deduped),
                 delta(ma.queue.captured, mb.queue.captured)),
           "ratio");
  r.metric("trees.vq_dropped", delta(ma.queue.dropped, mb.queue.dropped),
           "count");

  r.metric("gc.limbo_pending_max", static_cast<double>(g.limboPendingMax),
           "nodes");
  r.metric("gc.freed_per_retired",
           ratio(delta(ma.nodesFreed, mb.nodesFreed),
                 delta(ma.nodesRetired, mb.nodesRetired)),
           "ratio");
  double arenaBytes = 0;
  for (int i = 0; i < map.shardCount(); ++i) {
    arenaBytes += static_cast<double>(map.shard(i).arenaForStats().slabCount() *
                                      sftree::mem::SlabArena::kSlabBytes);
  }
  r.metric("mem.arena_bytes_per_key",
           ratio(arenaBytes, static_cast<double>(map.sizeEstimate())), "B");

  double maxSize = 0;
  double sumSize = 0;
  for (const auto s : b.shardSizes) {
    maxSize = std::max(maxSize, static_cast<double>(s));
    sumSize += static_cast<double>(s);
  }
  r.metric("shard.size_skew",
           ratio(maxSize, sumSize / static_cast<double>(b.shardSizes.size())),
           "ratio");
  const double passes = delta(a.sched.passes, b.sched.passes);
  r.metric("shard.sched_active_share",
           ratio(delta(a.sched.activePasses, b.sched.activePasses), passes),
           "ratio");
  r.metric("shard.sched_passes_per_s",
           ratio(passes, delta(a.atNs, b.atNs) / 1e9), "1/s");
}

// --- the map stack -----------------------------------------------------------

shard::ShardedMapConfig mapConfig(int shards,
                                  shard::MaintenanceScheduler* sched) {
  shard::ShardedMapConfig c;
  c.shards = shards;
  c.scheduler = sched;
  c.name = "bench";
  return c;
}

MapStack buildMap(int shards, const std::vector<std::uint32_t>& keys,
                  int loaders) {
  MapStack s;
  shard::MaintenanceSchedulerConfig sc;
  sc.workers = 1;
  s.sched = std::make_unique<shard::MaintenanceScheduler>(sc);
  s.map = std::make_unique<shard::ShardedMap>(mapConfig(shards, s.sched.get()));
  const std::uint64_t t0 = nowNs();
  parallelLoad(keys.size(), loaders, [&](std::size_t i) {
    s.map->insert(keys[i], static_cast<Value>(i));
  });
  s.populateSec = static_cast<double>(nowNs() - t0) / 1e9;
  s.map->quiesce();
  return s;
}

std::vector<char> eighthOfSlots(shard::ShardedMap& map, Rng& rng) {
  const std::vector<int> owners = map.slotOwners();
  const auto perShard =
      owners.size() / 8 / static_cast<std::size_t>(map.shardCount());
  std::vector<char> mask(owners.size(), 0);
  for (int s = 0; s < map.shardCount(); ++s) {
    std::vector<std::size_t> mine;
    for (std::size_t i = 0; i < owners.size(); ++i) {
      if (owners[i] == s) mine.push_back(i);
    }
    for (std::size_t n = 0; n < perShard && !mine.empty(); ++n) {
      const std::size_t j = rng.below(mine.size());
      mask[mine[j]] = 1;
      mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }
  return mask;
}

double buildRepeatedly(int minReps, int shards,
                       const std::vector<std::uint32_t>& keys,
                       MapStack& stack) {
  return repeatSetup(
      minReps,
      [&] {
        stack.map.reset();  // the map unregisters from its scheduler first
        stack.sched.reset();
      },
      [&] { stack = buildMap(shards, keys, kThreadBudget - 1); });
}

void checkMap(const Options& opt, shard::ShardedMap& map, std::int64_t expected,
              const char* what) {
  map.quiesce();
  expectCount(opt, "conservation", static_cast<std::int64_t>(map.size()),
              expected);
  expectCount(opt, "conservation", map.sizeEstimate(), expected);
  for (int i = 0; i < map.shardCount(); ++i) {
    const auto res = sftree::trees::checkSFTree(map.shard(i));
    if (!res.ok) {
      throw CheckFailed(std::string(what) + ": shard " + std::to_string(i) +
                        " fails checkSFTree: " + res.error);
    }
  }
  const std::vector<Key> keys = map.keysInOrder();
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    throw CheckFailed(std::string(what) + ": a key is held by two shards");
  }
  expectCount(opt, "tree", static_cast<std::int64_t>(keys.size()), expected);
}

}  // namespace perfbench
