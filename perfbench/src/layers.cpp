// Per-layer measurements shared by the workloads: the checkpoint cycle over a
// quiesced map, and the single-thread layer ladder of the traced run.
#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "bench.hpp"
#include "ckpt/checkpoint.hpp"
#include "serve/serving.hpp"
#include "stm/stm.hpp"

namespace perfbench {

namespace shard = sftree::shard;
namespace ckpt = sftree::ckpt;
namespace serve = sftree::serve;
namespace trees = sftree::trees;

void pruneBefore(const std::string& dir, std::uint64_t keepFrom) {
  namespace fs = std::filesystem;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0) continue;
    const std::uint64_t id = std::strtoull(name.c_str() + 5, nullptr, 10);
    if (id < keepFrom) fs::remove(e.path());
  }
}

void CkptStats::addCheckpoint(bool full, std::uint64_t startNs,
                              std::uint64_t wallNs,
                              const ckpt::CheckpointResult& res,
                              SpanLog* spans) {
  ++attempted_;
  if (!res.ok) {
    ++failed_;
    return;
  }
  ++ok_;
  lastOkId_ = res.fileId;
  rounds_ += static_cast<std::uint64_t>(res.rounds);
  forced_ += res.forcedCut ? 1 : 0;
  const Timed t{startNs, startNs + wallNs, static_cast<double>(wallNs) / 1e9};
  if (full) {
    full_.push_back(t);
    fullBytes_.push_back(static_cast<double>(res.bytesWritten));
    keys_.push_back(static_cast<double>(res.keys));
    streamMs_.push_back(static_cast<double>(res.streamNs) / 1e6);
    writeMs_.push_back(static_cast<double>(res.writeNs) / 1e6);
  } else {
    incr_.push_back(t);
    incrBytes_.push_back(static_cast<double>(res.bytesWritten));
    reused_ += res.reusedSegments;
    segments_ += res.segments;
  }
  if (spans == nullptr) return;
  const std::uint64_t id = spans->newId();
  const std::uint64_t s = startNs;
  spans->addMain(Span{id, id, 0, s, s + wallNs,
                      full ? "ckpt.full" : "ckpt.incremental"});
  spans->addMain(Span{id, spans->newId(), id, s, s + res.streamNs,
                      "ckpt.stream"});
  spans->addMain(Span{id, spans->newId(), id, s + res.streamNs,
                      s + res.streamNs + res.writeNs, "ckpt.write"});
}

void CkptStats::verifyNewest(const Options& opt, const std::string& dir) {
  if (ok_ == 0) throw CheckFailed(opt.workload + ": no checkpoint completed");
  const std::uint64_t t0 = nowNs();
  const auto newest = ckpt::newestValidCheckpoint(dir);
  verifyMs_.push_back(static_cast<double>(nowNs() - t0) / 1e6);
  expectCount(opt, "ckpt_newest",
              newest ? static_cast<std::int64_t>(*newest) : -1,
              static_cast<std::int64_t>(lastOkId_));
}

std::unique_ptr<shard::ShardedMap> CkptStats::restore(
    const Options& opt, const std::string& dir, int shards,
    shard::MaintenanceScheduler& sched, SpanLog* spans) {
  ckpt::RestoreOptions ro;
  ro.mapConfig = mapConfig(shards, &sched);
  ro.parallelism = kThreadBudget - 1;
  ckpt::RestoreReport rep;
  const std::uint64_t t0 = nowNs();
  auto restored = ckpt::restore(dir, ro, rep);
  const std::uint64_t t1 = nowNs();
  ++attempted_;
  if (!restored) {
    throw CheckFailed(opt.workload + ": restore failed: " + rep.error);
  }
  restore_.push_back({t0, t1, static_cast<double>(t1 - t0) / 1e9});
  if (spans != nullptr) {
    const std::uint64_t id = spans->newId();
    spans->addMain(Span{id, id, 0, t0, t1, "ckpt.restore"});
  }
  return restored;
}

namespace {

double ratio(double n, double d) { return d == 0 ? 0 : n / d; }

// The fastest calm repetition, or the median for checkpoints under load.
double pick(const std::vector<Timed>& t, bool median_) {
  const std::vector<double> v = calmValues(t);
  if (v.empty()) return 0;
  return median_ ? median(v) : *std::min_element(v.begin(), v.end());
}

void diagSpread(Report& r, const std::string& name,
                const std::vector<Timed>& t) {
  std::vector<double> v;
  for (const Timed& x : t) v.push_back(x.value);
  std::sort(v.begin(), v.end());
  r.diag(name + "_reps", static_cast<double>(v.size()));
  r.diag(name + "_p25", v.empty() ? 0 : v[v.size() / 4]);
  r.diag(name + "_p75", v.empty() ? 0 : v[v.size() * 3 / 4]);
}

}  // namespace

void CkptStats::reportEndToEnd(Report& r) const {
  std::vector<double> perKey;
  for (std::size_t i = 0; i < fullBytes_.size(); ++i) {
    perKey.push_back(ratio(fullBytes_[i], keys_[i]));
  }
  r.metric("ckpt_bytes_per_key", median(perKey), "B");
}

void CkptStats::reportLayers(Report& r) const {
  // A quiesced checkpoint or a restore of the same file varies up to
  // threefold with the background maintenance sweeps that land on some
  // repetitions and not others; the fastest is its cost without them (the
  // quartiles are in the diagnostics).
  r.metric("ckpt.full_s", pick(full_, underLoad_), "s");
  r.metric("ckpt.incr_s", pick(incr_, underLoad_), "s");
  r.metric("ckpt.restore_s", pick(restore_, false), "s");
  r.metric("ckpt.stream_ms", median(streamMs_), "ms");
  r.metric("ckpt.write_ms", median(writeMs_), "ms");
  r.metric("ckpt.rounds_per_ckpt",
           ratio(static_cast<double>(rounds_), static_cast<double>(ok_)),
           "count");
  r.metric("ckpt.forced_cut_share",
           ratio(static_cast<double>(forced_), static_cast<double>(ok_)),
           "ratio");
  r.metric("ckpt.reused_segment_share",
           ratio(static_cast<double>(reused_), static_cast<double>(segments_)),
           "ratio");
  r.metric("ckpt.incr_bytes_share",
           ratio(median(incrBytes_), median(fullBytes_)), "ratio");
  r.metric("ckpt.verify_ms", median(verifyMs_), "ms");
  diagSpread(r, "ckpt_full_s", full_);
  diagSpread(r, "ckpt_incr_s", incr_);
  diagSpread(r, "restore_s", restore_);
}

// Repetitions of the quiesced cycle: at least minReps, and in a traced run
// more while the budget lasts, so the per-layer figures of small maps rest
// on many measurements.
constexpr std::uint64_t kCkptBudgetNs = 1'000'000'000;
constexpr int kMaxReps = 400;

CkptStats checkpointCycle(const Options& opt, shard::ShardedMap& map,
                          shard::MaintenanceScheduler& sched, int minReps,
                          SpanLog* spans) {
  namespace fs = std::filesystem;
  const std::string dir = opt.outDir + "/ckpt-" + opt.workload;
  fs::remove_all(dir);
  // The lowest key of each slot of eighthOfSlots.
  Rng rng(opt.seed ^ 0xD1A7ULL);
  std::vector<char> dirty = eighthOfSlots(map, rng);
  std::vector<Key> toggle;
  for (Key k = 0; std::count(dirty.begin(), dirty.end(), 1) > 0; ++k) {
    char& d = dirty[map.slotOfKey(k)];
    if (d != 0) {
      d = 0;
      toggle.push_back(k);
    }
  }
  const std::uint64_t budget = opt.trace ? kCkptBudgetNs : 0;
  CkptStats c(false);
  {
    ckpt::CheckpointConfig cfg;
    cfg.dir = dir;
    ckpt::CheckpointWriter writer(map, cfg);
    const std::uint64_t until = nowNs() + budget;
    for (int rep = 0; rep % 2 == 1 || rep < 2 * minReps ||
                      (rep < 2 * kMaxReps && nowNs() < until);
         ++rep) {
      const bool full = rep % 2 == 0;
      if (!full) {
        // Each key is toggled, so every rep changes the map.
        for (const Key k : toggle) {
          if (!map.erase(k)) map.insert(k, k);
        }
      }
      const std::uint64_t t0 = nowNs();
      const ckpt::CheckpointResult res =
          full ? writer.full() : writer.incremental();
      const std::uint64_t wall = nowNs() - t0;
      if (full && res.ok) pruneBefore(dir, res.fileId);
      c.addCheckpoint(full, t0, wall, res, spans);
    }
  }
  c.verifyNewest(opt, dir);

  // The restored map is exactly the live one (nothing ran since the last
  // incremental).
  const std::vector<Key> live = map.keysInOrder();
  const std::uint64_t until = nowNs() + budget;
  for (int i = 0; i < minReps || (i < kMaxReps && nowNs() < until); ++i) {
    auto restored = c.restore(opt, dir, map.shardCount(), sched, spans);
    if (i == 0) {
      checkMap(opt, *restored, static_cast<std::int64_t>(live.size()),
               "restored map");
      if (restored->keysInOrder() != live) {
        throw CheckFailed(opt.workload +
                          ": restored keys differ from the checkpointed map");
      }
      expectCount(opt, "ckpt_restore",
                  static_cast<std::int64_t>(restored->size()),
                  static_cast<std::int64_t>(live.size()));
    }
  }
  fs::remove_all(dir);
  return c;
}

// --- the layer ladder --------------------------------------------------------

namespace {

struct Rung {
  Samples read, update;
  double all() {
    Samples s;
    s.merge(read);
    s.merge(update);
    return s.quantile(0.5);
  }
};

// Replays the stream through `exec` for at most `seconds`, timing each call.
template <typename F>
Rung timeRung(const std::vector<Op>& stream, double seconds, F&& exec) {
  Rung r;
  const std::uint64_t end = nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  for (const Op& op : stream) {
    const std::uint64_t t0 = nowNs();
    exec(op);
    const std::uint64_t t1 = nowNs();
    (isUpdate(op.kind) ? r.update : r.read).add(t1 - t0);
    if (t1 >= end) break;
  }
  return r;
}

template <typename Map>
void execOn(Map& m, const Op& op, std::vector<Key>& tokens) {
  switch (op.kind) {
    case OpKind::kContains: m.contains(op.key); break;
    case OpKind::kGet: m.get(op.key); break;
    case OpKind::kInsert: m.insert(op.key, op.key); break;
    case OpKind::kErase: m.erase(op.key); break;
    case OpKind::kMove: {
      Key& cur = tokens[op.key];
      if (m.move(cur, op.dest)) cur = op.dest;
      break;
    }
  }
}

}  // namespace

void runLadder(const Options& opt, Report& r, shard::ShardedMap& map,
               const std::vector<Op>& stream,
               const std::vector<Key>& tokenPositions, double secondsPerRung,
               bool serveLayers) {
  // Rung 0: the two clock reads every rung pays.
  Rung timer = timeRung(stream, secondsPerRung, [](const Op&) {});
  const double clockNs = timer.all();

  Rung emptyTx = timeRung(stream, secondsPerRung, [](const Op&) {
    sftree::stm::atomically([](sftree::stm::Tx&) {});
  });

  // A standalone tree with the map's current content, inserted in a seeded
  // random order and maintained to its fixpoint, as the map was.
  Rung tree;
  {
    std::vector<Key> keys = map.keysInOrder();
    Rng rng(opt.seed ^ 0x7EEULL);
    for (std::size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.below(i)]);
    }
    trees::SFTree t;
    parallelLoad(keys.size(), kThreadBudget - 1,
                 [&](std::size_t i) { t.insert(keys[i], keys[i]); });
    t.stopMaintenance();
    t.quiesceNow();
    t.startMaintenance();
    std::vector<Key> tokens = tokenPositions;
    tree = timeRung(stream, secondsPerRung,
                    [&](const Op& op) { execOn(t, op, tokens); });
  }

  std::vector<Key> tokens = tokenPositions;
  Rung sharded = timeRung(stream, secondsPerRung,
                          [&](const Op& op) { execOn(map, op, tokens); });

  // The serving rung: one synchronous request at a time, so its time over
  // the map op is the tier's own (queue handoff, executor wake, completion).
  serve::ServingTierConfig sc;
  sc.executors = 2;
  Samples submitNs, totalNs, queueNs;
  serve::ServingTierStats ts;
  {
    serve::ServingTier tier(map, sc);
    const std::uint64_t end =
        nowNs() + static_cast<std::uint64_t>(secondsPerRung * 1e9);
    for (const Op& op : stream) {
      serve::Request req;
      req.key = op.key;
      req.value = op.key;
      switch (op.kind) {
        case OpKind::kContains: req.op = serve::OpKind::kContains; break;
        case OpKind::kGet: req.op = serve::OpKind::kGet; break;
        case OpKind::kInsert: req.op = serve::OpKind::kInsert; break;
        case OpKind::kErase: req.op = serve::OpKind::kErase; break;
        case OpKind::kMove:  // the tier has no move: read the source
          req.op = serve::OpKind::kGet;
          req.key = tokens[op.key];
          break;
      }
      const std::uint64_t t0 = nowNs();
      serve::Future f = tier.submit(req);
      const std::uint64_t t1 = nowNs();
      const serve::Result res = f.get();
      const std::uint64_t t2 = nowNs();
      submitNs.add(t1 - t0);
      totalNs.add(t2 - t0);
      queueNs.add(res.latencyNs);
      if (t2 >= end) break;
    }
    tier.stop();
    ts = tier.stats();
  }

  const auto med = [](Samples& s) { return s.quantile(0.5); };
  r.metric("stm.empty_tx_ns", emptyTx.all() - clockNs, "ns");
  r.metric("trees.read_ns", med(tree.read) - clockNs, "ns");
  r.metric("trees.update_ns", med(tree.update) - clockNs, "ns");
  r.metric("shard.read_extra_ns", med(sharded.read) - med(tree.read), "ns");
  r.metric("shard.update_extra_ns", med(sharded.update) - med(tree.update),
           "ns");
  r.metric("serve.extra_ns", med(totalNs) - sharded.all(), "ns");
  r.diag("ladder_clock_ns", clockNs);
  r.diag("ladder_ops_tree", static_cast<double>(tree.read.size() +
                                                tree.update.size()));
  r.diag("ladder_ops_serve", static_cast<double>(totalNs.size()));
  if (!serveLayers) return;
  const auto share = [](double n, double d) { return d == 0 ? 0 : n / d; };
  r.metric("serve.submit_ns", med(submitNs) - clockNs, "ns");
  r.metric("serve.batch_fill_mean",
           share(static_cast<double>(ts.batchedOps),
                 static_cast<double>(ts.batchTxs)),
           "count");
  r.metric("serve.batch_tx_p50_us", ts.batchNs.quantile(0.5) / 1e3, "us");
  r.metric("serve.queue_to_done_p50_us", med(queueNs) / 1e3, "us");
  r.metric("serve.per_op_share",
           share(static_cast<double>(ts.perOpTxs),
                 static_cast<double>(ts.completed)),
           "ratio");
  r.metric("serve.queue_depth_max", static_cast<double>(ts.maxQueueDepth),
           "count");
  r.metric("serve.rejected_share",
           share(static_cast<double>(ts.rejected),
                 static_cast<double>(ts.submitted)),
           "ratio");
  // A synchronous caller is never behind its own schedule.
  r.metric("serve.gen_late_p90_us", 0, "us");
  r.metric("serve.gen_late_max_us", 0, "us");
}

}  // namespace perfbench
