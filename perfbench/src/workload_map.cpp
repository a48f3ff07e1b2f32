// The closed-loop workloads: update_small and read_large drive a sharded map
// with pre-generated insert/erase/contains streams; ckpt_writes moves tokens
// while a checkpointer streams full and incremental checkpoints.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "ckpt/checkpoint.hpp"

namespace perfbench {

namespace shard = sftree::shard;
namespace ckpt = sftree::ckpt;

namespace {

// One closed-loop client: its op stream (cycled), the tokens it owns in the
// move workload, and what it did.
struct Client {
  std::vector<Op> stream;
  std::vector<Key> tokens;  // kMove: current key of each owned token
  alignas(64) std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> updates{0};
  std::int64_t inserted = 0;  // successful inserts, warm-up included
  std::int64_t erased = 0;
  SlicedSamples readNs, updateNs;
};

bool execOp(shard::ShardedMap& m, const Op& op, Client& c) {
  switch (op.kind) {
    case OpKind::kContains:
      return m.contains(op.key);
    case OpKind::kGet:
      return m.get(op.key).has_value();
    case OpKind::kInsert:
      if (!m.insert(op.key, op.key)) return false;
      ++c.inserted;
      return true;
    case OpKind::kErase:
      if (!m.erase(op.key)) return false;
      ++c.erased;
      return true;
    case OpKind::kMove: {
      Key& cur = c.tokens[op.key];
      if (!m.move(cur, op.dest)) return false;
      cur = op.dest;
      return true;
    }
  }
  return false;
}

// Latency of one op in 8 is sampled; in a traced quarter one op in 64
// becomes a shard.<op> span.
constexpr std::uint64_t kSampleMask = 7;
constexpr std::uint64_t kSpanMask = 63;

struct WindowResult {
  OpCounts counts;
  double seconds = 0;
  double stealMs = 0;
  std::vector<double> sliceRates;  // ops/s of each whole slice
  std::vector<char> calm;          // the slices that count (calmMask)
  // Traced run: median calm-slice ops/s of the untraced and traced quarters.
  double untracedRate = 0;
  double tracedRate = 0;
};

// Runs the clients for a warm-up and then `seconds` of measurement. In a
// traced run the measured window alternates untraced and traced quarters
// (U T U T), so tracing overhead is measured on the same map state; the
// window owner samples the gauges meanwhile. `atStart` runs as the measured
// window begins. `sideTask`, when given, runs on its own thread for the
// measured window only and must return once `stop` is set.
WindowResult runWindow(
    shard::ShardedMap& map, std::vector<std::unique_ptr<Client>>& clients,
    double warmup, double seconds, SpanLog* spans, Gauges* gauges,
    const std::function<void()>& atStart,
    const std::function<void(std::atomic<bool>&)>& sideTask) {
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  // Start of the measured window (0 before it); samples are tagged with
  // their slice of it.
  std::atomic<std::uint64_t> start{0};
  std::atomic<bool> measuring{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients.size(); ++t) {
    threads.emplace_back([&, t] {
      Client& c = *clients[t];
      const std::size_t n = c.stream.size();
      std::size_t pos = (t * 7919) % n;
      std::uint64_t done = 0;
      std::uint64_t updates = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Op& op = c.stream[pos];
        if (++pos == n) pos = 0;
        const bool sampled = (done & kSampleMask) == 0;
        const bool span =
            (done & kSpanMask) == 0 && tracing.load(std::memory_order_relaxed);
        const std::uint64_t t0 = sampled || span ? nowNs() : 0;
        execOp(map, op, c);
        if (sampled || span) {
          const std::uint64_t t1 = nowNs();
          const std::uint64_t s = start.load(std::memory_order_relaxed);
          if (sampled && measuring.load(std::memory_order_relaxed) && t0 >= s) {
            (isUpdate(op.kind) ? c.updateNs : c.readNs)
                .add((t0 - s) / kSliceNs, t1 - t0);
          }
          if (span) {
            const std::uint64_t id = spans->newId();
            spans->add(static_cast<int>(t),
                       Span{id, id, 0, t0, t1, spanName(op.kind)});
          }
        }
        ++done;
        if (isUpdate(op.kind)) ++updates;
        c.ops.store(done, std::memory_order_relaxed);
        c.updates.store(updates, std::memory_order_relaxed);
      }
    });
  }
  const auto totals = [&] {
    OpCounts o;
    for (const auto& c : clients) {
      o.ops += c->ops.load(std::memory_order_relaxed);
      o.updates += c->updates.load(std::memory_order_relaxed);
    }
    return o;
  };
  const auto waitFor = [&](double s) {
    const std::uint64_t end = nowNs() + static_cast<std::uint64_t>(s * 1e9);
    while (nowNs() < end) {
      if (gauges != nullptr) gauges->sample(map);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };

  waitFor(warmup);
  WindowResult w;
  std::atomic<bool> sideStop{false};
  std::thread side;
  atStart();
  const double steal0 = stealMs();
  const OpCounts c0 = totals();
  const std::uint64_t t0 = nowNs();
  start.store(t0);
  measuring.store(true);
  if (sideTask) side = std::thread([&] { sideTask(sideStop); });
  for (int q = 0; q < 4; ++q) {
    tracing.store(spans != nullptr && q % 2 == 1);
    waitFor(seconds / 4);
  }
  tracing.store(false);
  const OpCounts c1 = totals();
  const std::uint64_t t1 = nowNs();
  measuring.store(false);
  stop.store(true);
  sideStop.store(true);
  for (auto& th : threads) th.join();
  if (side.joinable()) side.join();
  w.stealMs = stealMs() - steal0;
  w.seconds = static_cast<double>(t1 - t0) / 1e9;
  w.counts.ops = c1.ops - c0.ops;
  w.counts.updates = c1.updates - c0.updates;

  // Per-slice rates from the sampled ops (exactly one op in kSampleMask + 1
  // of each client is sampled).
  const auto n = static_cast<std::size_t>((t1 - t0) / kSliceNs);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;
  std::vector<std::uint64_t> perSlice(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    slices.emplace_back(t0 + k * kSliceNs, t0 + (k + 1) * kSliceNs);
  }
  for (const auto& c : clients) {
    for (const auto* s : {&c->readNs, &c->updateNs}) {
      const auto cnt = s->counts(n);
      for (std::size_t k = 0; k < n; ++k) perSlice[k] += cnt[k];
    }
  }
  for (const auto cnt : perSlice) {
    w.sliceRates.push_back(static_cast<double>(cnt * (kSampleMask + 1)) * 1e9 /
                           static_cast<double>(kSliceNs));
  }
  w.calm = calmMask(slices);
  // Quarters of the traced run, without the slice each quarter starts in.
  std::vector<double> quarter[2];
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t q = k * 4 / n;
    if (w.calm[k] != 0 && k != q * n / 4) {
      quarter[q % 2].push_back(w.sliceRates[k]);
    }
  }
  w.untracedRate = median(quarter[0]);
  w.tracedRate = median(quarter[1]);
  return w;
}

// Median over the calm slices of their rates.
double calmRate(const WindowResult& w) {
  std::vector<double> r;
  for (std::size_t k = 0; k < w.sliceRates.size(); ++k) {
    if (w.calm[k] != 0) r.push_back(w.sliceRates[k]);
  }
  return median(r);
}

// Latency and throughput of a closed-loop window: end-to-end metrics of an
// untraced run, diagnostics only of a traced one.
void reportLoop(Report& r, std::vector<std::unique_ptr<Client>>& clients,
                const WindowResult& w, bool asMetrics) {
  SlicedSamples reads, updates;
  for (const auto& c : clients) {
    reads.merge(c->readNs);
    updates.merge(c->updateNs);
  }
  const double opsS = calmRate(w);
  if (asMetrics) {
    r.metric("ops_s", opsS, "1/s");
    r.metric("read_p50_us", reads.sliceMedian(0.5, w.calm) / 1e3, "us");
    r.metric("read_p90_us", reads.sliceMedian(0.9, w.calm) / 1e3, "us");
    r.metric("update_p50_us", updates.sliceMedian(0.5, w.calm) / 1e3, "us");
    r.metric("update_p90_us", updates.sliceMedian(0.9, w.calm) / 1e3, "us");
    // A closed loop never builds a backlog: its saturated throughput is the
    // highest rate it sustains.
    r.metric("max_rate_ops_s", opsS, "1/s");
  }
  Samples pr = reads.pooled();
  Samples pu = updates.pooled();
  r.diag("window_ops_s", static_cast<double>(w.counts.ops) / w.seconds);
  r.diag("read_samples", static_cast<double>(pr.size()));
  r.diag("update_samples", static_cast<double>(pu.size()));
  r.diag("pooled_read_p90_us", pr.quantile(0.9) / 1e3);
  r.diag("read_p99_us", pr.quantile(0.99) / 1e3);
  r.diag("read_p999_us", pr.quantile(0.999) / 1e3);
  r.diag("pooled_update_p90_us", pu.quantile(0.9) / 1e3);
  r.diag("update_p99_us", pu.quantile(0.99) / 1e3);
  r.diag("update_p999_us", pu.quantile(0.999) / 1e3);
  r.diag("steal_ms", w.stealMs);
  r.diag("window_s", w.seconds);
  r.diag("calm_slices", static_cast<double>(
                            std::count(w.calm.begin(), w.calm.end(), 1)));
  r.diag("slices", static_cast<double>(w.calm.size()));
}

struct MapWorkload {
  const char* name;
  int shards;
  int clients;
  KeySpace ks;
  std::size_t streamOps;  // per client, cycled
  int ckptMinReps;        // see checkpointCycle
};

// update_small and read_large: one closed-loop run over two key spaces.
void runMapWorkload(const Options& opt, Report& r, const MapWorkload& wl) {
  const KeySpace& ks = wl.ks;
  const std::vector<std::uint32_t> initial = makeInitialKeys(ks, opt.seed);
  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < wl.clients; ++t) {
    auto c = std::make_unique<Client>();
    c->stream = makeMapStream(
        ks, opt.seed * 1000 + static_cast<std::uint64_t>(t), wl.streamOps);
    c->readNs.reserve(1 << 20);
    c->updateNs.reserve(1 << 19);
    clients.push_back(std::move(c));
  }

  MapStack stack;
  const double setupS = buildRepeatedly(3, wl.shards, initial, stack);
  const double populateUsPerKey =
      stack.populateSec * 1e6 / static_cast<double>(ks.keys);
  shard::ShardedMap& map = *stack.map;

  std::unique_ptr<SpanLog> spans;
  Gauges gauges;
  LayerSnap before;
  if (opt.trace) spans = std::make_unique<SpanLog>(wl.clients, 1 << 16);
  const double warmup = std::min(1.0, opt.seconds * 0.1);
  const WindowResult w = runWindow(
      map, clients, warmup, opt.seconds, spans.get(),
      opt.trace ? &gauges : nullptr,
      [&] { before = LayerSnap::take(map, *stack.sched); }, nullptr);
  r.attempted = w.counts.ops;

  std::int64_t expected = static_cast<std::int64_t>(initial.size());
  for (const auto& c : clients) expected += c->inserted - c->erased;

  if (opt.trace) {
    const LayerSnap after = LayerSnap::take(map, *stack.sched);
    reportMapLayers(r, before, after, w.counts, gauges, map);
    r.metric("shard.populate_us_per_key", populateUsPerKey, "us");
    r.metric("obs.trace_overhead_pct",
             (w.untracedRate / w.tracedRate - 1.0) * 100.0, "%");
    r.diag("untraced_ops_s", w.untracedRate);
    r.diag("traced_ops_s", w.tracedRate);
  }
  reportLoop(r, clients, w, !opt.trace);
  if (!opt.trace) {
    r.metric("setup_s", setupS, "s");
    r.metric("rss_mb", peakRssMb(), "MB");
  }
  checkMap(opt, map, expected, wl.name);

  // Checkpoint metrics of the quiesced final map.
  const CkptStats cc =
      checkpointCycle(opt, map, *stack.sched, wl.ckptMinReps, spans.get());
  r.attempted += cc.attempted();
  r.failed += cc.failed();
  if (opt.trace) {
    cc.reportLayers(r);
    runLadder(opt, r, map, clients[0]->stream, {}, opt.tiny ? 0.05 : 0.3, true);
    const std::string path = opt.outDir + "/spans-" + wl.name + ".json";
    if (!spans->write(path)) throw std::runtime_error("cannot write " + path);
    r.diag("spans", static_cast<double>(spans->count()));
    r.diag("spans_file", path);
  } else {
    cc.reportEndToEnd(r);
  }
}

}  // namespace

void runUpdateSmall(const Options& opt, Report& r) {
  MapWorkload wl{"update_small", 4, 3, {}, 1 << 20, 1};
  wl.ks.keys = 1 << 12;
  wl.ks.range = 1 << 13;
  wl.ks.updatePct = 20;
  wl.ks.biased = true;
  if (opt.tiny) wl.streamOps = 1 << 14;
  runMapWorkload(opt, r, wl);
}

void runReadLarge(const Options& opt, Report& r) {
  MapWorkload wl{"read_large", 4, 3, {}, 1 << 20, opt.tiny ? 1 : 3};
  wl.ks.keys = opt.tiny ? 1 << 14 : 1 << 20;
  wl.ks.range = wl.ks.keys * 2;
  wl.ks.zipf = 0.99;
  wl.ks.updatePct = 5;
  if (opt.tiny) wl.streamOps = 1 << 14;
  runMapWorkload(opt, r, wl);
}

// --- ckpt_writes -------------------------------------------------------------

namespace {

// Every key holds a distinct token id and all `tokens` ids are present.
void checkTokens(const Options& opt, shard::ShardedMap& map,
                 std::int64_t tokens, const std::string& check) {
  std::vector<char> seen(static_cast<std::size_t>(tokens), 0);
  std::int64_t distinct = 0;
  for (const Key k : map.keysInOrder()) {
    const auto v = map.get(k);
    if (!v || *v < 0 || *v >= tokens) {
      throw CheckFailed(check + ": key " + std::to_string(k) +
                        " holds no valid token");
    }
    char& s = seen[static_cast<std::size_t>(*v)];
    if (s == 0) ++distinct;
    s = 1;
  }
  expectCount(opt, check, distinct, tokens);
}

}  // namespace

void runCkptWrites(const Options& opt, Report& r) {
  namespace fs = std::filesystem;
  const int shards = 4;
  const int movers = 2;
  KeySpace ks;
  ks.keys = opt.tiny ? 1 << 12 : 1 << 18;
  ks.range = ks.keys * 2;
  const std::vector<std::uint32_t> initial = makeInitialKeys(ks, opt.seed);
  const std::string dir = opt.outDir + "/ckpt-ckpt_writes";
  fs::remove_all(dir);

  // Set-up: token i at key initial[i] (buildMap stores i as the value).
  MapStack stack;
  const double setupS = buildRepeatedly(3, shards, initial, stack);
  const double populateUsPerKey =
      stack.populateSec * 1e6 / static_cast<double>(ks.keys);
  shard::ShardedMap& map = *stack.map;

  // Writes land in one eighth of the routing slots, so incremental
  // checkpoints reuse the other seven eighths.
  Rng rng(opt.seed ^ 0x5EEDULL);
  const std::vector<char> hot = eighthOfSlots(map, rng);
  std::vector<std::uint32_t> hotKeys;
  for (std::uint32_t k = 0; k < ks.range; ++k) {
    if (hot[map.slotOfKey(k)] != 0) hotKeys.push_back(k);
  }
  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < movers; ++t) {
    clients.push_back(std::make_unique<Client>());
  }
  std::size_t hotTokens = 0;
  for (const std::uint32_t k : initial) {
    if (hot[map.slotOfKey(k)] == 0) continue;
    clients[hotTokens++ % movers]->tokens.push_back(k);
  }
  const std::size_t streamOps = opt.tiny ? 1 << 14 : 1 << 20;
  for (int t = 0; t < movers; ++t) {
    Client& c = *clients[static_cast<std::size_t>(t)];
    Rng srng(opt.seed * 1000 + static_cast<std::uint64_t>(t));
    c.stream.resize(streamOps);
    for (Op& op : c.stream) {
      if ((srng.next() & 1) != 0) {
        op.kind = OpKind::kGet;
        op.key = static_cast<std::uint32_t>(srng.below(ks.range));
      } else {
        op.kind = OpKind::kMove;
        op.key = static_cast<std::uint32_t>(srng.below(c.tokens.size()));
        op.dest = hotKeys[srng.below(hotKeys.size())];
      }
    }
    c.readNs.reserve(1 << 20);
    c.updateNs.reserve(1 << 20);
  }

  // The checkpointer: back-to-back cycles of one full and three incrementals.
  std::unique_ptr<SpanLog> spans;
  if (opt.trace) spans = std::make_unique<SpanLog>(movers, 1 << 16);
  CkptStats ck(true);
  ckpt::CheckpointConfig cc;
  cc.dir = dir;
  ckpt::CheckpointWriter writer(map, cc);
  const auto checkpointer = [&](std::atomic<bool>& stop) {
    while (!stop.load()) {
      for (int i = 0; i < 4 && !stop.load(); ++i) {
        const bool full = i == 0;
        const std::uint64_t t0 = nowNs();
        const ckpt::CheckpointResult res =
            full ? writer.full() : writer.incremental();
        const std::uint64_t wall = nowNs() - t0;
        if (!res.ok) std::cerr << "checkpoint failed: " << res.error << "\n";
        if (full && res.ok) pruneBefore(dir, res.fileId);
        ck.addCheckpoint(full, t0, wall, res, spans.get());
      }
    }
  };

  Gauges gauges;
  LayerSnap before;
  const double warmup = std::min(1.0, opt.seconds * 0.1);
  const WindowResult w = runWindow(
      map, clients, warmup, opt.seconds, spans.get(),
      opt.trace ? &gauges : nullptr,
      [&] { before = LayerSnap::take(map, *stack.sched); }, checkpointer);

  const auto tokens = static_cast<std::int64_t>(initial.size());
  if (opt.trace) {
    const LayerSnap after = LayerSnap::take(map, *stack.sched);
    reportMapLayers(r, before, after, w.counts, gauges, map);
    r.metric("shard.populate_us_per_key", populateUsPerKey, "us");
    r.metric("obs.trace_overhead_pct",
             (w.untracedRate / w.tracedRate - 1.0) * 100.0, "%");
    r.diag("untraced_ops_s", w.untracedRate);
    r.diag("traced_ops_s", w.tracedRate);
  }
  reportLoop(r, clients, w, !opt.trace);
  if (!opt.trace) {
    r.metric("setup_s", setupS, "s");
    r.metric("rss_mb", peakRssMb(), "MB");
  }

  // The live map conserves the tokens.
  checkMap(opt, map, tokens, "ckpt_writes");
  checkTokens(opt, map, tokens, "tokens");

  // The newest file is valid, and restoring it gives back every token.
  ck.verifyNewest(opt, dir);
  const int restores = opt.trace && !opt.tiny ? 5 : 1;
  for (int i = 0; i < restores; ++i) {
    auto restored = ck.restore(opt, dir, shards, *stack.sched, spans.get());
    if (i == 0) {
      checkMap(opt, *restored, tokens, "ckpt_writes restored map");
      checkTokens(opt, *restored, tokens, "ckpt_restore");
    }
  }
  r.attempted = w.counts.ops + ck.attempted();
  r.failed = ck.failed();
  r.diag("checkpoints", static_cast<double>(ck.checkpoints()));

  if (opt.trace) {
    ck.reportLayers(r);
    runLadder(opt, r, map, clients[0]->stream, clients[0]->tokens,
              opt.tiny ? 0.05 : 0.3, true);
    const std::string path = opt.outDir + "/spans-ckpt_writes.json";
    if (!spans->write(path)) throw std::runtime_error("cannot write " + path);
    r.diag("spans", static_cast<double>(spans->count()));
    r.diag("spans_file", path);
  } else {
    ck.reportEndToEnd(r);
  }
  fs::remove_all(dir);
}

}  // namespace perfbench
