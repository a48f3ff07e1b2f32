// serve_open: an open-loop Poisson stream from one busy-wait generator into a
// ServingTier over a two-shard map. Every request is timed from the instant
// it was due, so a stall in the generator or the tier counts against every
// request it delays.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "serve/serving.hpp"

namespace perfbench {

namespace shard = sftree::shard;
namespace serve = sftree::serve;

namespace {

constexpr double kFixedRate = 40'000;
// max_rate_ops_s: the highest offered rate whose median latency stays
// within kLimitUs, with no rejects and at least kAchievedShare of the
// offered load completed within the cell. The limit sits on the median, not
// the p90: the tier stalls for milliseconds now and then, which moved the
// rate at which p90 crosses 100 us by a fifth from run to run, while the
// median only crosses the limit where the backlog starts to grow.
constexpr double kLimitUs = 100;
constexpr double kLimitQuantile = 0.5;
constexpr double kAchievedShare = 0.95;
// Calm slices the fixed-rate phase waits for (see runServeOpen).
constexpr std::size_t kCalmSlicesWanted = 30;

struct Record {
  std::uint64_t due = 0;
  std::uint64_t submitStart = 0;
  std::uint64_t submitEnd = 0;
  std::uint64_t done = 0;
  std::uint64_t queueNs = 0;  // Result.latencyNs: enqueue -> completion
  serve::OpKind op = serve::OpKind::kGet;
  bool ok = false;
  bool rejected = false;
};

struct Cell {
  double rate = 0;
  double seconds = 0;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completedInCell = 0;
  SlicedSamples read, update, all;  // due -> completion
  std::vector<std::uint64_t> slices;  // ids of the cell's slices
  Samples late, submit, queue;

  double achieved() const {
    return static_cast<double>(completedInCell) / seconds;
  }
  bool meetsLimit(const std::vector<char>& use) const {
    return rejected == 0 &&
           all.sliceMedian(kLimitQuantile, use) <= kLimitUs * 1e3 &&
           achieved() >= kAchievedShare * rate;
  }
  void merge(const Cell& o) {
    seconds += o.seconds;
    submitted += o.submitted;
    rejected += o.rejected;
    completedInCell += o.completedInCell;
    read.merge(o.read);
    update.merge(o.update);
    all.merge(o.all);
    late.merge(o.late);
    submit.merge(o.submit);
    queue.merge(o.queue);
    slices.insert(slices.end(), o.slices.begin(), o.slices.end());
  }
};

// A cell's margin against the limit, log(limit / latency), with the latency
// clamped to [limit / 8, 8 x limit]; a cell with rejects or a short achieved
// rate gets the lowest margin.
double margin(const Cell& c, const std::vector<char>& use) {
  const double limit = kLimitUs * 1e3;
  const bool keptUp =
      c.rejected == 0 && c.achieved() >= kAchievedShare * c.rate;
  const double lat =
      keptUp ? c.all.sliceMedian(kLimitQuantile, use) : 8 * limit;
  return std::log(limit / std::clamp(lat, limit / 8, 8 * limit));
}

// YCSB-A-like: half reads (get or contains), half updates (insert or erase),
// Zipf 0.99 keys.
std::vector<Op> makeServeStream(const KeySpace& ks, std::uint64_t seed,
                                std::size_t n) {
  Rng rng(seed);
  const Zipf zipf(ks.range, ks.zipf);
  std::vector<Op> out(n);
  for (Op& op : out) {
    const bool read = (rng.next() & 1) != 0;
    const bool alt = (rng.next() & 1) != 0;
    op.kind = read ? (alt ? OpKind::kGet : OpKind::kContains)
                   : (alt ? OpKind::kInsert : OpKind::kErase);
    op.key = static_cast<std::uint32_t>(zipf.next(rng));
  }
  return out;
}

serve::Request toRequest(const Op& op) {
  serve::Request r;
  r.key = op.key;
  r.value = op.key;
  switch (op.kind) {
    case OpKind::kGet: r.op = serve::OpKind::kGet; break;
    case OpKind::kInsert: r.op = serve::OpKind::kInsert; break;
    case OpKind::kErase: r.op = serve::OpKind::kErase; break;
    default: r.op = serve::OpKind::kContains; break;
  }
  return r;
}

// The open-loop generator: Poisson arrivals drawn from the seed, requests
// taken from the pre-generated stream in order.
class Generator {
 public:
  Generator(serve::ServingTier& tier, const std::vector<Op>& stream,
            std::uint64_t seed)
      : tier_(tier), stream_(stream), gaps_(seed ^ 0x9A95ULL) {}

  // One cell at `rate` for `seconds`; returns once every request of it has
  // completed. With `spans`, one request in 16 gets a serve.complete span
  // (due -> completion) and a serve.submit child, sharing a trace id.
  Cell run(double rate, double seconds, SpanLog* spans) {
    Cell c;
    c.rate = rate;
    c.seconds = seconds;
    const auto cap = static_cast<std::size_t>(rate * seconds * 1.5) + 1024;
    std::vector<Record> recs(cap);
    std::atomic<std::uint64_t> done{0};
    const double meanGapNs = 1e9 / rate;
    const std::uint64_t t0 = nowNs();
    const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t due = t0;
    std::size_t n = 0;
    for (; n < cap; ++n) {
      due += static_cast<std::uint64_t>(-std::log(1.0 - gaps_.unit()) *
                                        meanGapNs);
      if (due >= end) break;
      while (nowNs() < due) {
        // Busy-wait: the gaps are microseconds, far below sleep latency.
      }
      Record& rec = recs[n];
      const serve::Request req = toRequest(stream_[pos_]);
      if (++pos_ == stream_.size()) pos_ = 0;
      rec.due = due;
      rec.op = req.op;
      rec.submitStart = nowNs();
      tier_.submit(req, [&rec, &done](const serve::Result& res) {
        rec.done = nowNs();
        rec.ok = res.ok;
        rec.rejected = res.rejected;
        rec.queueNs = res.latencyNs;
        done.fetch_add(1, std::memory_order_release);
      });
      rec.submitEnd = nowNs();
    }
    while (done.load(std::memory_order_acquire) < n) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    c.submitted = n;
    for (std::size_t i = 0; i < n; ++i) {
      const Record& rec = recs[i];
      if (rec.rejected) {
        ++c.rejected;
        continue;
      }
      if (rec.done <= end) ++c.completedInCell;
      const std::uint64_t lat = rec.done - rec.due;
      const std::uint64_t slice = starts_.size() + (rec.due - t0) / kSliceNs;
      (serve::isReadOp(rec.op) ? c.read : c.update).add(slice, lat);
      c.all.add(slice, lat);
      c.late.add(rec.submitStart - rec.due);
      c.submit.add(rec.submitEnd - rec.submitStart);
      c.queue.add(rec.queueNs);
      if (rec.ok && rec.op == serve::OpKind::kInsert) ++inserted;
      if (rec.ok && rec.op == serve::OpKind::kErase) ++erased;
      if (spans != nullptr && (i & 15) == 0) {
        const std::uint64_t id = spans->newId();
        spans->addMain(Span{id, id, 0, rec.due, rec.done, "serve.complete"});
        spans->addMain(Span{id, spans->newId(), id, rec.submitStart,
                            rec.submitEnd, "serve.submit"});
      }
    }
    // Cells never share a slice.
    for (std::uint64_t t = t0; t < end; t += kSliceNs) {
      c.slices.push_back(starts_.size());
      starts_.push_back(t);
    }
    return c;
  }

  // The slices of `c` that count (calmMask over them alone), as a mask
  // over slice ids; `calm` receives how many were calm.
  std::vector<char> use(const Cell& c, std::size_t* calm = nullptr) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;
    for (const auto id : c.slices) {
      slices.emplace_back(starts_[id], starts_[id] + kSliceNs);
    }
    const std::vector<char> m = calmMask(slices, calm);
    std::vector<char> mask(starts_.size(), 0);
    for (std::size_t i = 0; i < c.slices.size(); ++i) mask[c.slices[i]] = m[i];
    return mask;
  }

  // Successful inserts and erases over every cell (conservation check).
  std::int64_t inserted = 0;
  std::int64_t erased = 0;

 private:
  serve::ServingTier& tier_;
  const std::vector<Op>& stream_;
  Rng gaps_;
  std::size_t pos_ = 0;
  std::vector<std::uint64_t> starts_;  // start of every slice so far, by id
};

struct ServeStack {
  MapStack ms;
  std::unique_ptr<serve::ServingTier> tier;  // destroyed before the map
};

}  // namespace

void runServeOpen(const Options& opt, Report& r) {
  KeySpace ks;
  ks.keys = opt.tiny ? 1 << 12 : 1 << 16;
  ks.range = ks.keys * 2;
  ks.zipf = 0.99;
  const std::vector<std::uint32_t> initial = makeInitialKeys(ks, opt.seed);
  const std::vector<Op> stream =
      makeServeStream(ks, opt.seed * 1000, opt.tiny ? 1 << 14 : 1 << 20);

  serve::ServingTierConfig tc;
  tc.executors = 2;
  ServeStack stack;
  const double setupS = repeatSetup(
      3,
      [&] {
        stack.tier.reset();
        stack.ms.map.reset();
        stack.ms.sched.reset();
      },
      [&] {
        stack.ms = buildMap(2, initial, kThreadBudget - 1);
        stack.tier = std::make_unique<serve::ServingTier>(*stack.ms.map, tc);
      });
  shard::ShardedMap& map = *stack.ms.map;
  serve::ServingTier& tier = *stack.tier;
  Generator gen(tier, stream, opt.seed);

  // Warm-up, then the fixed-rate phase (60% of the time) in four cells; a
  // traced run traces cells 1 and 3 and compares them with cells 0 and 2.
  gen.run(kFixedRate, std::min(1.0, opt.seconds * 0.1), nullptr);
  std::unique_ptr<SpanLog> spans;
  if (opt.trace) spans = std::make_unique<SpanLog>(0, 1 << 18);
  Gauges gauges;
  const LayerSnap before = LayerSnap::take(map, *stack.ms.sched);
  const serve::ServingTierStats tsBefore = tier.stats();
  const double steal0 = stealMs();
  // While fewer than 30 slices (3 s) are calm, up to eight more cells run,
  // so a burst of host interference is waited out rather than measured.
  // rss_mb is read after the four regular cells: extra cells and the rate
  // ladder add inserts (the arena keeps every block it ever allocated) and
  // per-request records of the benchmark's own.
  Cell fixed, untraced, traced;
  std::size_t calm = 0;
  double rssMb = 0;
  for (int q = 0; q < 4 || (q < 12 && calm < kCalmSlicesWanted); ++q) {
    const bool tracedCell = spans != nullptr && q % 2 == 1;
    Cell c = gen.run(kFixedRate, opt.seconds * 0.6 / 4,
                     tracedCell ? spans.get() : nullptr);
    if (opt.trace) gauges.sample(map);
    (tracedCell ? traced : untraced).merge(c);
    fixed.merge(c);
    gen.use(fixed, &calm);
    if (q == 3) rssMb = peakRssMb();
  }
  const std::vector<char> fixedUse = gen.use(fixed);
  const double stealFixed = stealMs() - steal0;
  const LayerSnap after = LayerSnap::take(map, *stack.ms.sched);
  const serve::ServingTierStats tsAfter = tier.stats();
  r.attempted = fixed.submitted;
  r.failed = fixed.rejected;

  // The rate ladder (40% of the time). Coarse: double (or halve) the rate
  // from the fixed rate until the limit flips, which brackets the highest
  // rate meeting it within a factor of two. Fine: six rates spread
  // geometrically inside the bracket; a least-squares line through each
  // cell's margin log(limit / latency) against log(rate) crosses zero at
  // max_rate_ops_s. The line weighs every fine cell, so one cell spoiled by
  // a host stall shifts the estimate a little instead of deciding it.
  std::string ladder;
  const double coarseS = opt.seconds * 0.025;
  const double fineS = opt.seconds * 0.05;
  // One ladder cell: its margin against the limit.
  const auto probe = [&](double rate, double seconds) {
    Cell c = gen.run(rate, seconds, nullptr);
    const std::vector<char> use = gen.use(c);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.0f:%.0fus", ladder.empty() ? "" : " ",
                  rate, c.all.sliceMedian(kLimitQuantile, use) / 1e3);
    ladder += buf;
    return margin(c, use);
  };
  // A coarse rate misses the limit only when two cells in a row miss it.
  const auto coarseOk = [&](double rate) {
    return probe(rate, coarseS) >= 0 || probe(rate, coarseS) >= 0;
  };
  double lo = kFixedRate;  // meets the limit
  double hi = kFixedRate;  // misses it
  if (fixed.meetsLimit(fixedUse)) {
    for (hi = 2 * lo; hi < 64 * kFixedRate && coarseOk(hi); hi *= 2) lo = hi;
  } else {
    for (lo = hi / 2; lo > kFixedRate / 64 && !coarseOk(lo); lo /= 2) hi = lo;
  }
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const int fine = 6;
  for (int i = 1; i <= fine; ++i) {
    const double rate = lo * std::pow(hi / lo, i / (fine + 1.0));
    const double x = std::log(rate);
    const double y = probe(rate, fineS);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double slope = (fine * sxy - sx * sy) / (fine * sxx - sx * sx);
  const double icept = (sy - slope * sx) / fine;
  const double maxRate = slope < 0
                             ? std::clamp(std::exp(-icept / slope), lo, hi)
                             : std::sqrt(lo * hi);
  tier.stop();

  const std::int64_t expected =
      static_cast<std::int64_t>(initial.size()) + gen.inserted - gen.erased;

  if (opt.trace) {
    OpCounts counts;
    counts.ops = fixed.submitted - fixed.rejected;
    counts.updates = fixed.update.size();
    reportMapLayers(r, before, after, counts, gauges, map);
    r.metric("shard.populate_us_per_key",
             stack.ms.populateSec * 1e6 / static_cast<double>(ks.keys), "us");
    const auto share = [](double n, double d) { return d == 0 ? 0 : n / d; };
    const auto diff = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a);
    };
    r.metric("serve.submit_ns", fixed.submit.quantile(0.5), "ns");
    r.metric("serve.batch_fill_mean",
             share(diff(tsBefore.batchedOps, tsAfter.batchedOps),
                   diff(tsBefore.batchTxs, tsAfter.batchTxs)),
             "count");
    r.metric("serve.batch_tx_p50_us",
             histDeltaQuantile(tsBefore.batchNs, tsAfter.batchNs, 0.5) / 1e3,
             "us");
    r.metric("serve.queue_to_done_p50_us", fixed.queue.quantile(0.5) / 1e3,
             "us");
    r.metric("serve.per_op_share",
             share(diff(tsBefore.perOpTxs, tsAfter.perOpTxs),
                   diff(tsBefore.completed, tsAfter.completed)),
             "ratio");
    r.metric("serve.queue_depth_max",
             static_cast<double>(tsAfter.maxQueueDepth), "count");
    r.metric("serve.rejected_share",
             share(static_cast<double>(fixed.rejected),
                   static_cast<double>(fixed.submitted)),
             "ratio");
    r.metric("serve.gen_late_p90_us", fixed.late.quantile(0.9) / 1e3, "us");
    r.metric("serve.gen_late_max_us", fixed.late.max() / 1e3, "us");
    // Spans are assembled from timestamps every request records anyway, so
    // the traced cells differ only in the span writes.
    r.metric("obs.trace_overhead_pct",
             (traced.all.sliceMedian(0.5, fixedUse) /
                  untraced.all.sliceMedian(0.5, fixedUse) -
              1.0) * 100.0,
             "%");
  } else {
    r.metric("ops_s", fixed.achieved(), "1/s");
    r.metric("read_p50_us", fixed.read.sliceMedian(0.5, fixedUse) / 1e3, "us");
    r.metric("read_p90_us", fixed.read.sliceMedian(0.9, fixedUse) / 1e3, "us");
    r.metric("update_p50_us", fixed.update.sliceMedian(0.5, fixedUse) / 1e3,
             "us");
    r.metric("update_p90_us", fixed.update.sliceMedian(0.9, fixedUse) / 1e3,
             "us");
    r.metric("max_rate_ops_s", maxRate, "1/s");
    r.metric("setup_s", setupS, "s");
    r.metric("rss_mb", rssMb, "MB");
  }
  r.diag("offered_rate", kFixedRate);
  r.diag("read_samples", static_cast<double>(fixed.read.size()));
  r.diag("update_samples", static_cast<double>(fixed.update.size()));
  Samples pooled = fixed.all.pooled();
  r.diag("pooled_p50_us", pooled.quantile(0.5) / 1e3);
  r.diag("pooled_p90_us", pooled.quantile(0.9) / 1e3);
  r.diag("p99_us", pooled.quantile(0.99) / 1e3);
  r.diag("p999_us", pooled.quantile(0.999) / 1e3);
  r.diag("gen_late_p90_us", fixed.late.quantile(0.9) / 1e3);
  r.diag("gen_late_max_us", fixed.late.max() / 1e3);
  r.diag("queue_to_done_p50_us", fixed.queue.quantile(0.5) / 1e3);
  r.diag("steal_ms", stealFixed);
  r.diag("rate_ladder", ladder);
  r.diag("calm_slices", static_cast<double>(calm));
  r.diag("slices", static_cast<double>(fixed.slices.size()));

  checkMap(opt, map, expected, "serve_open");

  const CkptStats cc =
      checkpointCycle(opt, map, *stack.ms.sched, 1, spans.get());
  r.attempted += cc.attempted();
  r.failed += cc.failed();
  if (opt.trace) {
    cc.reportLayers(r);
    runLadder(opt, r, map, stream, {}, opt.tiny ? 0.05 : 0.3, false);
    const std::string path = opt.outDir + "/spans-serve_open.json";
    if (!spans->write(path)) throw std::runtime_error("cannot write " + path);
    r.diag("spans", static_cast<double>(spans->count()));
    r.diag("spans_file", path);
  } else {
    cc.reportEndToEnd(r);
  }
}

}  // namespace perfbench
