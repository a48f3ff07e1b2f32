#include "serve/serving.hpp"

#include <algorithm>
#include <utility>

#include "obs/clock.hpp"
#include "stm/stm.hpp"

namespace sftree::serve {

namespace {

// splitmix64 finalizer (the map's slot hash): adjacent keys scatter across
// submission queues, so one client scanning a key range load-balances the
// executors instead of hammering one.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

// How long an idle executor, and a Future::wait caller, spin before they
// block. At 40k req/s over two executors each sees one request per ~50 us
// on average; with Poisson arrivals e^-4 (~2%) of gaps exceed 200 us, so a
// steady stream almost never finds its executor parked and its p90 skips
// the futex handoff too. A 50 us budget left ~37% of gaps to a wakeup
// (serve_open read p90 ~14 us against ~4 us). The cost is bounded: one
// spin per idle stretch, after which the executor parks.
constexpr std::uint64_t kSpinBeforeParkNs = 200'000;

// Spins until `ready()` holds or kSpinBeforeParkNs passes; returns ready().
template <typename Ready>
bool spinUntil(Ready ready) {
  const std::uint64_t deadline = obs::nowNs() + kSpinBeforeParkNs;
  while (!ready()) {
    if (obs::nowNs() >= deadline) return false;
    cpuRelax();
  }
  return true;
}

}  // namespace

void Future::wait() {
  if (op_ == nullptr) return;
  const auto done = [this] {
    return op_->done.load(std::memory_order_acquire);
  };
  if (spinUntil(done)) return;
  while (!done()) op_->done.wait(false, std::memory_order_acquire);
}

ServingTier::ServingTier(shard::ShardedMap& map, ServingTierConfig cfg)
    : map_(map), cfg_(cfg) {
  if (cfg_.batchSize < 1) cfg_.batchSize = 1;
  if (cfg_.batchRetryLimit < 1) cfg_.batchRetryLimit = 1;
  int n = cfg_.executors > 0 ? cfg_.executors : map_.shardCount();
  if (n < 1) n = 1;
  execs_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto ex = std::make_unique<Executor>();
    ex->curBatch = cfg_.batchSize;
    execs_.push_back(std::move(ex));
  }
  for (auto& ex : execs_) {
    Executor* e = ex.get();
    e->thread = std::thread([this, e] { executorLoop(*e); });
  }
}

ServingTier::~ServingTier() { stop(); }

std::size_t ServingTier::queueFor(Key k) const {
  return static_cast<std::size_t>(mix64(static_cast<std::uint64_t>(k)) %
                                  static_cast<std::uint64_t>(execs_.size()));
}

bool ServingTier::enqueue(detail::PendingOp* op) {
  op->enqueueTick = obs::tick();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  Executor& ex = *execs_[queueFor(op->req.key)];
  const bool full =
      cfg_.queueCapacity > 0 &&
      ex.depth.load(std::memory_order_relaxed) >=
          static_cast<std::int64_t>(cfg_.queueCapacity);
  if (full || stop_.load(std::memory_order_acquire)) {
    // Admission control: the callback, if any, runs on this thread. The
    // future reference, when requested, keeps the op alive past complete().
    reject(op);
    return false;
  }

  ex.depth.fetch_add(1, std::memory_order_relaxed);
  // Treiber push (the violation queue's producer idiom).
  op->next = ex.head.load(std::memory_order_relaxed);
  while (!ex.head.compare_exchange_weak(op->next, op,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
  }
  // High-water mark (racy max; a gauge, not an invariant).
  const auto d =
      static_cast<std::uint64_t>(ex.depth.load(std::memory_order_relaxed));
  std::uint64_t prev = ex.maxDepth.load(std::memory_order_relaxed);
  while (d > prev && !ex.maxDepth.compare_exchange_weak(
                         prev, d, std::memory_order_relaxed)) {
  }
  // Dekker handshake with the executor's park (store sleeping, fence, load
  // head): with both fences, it sees this push or this load sees it asleep.
  // An executor still inside its spin has not set `sleeping`, so this push
  // costs no syscall.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (ex.sleeping.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(ex.mu);
    ex.cv.notify_one();
  }
  return true;
}

// Completes an op that will not run: refused at admission or swept up by
// stop().
void ServingTier::reject(detail::PendingOp* op) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  op->res.op = op->req.op;
  op->res.key = op->req.key;
  op->res.rejected = true;
  op->res.latencyNs = obs::ticksToNs(obs::tick() - op->enqueueTick);
  op->complete();
}

Future ServingTier::submit(const Request& r) {
  auto* op = new detail::PendingOp(r, nullptr, /*references=*/2);
  enqueue(op);
  return Future(op);
}

bool ServingTier::submit(const Request& r,
                         std::function<void(const Result&)> cb) {
  return enqueue(new detail::PendingOp(r, std::move(cb), /*references=*/1));
}

void ServingTier::stop() {
  std::lock_guard<std::mutex> stopLk(stopMu_);
  if (stopped_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  for (auto& ex : execs_) {
    std::lock_guard<std::mutex> lk(ex->mu);
    ex->cv.notify_all();
  }
  for (auto& ex : execs_) {
    if (ex->thread.joinable()) ex->thread.join();
  }
  // Stragglers: a submitter that passed the admission check before stop_
  // was visible may have pushed after its executor drained and exited.
  // Nobody will execute them now — complete them as rejected so the
  // every-accepted-request-completes contract holds through shutdown.
  for (auto& ex : execs_) {
    detail::PendingOp* e = ex->head.exchange(nullptr, std::memory_order_acq_rel);
    while (e != nullptr) {
      detail::PendingOp* next = e->next;
      ex->depth.fetch_sub(1, std::memory_order_relaxed);
      reject(e);
      e = next;
    }
  }
  stopped_.store(true, std::memory_order_release);
}

void ServingTier::executorLoop(Executor& ex) {
  // Armed by every drained chain, so the executor spins once per idle
  // stretch; a park that times out (idleWait) parks again without spinning.
  bool spin = true;
  for (;;) {
    if (ex.backlogPos >= ex.backlog.size()) {
      ex.backlog.clear();
      ex.backlogPos = 0;
      detail::PendingOp* head =
          ex.head.exchange(nullptr, std::memory_order_acq_rel);
      if (head == nullptr) {
        if (stop_.load(std::memory_order_acquire)) {
          // Drain-to-empty shutdown: exit only on an empty queue (the stop
          // path sweeps the racing-submitter window afterwards).
          if (ex.head.load(std::memory_order_acquire) == nullptr) break;
          continue;
        }
        if (spin) {
          // A request arriving within the budget is taken without either
          // side sleeping; the next drain (or the stop check) handles it.
          spin = false;
          spinUntil([&] {
            return ex.head.load(std::memory_order_relaxed) != nullptr ||
                   stop_.load(std::memory_order_relaxed);
          });
          continue;
        }
        std::unique_lock<std::mutex> lk(ex.mu);
        ex.sleeping.store(true, std::memory_order_release);
        // Without it the store could pass the load below (x86 store
        // buffer), a racing submit would miss `sleeping` and its request
        // would wait out idleWait.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (ex.head.load(std::memory_order_acquire) == nullptr &&
            !stop_.load(std::memory_order_acquire)) {
          ex.cv.wait_for(lk, cfg_.idleWait);
        }
        ex.sleeping.store(false, std::memory_order_release);
        continue;
      }
      spin = true;
      // The exchanged chain is LIFO (newest first); reverse it so batches
      // execute in arrival order.
      for (detail::PendingOp* e = head; e != nullptr; e = e->next) {
        ex.backlog.push_back(e);
      }
      std::reverse(ex.backlog.begin(), ex.backlog.end());
    }
    // Coalesce the longest run of same-class (read vs update) requests up
    // to the AIMD window: a homogeneous read batch rides the zero-logging
    // read-only mode, which a single update in the batch would forfeit for
    // every read in it. Runs are consecutive, so order is preserved.
    const std::size_t avail = ex.backlog.size() - ex.backlogPos;
    const std::size_t lim = std::min(avail, ex.curBatch);
    const bool readClass = isReadOp(ex.backlog[ex.backlogPos]->req.op);
    std::size_t take = 1;
    while (take < lim &&
           isReadOp(ex.backlog[ex.backlogPos + take]->req.op) == readClass) {
      ++take;
    }
    executeBatch(ex, ex.backlog.data() + ex.backlogPos, take);
    ex.backlogPos += take;
  }
}

void ServingTier::execOneTx(stm::Tx& tx, detail::PendingOp& op) {
  Result& r = op.res;
  // Rewritten on every attempt; only the post-commit values are published.
  r.op = op.req.op;
  r.key = op.req.key;
  r.rejected = false;
  r.value.reset();
  switch (op.req.op) {
    case OpKind::kGet:
      r.value = map_.getTx(tx, op.req.key);
      r.ok = r.value.has_value();
      break;
    case OpKind::kContains:
      r.ok = map_.containsTx(tx, op.req.key);
      break;
    case OpKind::kInsert:
      r.ok = map_.insertTx(tx, op.req.key, op.req.value);
      break;
    case OpKind::kErase:
      r.ok = map_.eraseTx(tx, op.req.key);
      break;
  }
}

void ServingTier::completeOp(Executor& ex, detail::PendingOp* op) {
  const std::uint64_t lat = obs::ticksToNs(obs::tick() - op->enqueueTick);
  op->res.latencyNs = lat;
  if (isReadOp(op->req.op)) {
    ex.latencyReadNs.record(lat);
  } else {
    ex.latencyUpdateNs.record(lat);
  }
  ex.completed.fetch_add(1, std::memory_order_relaxed);
  ex.depth.fetch_sub(1, std::memory_order_relaxed);
  op->complete();  // may delete op
}

void ServingTier::executeBatch(Executor& ex, detail::PendingOp* const* ops,
                               std::size_t n) {
  if (n == 0) return;
  // The batch runs in the map's one domain, whichever shards it touches;
  // the single commit keeps the whole batch atomic.
  stm::Domain& dom = map_.domain();
  // The drain loop hands over homogeneous batches (one isReadOp class), so
  // the head op decides the mode: read batches ride the zero-logging
  // read-only path, update batches take full validation (the dual-path
  // migration checks rely on it).
  const stm::TxKind kind =
      isReadOp(ops[0]->req.op) ? stm::TxKind::ReadOnly : stm::TxKind::Normal;
  auto& st = stm::threadStats(dom);
  const std::uint64_t abortsBefore = st.conflictAbortTotal();
  std::size_t attempts = 0;
  std::size_t committed = n;
  const std::uint64_t t0 = obs::tick();
  st.beginOp();
  stm::atomically(dom, kind, [&](stm::Tx& tx) {
    // Conflict fallback: past the retry limit, commit only the first
    // request — a batch-sized conflict window collapses to a per-op one,
    // so a single hot key cannot convict the whole batch again.
    ++attempts;
    committed = attempts > cfg_.batchRetryLimit ? 1 : n;
    for (std::size_t i = 0; i < committed; ++i) execOneTx(tx, *ops[i]);
  });
  st.endOp();
  ex.batchNs.record(obs::ticksToNs(obs::tick() - t0));
  ex.batchFill.record(committed);
  ex.batchTxs.fetch_add(1, std::memory_order_relaxed);
  ex.batchedOps.fetch_add(committed, std::memory_order_relaxed);
  for (std::size_t i = 0; i < committed; ++i) completeOp(ex, ops[i]);

  if (committed < n) {
    // The convicted tail runs one transaction per request.
    ex.conflictFallbacks.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = committed; i < n; ++i) {
      detail::PendingOp& op = *ops[i];
      const stm::TxKind k1 =
          isReadOp(op.req.op) ? stm::TxKind::ReadOnly : stm::TxKind::Normal;
      st.beginOp();
      stm::atomically(dom, k1, [&](stm::Tx& tx) { execOneTx(tx, op); });
      st.endOp();
      ex.perOpTxs.fetch_add(1, std::memory_order_relaxed);
      completeOp(ex, ops[i]);
    }
  }

  // AIMD on abort pressure, the migrationBatch shape: halve after a batch
  // that aborted (floor 1 = per-op transactions), double back after two
  // consecutive clean batches. The executor thread runs the transactions,
  // so its own conflict-abort counter delta isolates this batch's aborts.
  if (cfg_.adaptiveBatch) {
    if (st.conflictAbortTotal() != abortsBefore) {
      ex.cleanStreak = 0;
      if (ex.curBatch > 1) {
        ex.curBatch = std::max<std::size_t>(1, ex.curBatch / 2);
        ex.batchShrinks.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (++ex.cleanStreak >= 2 && ex.curBatch < cfg_.batchSize) {
      ex.cleanStreak = 0;
      ex.curBatch = std::min(cfg_.batchSize, ex.curBatch * 2);
      ex.batchGrows.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::uint64_t ServingTier::queueDepth() const {
  std::uint64_t d = 0;
  for (const auto& ex : execs_) {
    const std::int64_t v = ex->depth.load(std::memory_order_relaxed);
    if (v > 0) d += static_cast<std::uint64_t>(v);
  }
  return d;
}

ServingTierStats ServingTier::stats() const {
  ServingTierStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  for (const auto& ex : execs_) {
    s.completed += ex->completed.load(std::memory_order_relaxed);
    s.batchTxs += ex->batchTxs.load(std::memory_order_relaxed);
    s.batchedOps += ex->batchedOps.load(std::memory_order_relaxed);
    s.perOpTxs += ex->perOpTxs.load(std::memory_order_relaxed);
    s.conflictFallbacks +=
        ex->conflictFallbacks.load(std::memory_order_relaxed);
    s.batchShrinks += ex->batchShrinks.load(std::memory_order_relaxed);
    s.batchGrows += ex->batchGrows.load(std::memory_order_relaxed);
    const std::int64_t d = ex->depth.load(std::memory_order_relaxed);
    if (d > 0) s.queueDepth += static_cast<std::uint64_t>(d);
    s.maxQueueDepth = std::max(
        s.maxQueueDepth, ex->maxDepth.load(std::memory_order_relaxed));
    s.latencyReadNs += ex->latencyReadNs.snapshot();
    s.latencyUpdateNs += ex->latencyUpdateNs.snapshot();
    s.batchNs += ex->batchNs.snapshot();
    s.batchFill += ex->batchFill.snapshot();
  }
  return s;
}

obs::MetricsRegistry::Registration ServingTier::registerMetrics(
    obs::MetricsRegistry& reg, std::string prefix) {
  return reg.add(std::move(prefix), [this](obs::MetricSink& out) {
    const ServingTierStats s = stats();
    out.counter("submitted", s.submitted);
    out.counter("rejected", s.rejected);
    out.counter("completed", s.completed);
    out.counter("batch_txs", s.batchTxs);
    out.counter("batched_ops", s.batchedOps);
    out.counter("per_op_txs", s.perOpTxs);
    out.counter("conflict_fallbacks", s.conflictFallbacks);
    out.counter("batch_shrinks", s.batchShrinks);
    out.counter("batch_grows", s.batchGrows);
    out.gauge("queue_depth", static_cast<double>(s.queueDepth));
    out.counter("max_queue_depth", s.maxQueueDepth);
    out.gauge("executors", static_cast<double>(execs_.size()));
    out.histogram("latency_read_ns", s.latencyReadNs);
    out.histogram("latency_update_ns", s.latencyUpdateNs);
    out.histogram("batch_ns", s.batchNs);
    out.histogram("batch_fill", s.batchFill);
  });
}

}  // namespace sftree::serve
