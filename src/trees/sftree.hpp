// The speculation-friendly binary search tree (paper §3).
//
// Abstract transactions (insert / delete / contains) only touch the
// abstraction: insertion links a leaf or clears a `deleted` flag; deletion
// *logically* deletes by setting the flag; contains reads it. All
// restructuring — local rotations, physical removal of logically deleted
// nodes, balance propagation and garbage collection — happens in small
// node-local transactions executed by one background maintenance thread
// (§3.1, §3.2, §3.4).
//
// Two operation variants are provided:
//  * Portable (Algorithm 1): every shared access is a transactional read or
//    write; works on any TM that implements the standard interface.
//  * Optimized (Algorithm 2): traversals use unit loads (`uread`) and nodes
//    carry a `removed` flag (false / true / true-by-left-rotation); rotation
//    replaces the rotated node with a fresh copy so that preempted
//    traversals keep a path to their target.
//
// The same class also serves as the paper's *no-restructuring* baseline
// (NRtree): construct it with maintenance disabled.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "gc/limbo_list.hpp"
#include "gc/thread_registry.hpp"
#include "mem/arena.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "stm/stm.hpp"
#include "trees/key.hpp"
#include "trees/violation_queue.hpp"

namespace sftree::trees {

// Physical-removal state of a node (Algorithm 2). A removed node is no
// longer reachable from the root but remains traversable: its child pointers
// lead back into the tree. RemovedByLeftRot tells a find() that stopped on a
// node with its own key that the replacement node is in the *right* subtree.
enum class RemState : std::uint8_t {
  NotRemoved = 0,
  Removed = 1,
  RemovedByLeftRot = 2,
};

struct SFNode {
  const Key key;
  stm::TxField<Value> value;
  stm::TxField<SFNode*> left;
  stm::TxField<SFNode*> right;
  stm::TxField<bool> deleted;     // logical deletion flag (paper `del`)
  stm::TxField<RemState> removed; // physical removal flag (paper `rem`)

  // Balance estimates (paper: left-h / right-h / local-h). Read and written
  // exclusively by the single maintenance thread — deliberately plain.
  int leftH = 0;
  int rightH = 0;
  int localH = 1;

  // Decayed access-heat estimate driving the splay heuristic
  // (docs/splaying.md). Same single-structural-mutator discipline as the
  // balance estimates: only the maintenance pass reads or writes these.
  // `heat` is a saturating tick count; `heatEpoch` stamps the decay epoch it
  // was last normalized to (heat halves once per elapsed epoch).
  std::uint32_t heat = 0;
  std::uint32_t heatEpoch = 0;

  SFNode(Key k, Value v) : key(k), value(v) {}
};

enum class OpsVariant : std::uint8_t {
  Portable,   // Algorithm 1
  Optimized,  // Algorithm 2
};

// Access-frequency-driven restructuring (semantic splaying). Off = the
// maintenance pass only rebalances and removes, exactly as before.
// Conservative promotes only strongly dominant hot keys with a small
// per-pass rotation budget; Aggressive samples more, promotes on a lower
// dominance margin, and spends a larger budget. See docs/splaying.md.
enum class SplayPolicy : std::uint8_t {
  Off = 0,
  Conservative = 1,
  Aggressive = 2,
};

// Tuning knobs behind a SplayPolicy; SFTreeConfig::splayParams() maps the
// policy to these defaults, and tests override them directly.
struct SplayParams {
  // Read-path sampling: a thread publishes one access tick per 2^shift
  // lookup hits (0 = every hit; tests use 0 for determinism).
  std::uint32_t sampleShift = 6;
  // Heat floor: below this decayed heat a node is never promoted and never
  // shielded from rebalancing (the hysteresis that keeps uniform workloads
  // churn-free — uniform traffic spreads ticks too thin to reach the floor).
  std::uint32_t minHeat = 8;
  // Dominance margin: promote only when heat(node) * den > heat(parent) *
  // num, i.e. the node is num/den hotter than what it would demote.
  std::uint32_t promoteNum = 2;
  std::uint32_t promoteDen = 1;
  // Never promote into the top `minDepth` levels below the sentinel: the
  // near-root region is the whole tree's traffic funnel, and rotating it
  // invalidates every concurrent traversal for marginal depth gain.
  int minDepth = 2;
  // Hot-protection slack: a hot node is exempt from demoting rotations
  // while its AVL imbalance is within 1 + slack (beyond that, balance
  // wins). A freshly promoted node carries the demoted root-path on one
  // side, so its transient imbalance is on the order of its old depth; the
  // slack must cover that window while ordinary rebalancing compacts the
  // (cold) chain underneath it — too-tight slack makes every sweep undo
  // the promotion. Heat decay, not this cap, is the steady-state exit.
  int slack = 8;
  // Per-pass ceiling on splay rotations, keeping maintenance pass latency
  // (MaintenanceStats::passNs) bounded under hot-set migration.
  std::uint32_t rotationBudget = 64;
  // Heat halves once per this many nanoseconds, so yesterday's hot set
  // cannot pin today's tree shape.
  std::uint64_t decayHalfLifeNs = 200'000'000;  // 200 ms
};

struct SFTreeConfig {
  OpsVariant ops = OpsVariant::Optimized;
  // STM clock domain the tree's transactions run against; null selects the
  // process default. Give independent trees independent domains to take
  // their commits off a shared version clock; trees one transaction
  // composes (a sharded map's shards) must share one domain.
  stm::Domain* domain = nullptr;
  // Transaction kind used by the abstract operations (Normal, or Elastic to
  // run on the E-STM-equivalent mode). With the Portable ops variant,
  // Elastic applies to read-only operations only: Algorithm 1's updates
  // rely on full read-set validation to detect a physically removed
  // insertion point, which elastic cuts would skip. Algorithm 2's
  // transactional `removed`/parent-link reads make its updates safe under
  // elastic cuts, so the Optimized variant runs every operation elastic.
  stm::TxKind txKind = stm::TxKind::Normal;
  // Background restructuring. Turning both off yields the paper's
  // no-restructuring baseline (NRtree): no rotations and no physical
  // removal ("the no-restructuring tree does not physically remove nodes").
  bool rotations = true;
  bool removals = true;
  // Spawn the dedicated background maintenance thread. Set to false either
  // for the no-restructuring baseline or when the tree is *externally
  // maintained*: an owner (e.g. shard::MaintenanceScheduler) drives
  // runMaintenancePass() itself and multiplexes many trees onto a small
  // worker pool.
  bool startMaintenance = true;
  // Targeted maintenance: update transactions publish the keys they
  // unbalance or logically delete into the tree's violation queue at commit
  // time, and a maintenance pass drains the queue and repairs only the
  // affected root-paths instead of sweeping the whole tree. Off = every
  // pass is a full depth-first sweep (the paper's original discovery mode).
  bool targetedMaintenance = true;
  // With targeted maintenance, every Nth pass additionally runs a full
  // depth-first sweep as a safety net for missed or stale queue entries
  // (drain races, deleted two-child nodes that only become removable
  // later). 0 disables the periodic fallback entirely (an overflowing
  // queue still forces one); quiesceNow() always finishes with clean
  // sweeps regardless.
  int fullSweepPeriod = 64;
  // Pause between two depth-first maintenance traversals when the previous
  // one found no work, to avoid burning a core on an idle tree.
  std::chrono::microseconds idlePause{100};
  // Pause after *every* traversal. The paper's rotator runs continuously on
  // a dedicated core; on machines with few cores a small duty-cycle
  // throttle keeps the rotator from starving the application threads
  // (used by the vacation tables, which run four trees at once).
  std::chrono::microseconds interPassPause{0};
  // Access-frequency splaying (docs/splaying.md). Requires rotations and
  // targeted maintenance: the access ticks ride the violation queue and the
  // promotions ride the maintenance rotation machinery. Ignored (treated as
  // Off) when either is disabled.
  SplayPolicy splay = SplayPolicy::Off;
  // Explicit knob override for tests/benches; unset maps the policy to its
  // built-in defaults (see SFTreeConfig::splayParams).
  std::optional<SplayParams> splayParamsOverride;

  SplayParams splayParams() const {
    if (splayParamsOverride) return *splayParamsOverride;
    SplayParams p;  // Conservative defaults
    if (splay == SplayPolicy::Aggressive) {
      // Aggressive turns up the *actuation* knobs only. Sampling stays at
      // the Conservative 1-in-64: the per-publish cost (commit hook + queue
      // CAS) is what the <= 2% read budget pays for, and the heat estimate
      // is ratio-scaled by the dominance margin, so denser ticks buy
      // nothing but read-path overhead (1-in-16 measured ~6%).
      p.minHeat = 4;
      p.promoteNum = 5;
      p.promoteDen = 4;
      p.minDepth = 1;
      p.slack = 32;
      p.rotationBudget = 256;
      p.decayHalfLifeNs = 500'000'000;
    }
    return p;
  }
};

struct MaintenanceStats {
  std::uint64_t traversals = 0;   // maintenance passes (targeted or sweep)
  std::uint64_t fullSweeps = 0;   // passes that included a full DFS sweep
  std::uint64_t rotations = 0;
  std::uint64_t removals = 0;
  std::uint64_t failedStructuralOps = 0;
  std::uint64_t nodesFreed = 0;
  std::uint64_t nodesRetired = 0;
  // Nodes examined by maintenance (every DFS visit + every root-path step):
  // the "maintenance work" numerator — divide by committed updates to get
  // the cost the targeted mode is built to shrink.
  std::uint64_t nodesVisited = 0;
  // Root-path steps a targeted drain avoided re-walking because consecutive
  // (key-sorted) entries shared a recorded prefix — visits that would have
  // counted into nodesVisited otherwise.
  std::uint64_t sharedPrefixSkips = 0;
  // Periodic fallback sweeps deferred because the drain carried no
  // structural violations (pure kAccess splay traffic); capped at 4x
  // fullSweepPeriod, after which the sweep runs regardless.
  std::uint64_t sweepsDeferred = 0;
  // --- splay heuristic (docs/splaying.md; all zero when SplayPolicy::Off) --
  std::uint64_t accessEntriesDrained = 0;  // kAccess queue entries consumed
  std::uint64_t accessTicksConsumed = 0;   // total sampled-tick weight folded
                                           // into node heat
  std::uint64_t splaySteps = 0;            // promotion rotations performed
  std::uint64_t splayZigZigs = 0;          // the subset done as zig-zig pairs
  std::uint64_t splayBudgetStops = 0;      // passes that hit rotationBudget
  std::uint64_t rebalanceSkippedHot = 0;   // demoting rotations skipped by
                                           // hot-protection slack
  // Depth (root-path length) at which drained access entries found their
  // node: the hot-set depth gauge — splaying should drag its mass left.
  obs::LogHistogram accessDepth;
  // Drain-pass latency (ns per maintainOnce pass, targeted or sweep).
  obs::LogHistogram passNs;
  // Violation-queue view (see ViolationQueueStats for field meanings).
  ViolationQueueStats queue;
};

class SFTree {
 public:
  explicit SFTree(SFTreeConfig cfg = {});
  ~SFTree();

  SFTree(const SFTree&) = delete;
  SFTree& operator=(const SFTree&) = delete;

  // --- abstract operations (thread-safe, transactional) --------------------
  // Each runs in its own transaction, or joins the caller's transaction when
  // invoked inside stm::atomically (flat nesting), which is what makes
  // composed operations such as move() atomic.
  bool insert(Key k, Value v);
  bool erase(Key k);
  bool contains(Key k);
  std::optional<Value> get(Key k);
  // Composed operation from the paper's reusability experiment (§5.4):
  // atomically relocate the value at `from` to key `to`.
  bool move(Key from, Key to);

  // Transaction-composable variants.
  bool insertTx(stm::Tx& tx, Key k, Value v);
  bool eraseTx(stm::Tx& tx, Key k);
  bool containsTx(stm::Tx& tx, Key k);
  std::optional<Value> getTx(stm::Tx& tx, Key k);
  // Snapshot count of present keys in [lo, hi]; composes with other
  // operations (consistent at commit). Reads the whole matching region
  // transactionally — expensive by design, but *possible*, unlike on trees
  // that bypass TM bookkeeping (paper §6).
  std::size_t countRangeTx(stm::Tx& tx, Key lo, Key hi);
  std::size_t countRange(Key lo, Key hi);

  // --- bulk relocation (shard migration) ------------------------------------
  // One extracted (key, value) pair of a batched range move.
  struct ExtractedKV {
    Key key;
    Value value;
  };
  // Migration source half of a batched range move: one in-order
  // transactional walk from `lo` upward that collects and logically deletes
  // the present keys `pred` accepts — a single amortized descent instead of
  // one find() per key. The walk stops after `maxN` extractions (or an
  // internal examine budget, so a pred that rejects a long stretch cannot
  // grow one transaction's read set without bound). `out` is cleared first:
  // the enclosing transaction may retry, and each attempt must rebuild it.
  // Returns true when the walk exhausted the key space; false when it
  // stopped early, with `nextLo` set to the first key not yet examined
  // (resume cursor). Must run under TxKind::Normal (elastic window cuts
  // could evict the walk's position reads; there is no pinning here).
  bool extractRangeTx(stm::Tx& tx, Key lo, std::size_t maxN,
                      const std::function<bool(Key)>& pred,
                      std::vector<ExtractedKV>& out, Key& nextLo);
  // Migration destination half: inserts every pair inside the enclosing
  // transaction — the per-key link-in is unavoidable, but one transaction
  // amortizes over the whole batch. Returns the
  // number actually inserted; a key already present is skipped, which the
  // caller should treat as an invariant violation (a migrating key lives in
  // exactly one committed shard).
  std::size_t adoptRangeTx(stm::Tx& tx, const ExtractedKV* kvs,
                           std::size_t n);
  // Read-only sibling of extractRangeTx: the same in-order walk, budgets
  // and resume cursor, but it only *collects* the present pred-matching
  // pairs — no logical deletes, no violation publishes, no size-estimate
  // settlement. Safe under TxKind::ReadOnly (every read is validated in
  // place; a stale read restarts the enclosing operation body), which is
  // what lets a checkpoint stream a tree chunk-by-chunk without ever
  // blocking or aborting writers. Must not run Elastic (window cuts could
  // evict the walk's position reads; there is no pinning here).
  bool scanRangeTx(stm::Tx& tx, Key lo, std::size_t maxN,
                   const std::function<bool(Key)>& pred,
                   std::vector<ExtractedKV>& out, Key& nextLo);
  // Exclusive absence check: returns false when k is present; otherwise
  // *write-locks* k's position (a value-preserving write to the null child
  // or the deleted flag, pinned like an update's position reads) and
  // returns true. Unlike containsTx the conclusion survives an elastic
  // transaction's window cuts (pins + the write fold the window), and a
  // concurrent insert of k collides write-write at commit instead of
  // serializing after us. ShardedMap's migration-window insert path uses
  // this as its safe-under-any-TxKind "prev lacks the key" check. (Note:
  // position locks alone cannot order routing-table transitions — an
  // unrelated insert can relocate k's insertion point past the reserved
  // position; cross-table ordering comes from the map's transactional
  // table read.)
  bool reserveAbsentTx(stm::Tx& tx, Key k);

  // --- maintenance control --------------------------------------------------
  void startMaintenance();
  void stopMaintenance();
  bool maintenanceRunning() const { return maintenanceThread_.joinable(); }
  // One full depth-first maintenance pass (propagation + rotations +
  // physical removals + GC epoch) on the calling thread; returns true when
  // the pass performed at least one structural change. This is the hook an
  // external scheduler drives; at most one thread may run it at a time and
  // it must not race the dedicated maintenance thread. `cancel` (optional)
  // aborts the traversal early when set to true.
  bool runMaintenancePass(const std::atomic<bool>* cancel = nullptr);
  // Runs maintenance traversals on the calling thread until a full pass
  // performs no structural change (tests; maintenance thread must be
  // stopped). Returns the number of passes.
  int quiesceNow(int maxPasses = 1000);

  MaintenanceStats maintenanceStats() const;

  // Registers this tree's snapshot metrics (maintenance counters incl. the
  // drain-pass histogram, queue occupancy, size estimate, arena footprint)
  // under "<prefix>." in `reg`. The tree must outlive the registration.
  [[nodiscard]] obs::MetricsRegistry::Registration registerMetrics(
      obs::MetricsRegistry& reg, std::string prefix);

  // Entries currently waiting in the violation queue (racy snapshot). This
  // is the occupancy an external scheduler uses to steer workers toward the
  // hottest shards.
  std::uint64_t violationQueueDepth() const { return violations_.depth(); }

  // Monotonic activity counter: bumped inside every update attempt that
  // reached its write (insertTx/eraseTx, so composed operations count too).
  // A hint, not an exact tally — aborted-and-retried transactions tick more
  // than once, which is fine for its purpose: an external scheduler
  // compares successive readings to tell hot trees from idle ones.
  std::uint64_t updateTicks() const {
    return updateTicks_.load(std::memory_order_relaxed);
  }

  // --- introspection (quiesced use: no concurrent operations) --------------
  std::size_t abstractSize();        // number of non-deleted reachable keys
  std::size_t structuralSize();      // number of reachable nodes
  int height();                      // height of the reachable tree
  std::vector<Key> keysInOrder();    // abstraction contents, sorted
  std::size_t limboPending() const { return limbo_.pending(); }

  // Committed-size estimate maintained outside transactions; exact once all
  // operations have returned.
  std::int64_t sizeEstimate() const {
    return sizeEstimate_.load(std::memory_order_relaxed);
  }
  // Estimate adjustment hook for composed multi-tree operations (e.g.
  // ShardedMap's migration-window single-key paths) that go through the
  // Tx-composable entry points and so bypass the insert/erase wrappers'
  // own bookkeeping.
  void bumpSizeEstimate(std::int64_t d) {
    sizeEstimate_.fetch_add(d, std::memory_order_relaxed);
  }
  // Read-only view of the node arena (shard-retirement diagnostics: the
  // slabs this tree's destruction frees wholesale).
  const mem::SlabArena& arenaForStats() const { return arena_.raw(); }

  const SFTreeConfig& config() const { return cfg_; }
  // The STM clock domain this tree runs on (the configured one, or the
  // process default).
  stm::Domain& domain() const { return domain_; }
  // Transaction kind for update operations (elastic only when safe; see
  // SFTreeConfig::txKind). Public so composed multi-tree operations (e.g.
  // ShardedMap::move) run under the same safety rule as the tree's own.
  stm::TxKind updateTxKind() const;
  // Transaction kind for read-only operations (contains/get/countRange):
  // the configured elastic mode, or zero-logging ReadOnly otherwise. Public
  // for the same composed-operation reason as updateTxKind.
  stm::TxKind readTxKind() const;
  SFNode* rootForTest() { return root_; }
  gc::ThreadRegistry& registryForTest() { return registry_; }

 private:

  // --- find (both variants) -------------------------------------------------
  // Returns the node with key k, or the node whose null child is the unique
  // insertion point for k (paper: find "returns the correct location").
  // `pin` (update paths) records the position reads — the candidate's
  // removed flag, the pinned null child, the parent link — in the permanent
  // read set so an elastic transaction's window cuts cannot evict them
  // before the first write folds the window in (see Tx::readPinned).
  SFNode* findPortable(stm::Tx& tx, Key k) const;
  SFNode* findOptimized(stm::Tx& tx, Key k, bool pin) const;
  SFNode* find(stm::Tx& tx, Key k, bool pin = false) const;

  // --- structural transactions (maintenance thread) ------------------------
  // `changed` is true when the tree was modified; the returned pointer is
  // the node that left the tree (to retire after commit), if any.
  // `leftChild` selects which child of `parent` is the target node.
  struct StructuralResult {
    bool changed = false;
    SFNode* unlinked = nullptr;
  };
  StructuralResult rotateRight(stm::Tx& tx, SFNode* parent, bool leftChild);
  StructuralResult rotateLeft(stm::Tx& tx, SFNode* parent, bool leftChild);
  StructuralResult removePhysical(stm::Tx& tx, SFNode* parent,
                                  bool leftChild);

  // Attempt wrappers running their own transaction and handling retirement.
  bool tryRotateRight(SFNode* parent, bool leftChild);
  bool tryRotateLeft(SFNode* parent, bool leftChild);
  bool tryRemovePhysical(SFNode* parent, bool leftChild);

  // --- maintenance ----------------------------------------------------------
  void maintenanceLoop();
  // One maintenance pass body: optional targeted drain plus (when
  // `fullSweep`) a depth-first sweep, bracketed by one GC epoch. A
  // `sweepDeferrable` sweep (the periodic fallback) is skipped when the
  // drain carried only kAccess entries — splay traffic is not the kind of
  // missed work the safety-net sweep exists to recover — until the deferral
  // cap (4x fullSweepPeriod) forces it.
  bool maintainOnce(const std::atomic<bool>* cancel, bool fullSweep,
                    bool sweepDeferrable = false);
  // Depth-first sweep: propagates heights, triggers rotations/removals.
  void maintainSubtree(SFNode* parent, SFNode* node, bool leftChild,
                       bool& didWork, int depth,
                       const std::atomic<bool>* cancel);
  // Targeted path: drains the violation queue into drainBuf_, sorts the
  // entries by key (consecutive entries then share maximal root-path
  // prefixes, which processViolation reuses), and repairs each. Returns
  // true when structural work happened; sets `sawStructural` when any
  // drained entry was a structural kind (kInsert/kErase), the signal the
  // sweep-deferral backoff keys on.
  bool drainViolations(const std::atomic<bool>* cancel, bool& sawStructural);
  // Repairs one drained queue entry. The kind selects the repair: kInsert
  // rebalances the root-path (no removal probes — any removable node has
  // its own kErase entry), kErase probes the physical removal and skips the
  // bottom-up rebalance when nothing was unlinked (heights unchanged),
  // kAccess folds `ticks` into the node's heat and may splay it toward the
  // root (docs/splaying.md). With `reusePath`, the walk first follows the
  // path recorded in pathBuf_ by the previous entry as far as it matches
  // k's search path (valid only when that entry did no structural work —
  // concurrent mutators only link fresh leaves, so recorded interior nodes
  // stay on their root-paths; only this worker's own rotations/removals
  // invalidate them).
  void processViolation(Key k, ViolationKind kind, std::uint32_t ticks,
                        bool& didWork, bool reusePath);
  // If the node hanging off (parent, leftChild) is a removable logically
  // deleted node, unlink it and load its replacement into `node`. Returns
  // true on a successful removal.
  bool tryRemoveAt(SFNode* parent, SFNode*& node, bool leftChild,
                   bool& didWork);
  // Refreshes node's balance estimates from its children's stored estimates
  // and rotates when the AVL bound is violated (`node` may be retired by
  // the rotation; the caller re-reads the parent's link afterwards).
  // Returns true when the node's stored height changed or a rotation was
  // attempted — i.e. when the ancestors' estimates may now be stale. A
  // false return lets a root-path walk stop propagating early (the classic
  // AVL fixup termination).
  bool rebalanceAt(SFNode* parent, SFNode* node, bool leftChild,
                   bool& didWork);
  // Publishes a violation at key k when this update transaction commits.
  void captureViolation(stm::Tx& tx, Key k, ViolationKind kind);
  // Read-path side of the splay heuristic: publishes a sampled kAccess tick
  // at commit (1 per 2^sampleShift lookup hits per thread; no-op unless
  // splaying is enabled, so the read path pays one predictable branch).
  void captureAccess(stm::Tx& tx, Key k);
  // Node heat, normalized to the current decay epoch (maintenance worker
  // only, like the balance estimates).
  std::uint32_t decayedHeat(const SFNode* n) const;
  void bumpHeat(SFNode* n, std::uint32_t ticks);
  // Bounded promotion loop: rotates `node` (position (parent, leftChild),
  // ancestors in pathBuf_) toward the root while it dominates its parent's
  // heat, preferring zig-zig pairs on aligned links. Updates the position
  // arguments and pops the promoted levels off pathBuf_.
  void splayPromote(SFNode*& parent, SFNode*& node, bool& leftChild,
                    bool& didWork);
  void retireNode(SFNode* n);

  // In-order walker behind extractRangeTx and scanRangeTx (ExtractCtx::
  // mutate selects between them). Returns true to keep going, false once a
  // budget stopped the walk (c.nextLo set to the first unexamined key).
  struct ExtractCtx;
  bool extractWalk(stm::Tx& tx, SFNode* n, Key lo, ExtractCtx& c);

  static void deleteNode(void* p) { mem::NodeArena<SFNode>::destroy(p); }

  SFTreeConfig cfg_;
  stm::Domain& domain_;
  // Node storage. Declared before the limbo list so retired nodes can still
  // recycle into it during destruction; one arena per tree lets a retired
  // shard free its node memory wholesale.
  mem::NodeArena<SFNode> arena_;
  SFNode* root_;  // sentinel, key == kInfiniteKey, never rotated/removed

  gc::ThreadRegistry registry_;
  gc::LimboList limbo_;  // touched only by the maintenance thread

  // Mutator -> maintenance violation channel. True when updates publish
  // into it (targeted mode with some restructuring enabled).
  ViolationQueue violations_;
  bool captureViolations_ = false;

  // Splay heuristic state (docs/splaying.md). splayEnabled_ folds the
  // policy with its prerequisites (rotations + targeted maintenance) so the
  // read path tests one bool. The epoch/budget fields follow the
  // maintenance-worker-only discipline of passVisited_.
  bool splayEnabled_ = false;
  SplayParams splay_{};
  std::uint32_t accessSampleMask_ = 0;
  std::uint64_t createdTick_ = 0;
  std::uint32_t heatEpochNow_ = 0;
  std::uint32_t splayBudgetLeft_ = 0;
  bool splayBudgetHit_ = false;

  std::thread maintenanceThread_;
  std::atomic<bool> stopFlag_{false};
  MaintenanceStats maintStats_;
  mutable std::mutex maintStatsMu_;
  // Passes since the last full sweep, and nodes visited by the current
  // pass (maintenance thread / single external worker only, like the limbo
  // list; passVisited_ folds into maintStats_ under the mutex per pass).
  int passesSinceSweep_ = 0;
  std::uint64_t passVisited_ = 0;
  // Scratch for processViolation's root-path walk (consumer-only).
  struct PathStep {
    SFNode* parent;
    SFNode* node;
    bool leftChild;
  };
  std::vector<PathStep> pathBuf_;
  // Drain batch scratch (consumer-only): entries collected per pass, sorted
  // by key for the shared-prefix walk reuse. passPrefixSkips_ accumulates
  // the avoided steps and folds into maintStats_ like passVisited_.
  struct DrainEntry {
    Key key;
    std::uint32_t weight;
    ViolationKind kind;
  };
  std::vector<DrainEntry> drainBuf_;
  std::uint64_t passPrefixSkips_ = 0;

  std::atomic<std::int64_t> sizeEstimate_{0};
  std::atomic<std::uint64_t> updateTicks_{0};
};

}  // namespace sftree::trees
