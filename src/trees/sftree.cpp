#include "trees/sftree.hpp"

#include "gc/tx_guard.hpp"
#include "obs/clock.hpp"
#include "obs/stats_bridge.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stack>

namespace sftree::trees {

namespace {

// Defensive liveness valve: the optimized find can in principle chase
// escape pointers through a churning region for a long time; force a retry
// (fresh snapshot, backoff) if a traversal runs away.
constexpr int kFindStepLimit = 1'000'000;

// Maintenance recursion bound (tree height); transiently unbalanced trees
// are at worst linear in size, which fits comfortably.
constexpr int kMaintenanceDepthLimit = 1 << 20;

}  // namespace

SFTree::SFTree(SFTreeConfig cfg)
    : cfg_(cfg),
      domain_(cfg.domain != nullptr ? *cfg.domain : stm::defaultDomain()) {
  root_ = arena_.create(kInfiniteKey, 0);
  // Updates publish violations only when someone will ever drain them: the
  // no-restructuring baseline must not accumulate queue entries.
  captureViolations_ =
      cfg_.targetedMaintenance && (cfg_.rotations || cfg_.removals);
  // Splaying needs both the queue (access ticks ride it) and rotations (the
  // promotions are rotations); anything less degrades to Off.
  splayEnabled_ = cfg_.splay != SplayPolicy::Off && cfg_.rotations &&
                  captureViolations_;
  splay_ = cfg_.splayParams();
  if (splay_.decayHalfLifeNs == 0) splay_.decayHalfLifeNs = 1;
  if (splay_.promoteDen == 0) splay_.promoteDen = 1;
  accessSampleMask_ = (std::uint32_t{1} << splay_.sampleShift) - 1;
  createdTick_ = obs::tick();
  pathBuf_.reserve(64);
  if (cfg_.startMaintenance && (cfg_.rotations || cfg_.removals)) {
    startMaintenance();
  }
}

SFTree::~SFTree() {
  stopMaintenance();
  // Free the reachable tree. Retired (unlinked) nodes are owned by the
  // limbo list, whose destructor frees them; reachable nodes form a proper
  // binary tree (only NotRemoved nodes are reachable from the root).
  std::stack<SFNode*> stack;
  stack.push(root_);
  while (!stack.empty()) {
    SFNode* n = stack.top();
    stack.pop();
    if (SFNode* l = n->left.loadRelaxed()) stack.push(l);
    if (SFNode* r = n->right.loadRelaxed()) stack.push(r);
    deleteNode(n);
  }
}

// --------------------------------------------------------------------------
// find — Algorithm 1 (portable): plain traversal, every child pointer is a
// transactional read, so any concurrent restructuring along the path is
// caught by validation.
// --------------------------------------------------------------------------
SFNode* SFTree::findPortable(stm::Tx& tx, Key k) const {
  SFNode* next = root_;
  SFNode* curr;
  for (;;) {
    curr = next;
    if (curr->key == k) break;
    next = (k < curr->key) ? curr->left.read(tx) : curr->right.read(tx);
    if (next == nullptr) break;
  }
  return curr;
}

// --------------------------------------------------------------------------
// find — Algorithm 2 (optimized): the traversal uses unit loads; only the
// final node's `removed` flag, its (null) child pointer, and the parent's
// link to it are read transactionally, pinning exactly the position the
// caller depends on. Traversals may walk across removed nodes: removal and
// copy-on-rotate leave escape pointers that always lead back into the tree
// (Lemmas 11-16).
// --------------------------------------------------------------------------
SFNode* SFTree::findOptimized(stm::Tx& tx, Key k, bool pin) const {
  SFNode* parent = root_;
  SFNode* curr = root_;
  SFNode* next = root_;
  int steps = 0;
  // Pins recorded while examining a position that is later abandoned are
  // demoted back to cut reads (see Tx::dropPinsAfter): only the returned
  // position's pins must survive to commit, and keeping abandoned ones
  // would make a search through a churning region quadratically expensive.
  const std::size_t pinMark = pin ? tx.pinMark() : 0;
  for (;;) {
    // Inner descent.
    for (;;) {
      if (++steps > kFindStepLimit) tx.restart();
      if (pin) tx.dropPinsAfter(pinMark);
      parent = curr;
      curr = next;
      if (curr->key == k) {
        const RemState rem =
            pin ? curr->removed.readPinned(tx) : curr->removed.read(tx);
        if (rem == RemState::NotRemoved) break;  // candidate found
        // The node with our key was physically removed. If it was removed
        // by a left rotation its replacement is in the right subtree
        // (paper line 39); in every other case the left pointer leads to a
        // node whose range still covers k (Lemma 16).
        next = (rem == RemState::RemovedByLeftRot) ? curr->right.uread(tx)
                                                   : curr->left.uread(tx);
        if (next == nullptr) {
          next = (rem == RemState::RemovedByLeftRot) ? curr->left.uread(tx)
                                                     : curr->right.uread(tx);
        }
        if (next == nullptr) tx.restart();  // cannot happen on a valid tree
        continue;
      }
      const bool goLeft = k < curr->key;
      next = goLeft ? curr->left.uread(tx) : curr->right.uread(tx);
      if (next != nullptr) continue;
      // Reached a null child. Pin it if the node is still in the tree.
      const RemState rem =
          pin ? curr->removed.readPinned(tx) : curr->removed.read(tx);
      if (rem == RemState::NotRemoved) {
        next = goLeft ? (pin ? curr->left.readPinned(tx) : curr->left.read(tx))
                      : (pin ? curr->right.readPinned(tx)
                             : curr->right.read(tx));
        if (next == nullptr) break;  // curr is the insertion point for k
        continue;                    // a child appeared meanwhile
      }
      // Removed node. The null child was read before the removal check,
      // and curr may have gained a child on k's side before it was
      // unlinked (a rotation at its parent moves curr up and hangs the
      // parent's copy there; a rotation at curr then removes it). A
      // removed node's links no longer change, so re-read that side first;
      // only if it is still null escape through the other child, whose
      // range is at least as large as ours was (Lemma 16). Escaping on the
      // stale null would lead to a subtree whose range excludes k.
      next = goLeft ? curr->left.uread(tx) : curr->right.uread(tx);
      if (next == nullptr) {
        next = goLeft ? curr->right.uread(tx) : curr->left.uread(tx);
      }
      if (next == nullptr) tx.restart();  // cannot happen on a valid tree
    }
    // Validate the parent's link to the candidate with a transactional
    // read: this both confirms the position and makes any concurrent
    // rotation/removal at this node a detectable conflict.
    if (curr == parent) return curr;  // candidate is the root sentinel
    SFNode* tmp;
    if (curr->key < parent->key) {
      tmp = pin ? parent->left.readPinned(tx) : parent->left.read(tx);
    } else {
      tmp = pin ? parent->right.readPinned(tx) : parent->right.read(tx);
    }
    if (tmp == curr) return curr;
    // The link changed: curr or the parent was unlinked meanwhile.
    // Re-examining curr could repeat the same failed check until the step
    // limit (a physically removed parent's escape links never point back
    // at curr), so continue from the parent along the link just read,
    // whose range still covers k. A null link leaves nothing to follow:
    // start over from the root.
    if (tmp != nullptr) {
      next = tmp;
      curr = parent;
    } else {
      next = curr = root_;
    }
  }
}

SFNode* SFTree::find(stm::Tx& tx, Key k, bool pin) const {
  return cfg_.ops == OpsVariant::Portable ? findPortable(tx, k)
                                          : findOptimized(tx, k, pin);
}

// --------------------------------------------------------------------------
// Abstract operations
// --------------------------------------------------------------------------
bool SFTree::containsTx(stm::Tx& tx, Key k) {
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  SFNode* curr = find(tx, k);
  if (curr->key != k) return false;
  if (curr->deleted.read(tx)) return false;
  // Lookup hit: feed the splay heuristic (sampled; no-op when disabled).
  captureAccess(tx, k);
  return true;
}

std::optional<Value> SFTree::getTx(stm::Tx& tx, Key k) {
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  SFNode* curr = find(tx, k);
  if (curr->key != k) return std::nullopt;
  if (curr->deleted.read(tx)) return std::nullopt;
  captureAccess(tx, k);
  return curr->value.read(tx);
}

bool SFTree::insertTx(stm::Tx& tx, Key k, Value v) {
  assert(k < kInfiniteKey && "user keys must be < +inf sentinel");
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  SFNode* curr = find(tx, k, /*pin=*/true);
  if (curr->key == k) {
    if (curr->deleted.readPinned(tx)) {
      // Logically deleted: revive the node (abstraction-only update). The
      // position reads this revive depends on — find()'s pin of
      // curr->removed, and the deleted flag itself — are recorded with
      // pinned reads, so even under elastic mode no window cut can drop
      // them before the first write folds the window into the read set: a
      // concurrent rotation-copy or physical removal of curr stays a
      // detectable conflict all the way to commit (otherwise the revive
      // could commit onto an unlinked node and be lost).
      if (cfg_.ops == OpsVariant::Optimized &&
          curr->removed.readPinned(tx) != RemState::NotRemoved) {
        tx.restart();
      }
      curr->deleted.write(tx, false);
      curr->value.write(tx, v);
      updateTicks_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  // find() pinned the null child pointer, so a concurrent insert of the
  // same key is a write-write/read-write conflict here.
  SFNode* nn = arena_.create(k, v);
  tx.onAbortDelete(nn, &SFTree::deleteNode);
  if (k < curr->key) {
    curr->left.write(tx, nn);
  } else {
    curr->right.write(tx, nn);
  }
  updateTicks_.fetch_add(1, std::memory_order_relaxed);
  // The fresh leaf may unbalance its ancestors: hand the key to the
  // maintenance side once (and only once) this transaction commits.
  captureViolation(tx, k, ViolationKind::kInsert);
  return true;
}

bool SFTree::eraseTx(stm::Tx& tx, Key k) {
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  SFNode* curr = find(tx, k, /*pin=*/true);
  if (curr->key != k) return false;
  if (curr->deleted.readPinned(tx)) return false;
  // Same elastic-cut subtlety as the revive path in insertTx: the removal
  // flag is pinned into the permanent read set, so it is validated at
  // commit no matter how many traversal reads the elastic window cuts
  // in between.
  if (cfg_.ops == OpsVariant::Optimized &&
      curr->removed.readPinned(tx) != RemState::NotRemoved) {
    tx.restart();
  }
  // Logical deletion only: the structure is untouched (paper: "this
  // operation never modifies the tree structure"); the maintenance thread
  // unlinks the node later.
  curr->deleted.write(tx, true);
  updateTicks_.fetch_add(1, std::memory_order_relaxed);
  // A logically deleted node is a physical-removal candidate: publish it
  // to the maintenance side at commit.
  captureViolation(tx, k, ViolationKind::kErase);
  return true;
}

namespace {
std::size_t countRangeRec(stm::Tx& tx, SFNode* n, Key lo, Key hi) {
  if (n == nullptr) return 0;
  std::size_t count = 0;
  if (lo < n->key) {
    count += countRangeRec(tx, n->left.read(tx), lo, hi);
  }
  if (lo <= n->key && n->key <= hi && !n->deleted.read(tx)) ++count;
  if (hi > n->key) {
    count += countRangeRec(tx, n->right.read(tx), lo, hi);
  }
  return count;
}
}  // namespace

std::size_t SFTree::countRangeTx(stm::Tx& tx, Key lo, Key hi) {
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  // The sentinel's key is +inf, so the user range never includes it.
  return countRangeRec(tx, root_->left.read(tx), lo, hi);
}

std::size_t SFTree::countRange(Key lo, Key hi) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  // ReadOnly unconditionally — never elastic: countRange promises a
  // consistent snapshot of the whole range, and elastic cuts would let a
  // concurrent composed move be double-counted or missed. The RO mode's
  // per-read validation preserves full snapshot semantics.
  const auto r = stm::atomically(
      domain_, stm::TxKind::ReadOnly,
      [&](stm::Tx& tx) { return countRangeTx(tx, lo, hi); });
  st.endOp();
  return r;
}

// --------------------------------------------------------------------------
// Bulk relocation (shard migration): extract = one in-order walk that
// logically deletes and collects matching keys; adopt = batch insert. Both
// compose into the caller's transaction, so a batch moves
// atomically: no reader can see a migrating key in both trees or in
// neither.
// --------------------------------------------------------------------------
struct SFTree::ExtractCtx {
  std::size_t maxN;
  std::size_t examineLimit;
  std::size_t examined = 0;
  const std::function<bool(Key)>* pred;
  std::vector<ExtractedKV>* out;
  Key nextLo = 0;
  // Extraction mode (migration): collected keys are logically deleted and
  // published to maintenance. Scan mode (checkpoint streaming) collects
  // only — the walk writes nothing, so it can run zero-logging ReadOnly.
  bool mutate = true;
};

bool SFTree::extractWalk(stm::Tx& tx, SFNode* n, Key lo, ExtractCtx& c) {
  if (n == nullptr) return true;
  if (lo < n->key) {
    if (!extractWalk(tx, n->left.read(tx), lo, c)) return false;
  }
  if (n->key >= lo) {
    // Budget check sits on the key boundary so the resume cursor is exact:
    // every present key in [lo, nextLo) has been examined, nothing past it.
    if (c.out->size() >= c.maxN || c.examined >= c.examineLimit) {
      c.nextLo = n->key;
      return false;
    }
    ++c.examined;
    if ((*c.pred)(n->key) && !n->deleted.read(tx)) {
      c.out->push_back(ExtractedKV{n->key, n->value.read(tx)});
      if (c.mutate) {
        n->deleted.write(tx, true);
        // The logically deleted node is a physical-removal candidate for
        // this tree's maintenance, exactly as after eraseTx.
        captureViolation(tx, n->key, ViolationKind::kErase);
      }
    }
  }
  return extractWalk(tx, n->right.read(tx), lo, c);
}

bool SFTree::extractRangeTx(stm::Tx& tx, Key lo, std::size_t maxN,
                            const std::function<bool(Key)>& pred,
                            std::vector<ExtractedKV>& out, Key& nextLo) {
  assert(tx.kind() != stm::TxKind::Elastic &&
         "extractRangeTx requires a Normal transaction (no pinning here)");
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  out.clear();  // the enclosing transaction may retry this attempt
  ExtractCtx c;
  c.maxN = maxN;
  // Bound the read set even when pred rejects a long stretch of keys: a
  // stopped-early walk just resumes from nextLo in the next batch.
  c.examineLimit = std::max<std::size_t>(4 * maxN, 256);
  c.pred = &pred;
  c.out = &out;
  const bool complete = extractWalk(tx, root_->left.read(tx), lo, c);
  if (!out.empty()) {
    const auto m = static_cast<std::int64_t>(out.size());
    tx.onCommit([this, m] {
      sizeEstimate_.fetch_sub(m, std::memory_order_relaxed);
    });
    updateTicks_.fetch_add(out.size(), std::memory_order_relaxed);
  }
  if (!complete) nextLo = c.nextLo;
  return complete;
}

bool SFTree::scanRangeTx(stm::Tx& tx, Key lo, std::size_t maxN,
                         const std::function<bool(Key)>& pred,
                         std::vector<ExtractedKV>& out, Key& nextLo) {
  assert(tx.kind() != stm::TxKind::Elastic &&
         "scanRangeTx requires Normal/ReadOnly (no pinning here)");
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  out.clear();  // the enclosing transaction may retry this attempt
  ExtractCtx c;
  c.maxN = maxN;
  c.examineLimit = std::max<std::size_t>(4 * maxN, 256);
  c.pred = &pred;
  c.out = &out;
  c.mutate = false;
  const bool complete = extractWalk(tx, root_->left.read(tx), lo, c);
  if (!complete) nextLo = c.nextLo;
  return complete;
}

bool SFTree::reserveAbsentTx(stm::Tx& tx, Key k) {
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  SFNode* curr = find(tx, k, /*pin=*/true);
  if (curr->key == k) {
    if (!curr->deleted.readPinned(tx)) return false;  // present
    // Same elastic-cut discipline as eraseTx/the revive path: the removal
    // flag is pinned so a concurrent rotation-copy stays a conflict.
    if (cfg_.ops == OpsVariant::Optimized &&
        curr->removed.readPinned(tx) != RemState::NotRemoved) {
      tx.restart();
    }
    // Value-preserving write: locks the revive point against a concurrent
    // insert flipping the flag back.
    curr->deleted.write(tx, true);
    return true;
  }
  // Absent: find() pinned the null child k would link into; re-write it
  // with its current (null) value so a concurrent insert of k collides
  // write-write instead of committing after us.
  if (k < curr->key) {
    curr->left.write(tx, curr->left.readPinned(tx));
  } else {
    curr->right.write(tx, curr->right.readPinned(tx));
  }
  return true;
}

std::size_t SFTree::adoptRangeTx(stm::Tx& tx, const ExtractedKV* kvs,
                                 std::size_t n) {
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  std::size_t inserted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (insertTx(tx, kvs[i].key, kvs[i].value)) ++inserted;
  }
  if (inserted != 0) {
    const auto m = static_cast<std::int64_t>(inserted);
    tx.onCommit([this, m] {
      sizeEstimate_.fetch_add(m, std::memory_order_relaxed);
    });
  }
  return inserted;
}

// Elastic cuts are only safe for Algorithm 2's updates (see SFTreeConfig).
// ReadOnly is never an update kind: it would promote on the first write of
// every attempt.
stm::TxKind SFTree::updateTxKind() const {
  if (cfg_.ops == OpsVariant::Optimized && cfg_.txKind == stm::TxKind::Elastic) {
    return stm::TxKind::Elastic;
  }
  return stm::TxKind::Normal;
}

// Read-only operations run elastic when configured (hand-over-hand reads),
// zero-logging ReadOnly otherwise — a write in the body (impossible today)
// would transparently promote, so the hint is always safe.
stm::TxKind SFTree::readTxKind() const {
  if (cfg_.txKind == stm::TxKind::Elastic) return stm::TxKind::Elastic;
  return stm::TxKind::ReadOnly;
}

bool SFTree::insert(Key k, Value v) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r = stm::atomically(
      domain_, updateTxKind(), [&](stm::Tx& tx) { return insertTx(tx, k, v); });
  st.endOp();
  if (r) sizeEstimate_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

bool SFTree::erase(Key k) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r = stm::atomically(
      domain_, updateTxKind(), [&](stm::Tx& tx) { return eraseTx(tx, k); });
  st.endOp();
  if (r) sizeEstimate_.fetch_sub(1, std::memory_order_relaxed);
  return r;
}

bool SFTree::contains(Key k) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r = stm::atomically(
      domain_, readTxKind(), [&](stm::Tx& tx) { return containsTx(tx, k); });
  st.endOp();
  return r;
}

std::optional<Value> SFTree::get(Key k) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const auto r = stm::atomically(domain_, readTxKind(),
                                 [&](stm::Tx& tx) { return getTx(tx, k); });
  st.endOp();
  return r;
}

bool SFTree::move(Key from, Key to) {
  // Reusability (paper §5.4): compose erase + insert from the public
  // interface into one atomic, deadlock-free operation via flat nesting.
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r = stm::atomically(domain_, updateTxKind(), [&](stm::Tx& tx) {
    if (containsTx(tx, to)) return false;
    const std::optional<Value> v = getTx(tx, from);
    if (!v) return false;
    if (!eraseTx(tx, from)) {
      // Under elastic reads the getTx(from) above may have been cut from
      // the validation window; a concurrent erase of `from` can land in
      // between, making this erase find the key already deleted. Going on
      // to insert `to` anyway would create a key out of thin air (+1); a
      // restart re-reads `from` and returns false cleanly.
      tx.restart();
    }
    if (!insertTx(tx, to, *v)) {
      // Same cut, other side: a concurrent insert of `to` can slip past
      // the earlier contains(to). Retrying (which discards the erase)
      // keeps the move atomic instead of losing the key.
      tx.restart();
    }
    return true;
  });
  st.endOp();
  return r;
}

// --------------------------------------------------------------------------
// Structural transactions (maintenance thread only)
// --------------------------------------------------------------------------
SFTree::StructuralResult SFTree::rotateRight(stm::Tx& tx, SFNode* parent,
                                             bool leftChild) {
  if (cfg_.ops == OpsVariant::Optimized &&
      parent->removed.read(tx) != RemState::NotRemoved) {
    return {};
  }
  SFNode* n = leftChild ? parent->left.read(tx) : parent->right.read(tx);
  if (n == nullptr) return {};
  SFNode* l = n->left.read(tx);
  if (l == nullptr) return {};
  SFNode* lr = l->right.read(tx);

  if (cfg_.ops == OpsVariant::Portable) {
    // Classical in-place rotation (Figure 2(b)) inside one transaction.
    n->left.write(tx, lr);
    l->right.write(tx, n);
    // update-balance-values(): advisory, maintenance-private (a stale value
    // left by an aborted attempt is refreshed by the next traversal).
    n->leftH = l->rightH;
    n->localH = std::max(n->leftH, n->rightH) + 1;
    l->rightH = n->localH;
    l->localH = std::max(l->leftH, l->rightH) + 1;
  } else {
    // Copy-on-rotate (Figure 2(c)): n is unlinked and replaced by a fresh
    // copy n' placed under l, so a traversal preempted at n still has a
    // path to the subtree that held its target.
    SFNode* r = n->right.read(tx);
    SFNode* nn = arena_.create(n->key, n->value.read(tx));
    tx.onAbortDelete(nn, &SFTree::deleteNode);
    nn->deleted.storeRelaxed(n->deleted.read(tx));
    nn->left.storeRelaxed(lr);
    nn->right.storeRelaxed(r);
    nn->leftH = l->rightH;
    nn->rightH = n->rightH;
    nn->localH = std::max(nn->leftH, nn->rightH) + 1;
    // The copy inherits the original's heat: demotion must not double as a
    // heat reset, or splay promotions would erase the very signal that
    // protects the node from churn.
    nn->heat = n->heat;
    nn->heatEpoch = n->heatEpoch;
    l->right.write(tx, nn);
    n->removed.write(tx, RemState::Removed);
    l->rightH = nn->localH;
    l->localH = std::max(l->leftH, l->rightH) + 1;
  }
  if (leftChild) {
    parent->left.write(tx, l);
  } else {
    parent->right.write(tx, l);
  }
  return {true, cfg_.ops == OpsVariant::Optimized ? n : nullptr};
}

SFTree::StructuralResult SFTree::rotateLeft(stm::Tx& tx, SFNode* parent,
                                            bool leftChild) {
  if (cfg_.ops == OpsVariant::Optimized &&
      parent->removed.read(tx) != RemState::NotRemoved) {
    return {};
  }
  SFNode* n = leftChild ? parent->left.read(tx) : parent->right.read(tx);
  if (n == nullptr) return {};
  SFNode* r = n->right.read(tx);
  if (r == nullptr) return {};
  SFNode* rl = r->left.read(tx);

  if (cfg_.ops == OpsVariant::Portable) {
    n->right.write(tx, rl);
    r->left.write(tx, n);
    n->rightH = r->leftH;
    n->localH = std::max(n->leftH, n->rightH) + 1;
    r->leftH = n->localH;
    r->localH = std::max(r->leftH, r->rightH) + 1;
  } else {
    SFNode* l = n->left.read(tx);
    SFNode* nn = arena_.create(n->key, n->value.read(tx));
    tx.onAbortDelete(nn, &SFTree::deleteNode);
    nn->deleted.storeRelaxed(n->deleted.read(tx));
    nn->left.storeRelaxed(l);
    nn->right.storeRelaxed(rl);
    nn->leftH = n->leftH;
    nn->rightH = r->leftH;
    nn->localH = std::max(nn->leftH, nn->rightH) + 1;
    nn->heat = n->heat;
    nn->heatEpoch = n->heatEpoch;
    r->left.write(tx, nn);
    // A node removed by a *left* rotation is replaced by a copy living in
    // its right subtree; find() must know to go right on a key match.
    n->removed.write(tx, RemState::RemovedByLeftRot);
    r->leftH = nn->localH;
    r->localH = std::max(r->leftH, r->rightH) + 1;
  }
  if (leftChild) {
    parent->left.write(tx, r);
  } else {
    parent->right.write(tx, r);
  }
  return {true, cfg_.ops == OpsVariant::Optimized ? n : nullptr};
}

SFTree::StructuralResult SFTree::removePhysical(stm::Tx& tx, SFNode* parent,
                                                bool leftChild) {
  if (cfg_.ops == OpsVariant::Optimized &&
      parent->removed.read(tx) != RemState::NotRemoved) {
    return {};
  }
  SFNode* n = leftChild ? parent->left.read(tx) : parent->right.read(tx);
  if (n == nullptr) return {};
  if (!n->deleted.read(tx)) return {};
  SFNode* l = n->left.read(tx);
  SFNode* r = n->right.read(tx);
  if (l != nullptr && r != nullptr) {
    // Only nodes with at most one child are physically removed (paper:
    // removing such nodes is enough to keep the tree from growing).
    return {};
  }
  SFNode* child = (l != nullptr) ? l : r;
  if (leftChild) {
    parent->left.write(tx, child);
  } else {
    parent->right.write(tx, child);
  }
  if (cfg_.ops == OpsVariant::Optimized) {
    // Escape pointers: a traversal preempted on n climbs back to the
    // parent, which still covers n's key range (Lemma 15).
    n->left.write(tx, parent);
    n->right.write(tx, parent);
    n->removed.write(tx, RemState::Removed);
  }
  return {true, n};
}

bool SFTree::tryRotateRight(SFNode* parent, bool leftChild) {
  const StructuralResult res = stm::atomically(
      domain_, [&](stm::Tx& tx) { return rotateRight(tx, parent, leftChild); });
  if (res.unlinked != nullptr) retireNode(res.unlinked);
  return res.changed;
}

bool SFTree::tryRotateLeft(SFNode* parent, bool leftChild) {
  const StructuralResult res = stm::atomically(
      domain_, [&](stm::Tx& tx) { return rotateLeft(tx, parent, leftChild); });
  if (res.unlinked != nullptr) retireNode(res.unlinked);
  return res.changed;
}

bool SFTree::tryRemovePhysical(SFNode* parent, bool leftChild) {
  const StructuralResult res = stm::atomically(
      domain_, [&](stm::Tx& tx) { return removePhysical(tx, parent, leftChild); });
  if (res.unlinked != nullptr) retireNode(res.unlinked);
  return res.changed;
}

void SFTree::retireNode(SFNode* n) {
  limbo_.retire(n, &SFTree::deleteNode);
  std::lock_guard<std::mutex> lk(maintStatsMu_);
  ++maintStats_.nodesRetired;
}

void SFTree::captureViolation(stm::Tx& tx, Key k, ViolationKind kind) {
  if (!captureViolations_) return;
  // Runs when the (outermost, for composed operations) transaction commits;
  // dropped on abort. The hook captures only the key — entries must not
  // dangle into nodes the maintenance side may retire.
  tx.onCommit([this, k, kind] { violations_.publish(k, kind); });
}

void SFTree::captureAccess(stm::Tx& tx, Key k) {
  if (!splayEnabled_) return;
  // Per-thread 1-in-2^shift sampling, shared across trees: the counter costs
  // one TLS increment per hit, and only sampled hits pay the commit hook +
  // queue publish. The heat estimate is lossy by design, so approximate
  // per-tree rates under interleaved multi-tree traffic are fine.
  static thread_local std::uint32_t sampleCtr = 0;
  if ((++sampleCtr & accessSampleMask_) != 0) return;
  tx.onCommit([this, k] { violations_.publish(k, ViolationKind::kAccess); });
}

std::uint32_t SFTree::decayedHeat(const SFNode* n) const {
  // heatEpoch only moves forward and only the maintenance worker writes it,
  // so the delta is non-negative.
  const std::uint32_t delta = heatEpochNow_ - n->heatEpoch;
  if (delta == 0) return n->heat;
  return delta >= 32 ? 0 : (n->heat >> delta);
}

void SFTree::bumpHeat(SFNode* n, std::uint32_t ticks) {
  // Normalize to the current epoch, then saturate well below overflow so a
  // pathological burst cannot wrap the estimate.
  constexpr std::uint32_t kHeatCap = std::uint32_t{1} << 24;
  const std::uint64_t h =
      static_cast<std::uint64_t>(decayedHeat(n)) + ticks;
  n->heatEpoch = heatEpochNow_;
  n->heat = static_cast<std::uint32_t>(std::min<std::uint64_t>(h, kHeatCap));
}

// --------------------------------------------------------------------------
// Maintenance thread (paper §3.1/3.2/3.4): one background thread repeatedly
// performs a depth-first traversal that propagates balance estimates,
// rotates unbalanced nodes in node-local transactions, physically removes
// logically deleted nodes, and garbage-collects retired nodes after
// quiescence.
// --------------------------------------------------------------------------
void SFTree::startMaintenance() {
  if (maintenanceThread_.joinable()) return;
  stopFlag_.store(false, std::memory_order_release);
  maintenanceThread_ = std::thread([this] { maintenanceLoop(); });
}

void SFTree::stopMaintenance() {
  if (!maintenanceThread_.joinable()) return;
  stopFlag_.store(true, std::memory_order_release);
  maintenanceThread_.join();
}

void SFTree::maintenanceLoop() {
  while (!stopFlag_.load(std::memory_order_acquire)) {
    const bool didWork = runMaintenancePass(&stopFlag_);
    if (cfg_.interPassPause.count() > 0) {
      std::this_thread::sleep_for(cfg_.interPassPause);
    }
    if (!didWork && cfg_.idlePause.count() > 0) {
      std::this_thread::sleep_for(cfg_.idlePause);
    }
  }
}

bool SFTree::runMaintenancePass(const std::atomic<bool>* cancel) {
  bool fullSweep = !cfg_.targetedMaintenance;
  bool sweepDeferrable = false;
  if (!fullSweep) {
    // Periodic fallback sweep: the safety net for anything the queue could
    // not carry — drain/update races absorbed by the dedup handshake,
    // deleted two-child nodes that only became removable after their
    // subtree emptied, dropped captures on overflow. The *periodic* sweep
    // is deferrable: a drain that carried only kAccess splay traffic left
    // no structural debt for the sweep to find (maintainOnce decides). An
    // overflow sweep is not — dropped captures are exactly the missed work
    // only a sweep recovers.
    ++passesSinceSweep_;
    if (cfg_.fullSweepPeriod > 0 && passesSinceSweep_ >= cfg_.fullSweepPeriod) {
      fullSweep = true;
      sweepDeferrable = true;
    }
    if (violations_.consumeOverflow()) {
      fullSweep = true;
      sweepDeferrable = false;
    }
  }
  return maintainOnce(cancel, fullSweep, sweepDeferrable);
}

bool SFTree::maintainOnce(const std::atomic<bool>* cancel, bool fullSweep,
                          bool sweepDeferrable) {
  const std::uint64_t passStart = obs::tick();
  if (splayEnabled_) {
    // One decay-epoch refresh and one fresh rotation budget per pass: every
    // heat comparison inside the pass sees a consistent epoch, and the
    // budget caps the pass's promotion latency no matter how hot the queue.
    heatEpochNow_ = static_cast<std::uint32_t>(
        obs::ticksToNs(passStart - createdTick_) / splay_.decayHalfLifeNs);
    splayBudgetLeft_ = splay_.rotationBudget;
    splayBudgetHit_ = false;
  }
  limbo_.openEpoch(registry_);
  bool didWork = false;
  bool sawStructural = false;
  bool sweepDeferred = false;
  if (cfg_.targetedMaintenance) {
    if (drainViolations(cancel, sawStructural)) didWork = true;
  }
  if (fullSweep && sweepDeferrable && !sawStructural &&
      cfg_.fullSweepPeriod > 0 &&
      passesSinceSweep_ < 4 * cfg_.fullSweepPeriod) {
    // Splay-aware backoff: this period's drain was pure kAccess traffic
    // (or empty) — structurally clean, nothing for the safety net to
    // recover — so skip the O(n) DFS. passesSinceSweep_ keeps climbing, so
    // the period re-fires next pass and the 4x cap bounds how long a
    // dropped-entry race can hide (quiesceNow still always sweeps).
    fullSweep = false;
    sweepDeferred = true;
  }
  if (fullSweep) {
    SFNode* top = root_->left.loadAcquire();
    maintainSubtree(root_, top, /*leftChild=*/true, didWork, 0, cancel);
    passesSinceSweep_ = 0;
  }
  limbo_.tryCollect(registry_);
  {
    const std::uint64_t passNs = obs::ticksToNs(obs::tick() - passStart);
    if (obs::traceEnabled()) {
      obs::trace(obs::TraceKind::kMaintPass,
                 reinterpret_cast<std::uint64_t>(this), passNs, 0,
                 fullSweep ? 1 : 0);
    }
    std::lock_guard<std::mutex> lk(maintStatsMu_);
    maintStats_.passNs.record(passNs);
    ++maintStats_.traversals;
    if (fullSweep) ++maintStats_.fullSweeps;
    if (splayBudgetHit_) {
      ++maintStats_.splayBudgetStops;
      splayBudgetHit_ = false;
    }
    maintStats_.nodesFreed = limbo_.freedTotal();
    if (sweepDeferred) ++maintStats_.sweepsDeferred;
    // passVisited_ is worker-private; fold it into the guarded stats once
    // per pass so visits cost no synchronization per node.
    maintStats_.nodesVisited += passVisited_;
    passVisited_ = 0;
    maintStats_.sharedPrefixSkips += passPrefixSkips_;
    passPrefixSkips_ = 0;
  }
  return didWork;
}

// --------------------------------------------------------------------------
// Targeted repair: drain the mutator-fed violation queue and fix only the
// affected root-paths. All plain (non-transactional) loads below are safe
// because the worker running the pass is the only structural mutator of the
// tree (the runMaintenancePass contract): concurrent abstract operations
// only link fresh leaves (published with release stores) and flip flags.
// --------------------------------------------------------------------------
bool SFTree::drainViolations(const std::atomic<bool>* cancel,
                             bool& sawStructural) {
  bool didWork = false;
  // Collect, then sort by key, then repair: key-sorted neighbors share the
  // longest possible root-path prefixes, so each repair can resume the
  // previous entry's recorded walk instead of re-descending from the root
  // (sharedPrefixSkips counts the avoided steps). The dedup claims were
  // already released by the drain, so a concurrent update to a collected
  // key re-enqueues normally and is simply repaired again next pass.
  drainBuf_.clear();
  violations_.drain([&](Key k, ViolationKind kind, std::uint32_t weight) {
    drainBuf_.push_back(DrainEntry{k, weight, kind});
    return cancel == nullptr || !cancel->load(std::memory_order_relaxed);
  });
  std::sort(drainBuf_.begin(), drainBuf_.end(),
            [](const DrainEntry& a, const DrainEntry& b) {
              return a.key < b.key;
            });
  bool reusePath = false;
  for (std::size_t i = 0; i < drainBuf_.size(); ++i) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      // Cancelled mid-batch: hand the unprocessed tail back to the queue so
      // the next pass (or quiesceNow) repairs it. An access entry's
      // absorbed-tick weight is dropped by the round-trip — heat is a lossy
      // estimate by contract.
      for (std::size_t j = i; j < drainBuf_.size(); ++j) {
        violations_.publish(drainBuf_[j].key, drainBuf_[j].kind);
      }
      break;
    }
    const DrainEntry& e = drainBuf_[i];
    if (e.kind != ViolationKind::kAccess) sawStructural = true;
    bool entryWork = false;
    processViolation(e.key, e.kind, e.weight, entryWork, reusePath);
    didWork |= entryWork;
    // A repair that did structural work (rotations, removals, promotions)
    // may have retired nodes recorded in pathBuf_; only then is the
    // recorded path unusable for the next entry.
    reusePath = !entryWork;
  }
  return didWork;
}

void SFTree::processViolation(Key k, ViolationKind kind, std::uint32_t ticks,
                              bool& didWork, bool reusePath) {
  // Root-path walk to k's position, recording the path. The walk can only
  // meet reachable (never removed) nodes; nodes this pass itself retires
  // stay readable until a later pass's collection epoch.
  SFNode* parent = root_;
  SFNode* node = root_->left.loadAcquire();
  bool leftChild = true;
  bool foundViaPrefix = false;
  if (reusePath && !pathBuf_.empty() && pathBuf_.front().node == node) {
    // Follow the previous entry's recorded path while it matches k's search
    // path. Safe: the previous repair did no structural work (drain
    // contract), and concurrent mutators only link fresh leaves below null
    // children, so every recorded interior node is still reachable at the
    // recorded position.
    std::size_t keep = 0;
    for (;;) {
      SFNode* n = pathBuf_[keep].node;
      if (n->key == k) {
        // k's node is itself on the recorded path: the prefix above it is
        // the whole ancestor chain.
        parent = pathBuf_[keep].parent;
        node = n;
        leftChild = pathBuf_[keep].leftChild;
        pathBuf_.resize(keep);
        passPrefixSkips_ += keep;
        foundViaPrefix = true;
        break;
      }
      const bool dir = k < n->key;
      if (keep + 1 < pathBuf_.size() && pathBuf_[keep + 1].leftChild == dir) {
        ++keep;
        continue;
      }
      // Diverged (or the recorded path ended): resume the live walk from
      // n's dir child with the shared prefix kept as recorded ancestors.
      parent = n;
      leftChild = dir;
      node = dir ? n->left.loadAcquire() : n->right.loadAcquire();
      pathBuf_.resize(keep + 1);
      passPrefixSkips_ += keep + 1;
      break;
    }
  } else {
    pathBuf_.clear();
  }
  if (!foundViaPrefix) {
    int steps = static_cast<int>(pathBuf_.size());
    while (node != nullptr && node->key != k) {
      ++passVisited_;
      pathBuf_.push_back(PathStep{parent, node, leftChild});
      parent = node;
      leftChild = k < node->key;
      node = leftChild ? node->left.loadAcquire() : node->right.loadAcquire();
      if (++steps > kMaintenanceDepthLimit) return;  // defensive
    }
  }

  if (kind == ViolationKind::kAccess) {
    // Heat fold + bounded promotion. A stale tick (key physically removed
    // or logically deleted since the sampled lookup) is simply dropped —
    // the estimate is lossy by contract, and nothing structural is owed.
    {
      std::lock_guard<std::mutex> lk(maintStatsMu_);
      ++maintStats_.accessEntriesDrained;
      if (node != nullptr) {
        maintStats_.accessTicksConsumed += ticks;
        maintStats_.accessDepth.record(pathBuf_.size() + 1);
      }
    }
    if (node == nullptr) return;
    ++passVisited_;
    if (node->deleted.loadAcquire()) return;
    bumpHeat(node, ticks);
    splayPromote(parent, node, leftChild, didWork);
    // Promotions changed subtree shapes under the remaining ancestors:
    // refresh their estimates bottom-up (breaks immediately when nothing
    // was promoted).
    for (auto it = pathBuf_.rbegin(); it != pathBuf_.rend(); ++it) {
      ++passVisited_;
      if (!rebalanceAt(it->parent, it->node, it->leftChild, didWork)) break;
    }
    return;
  }

  if (kind == ViolationKind::kErase) {
    // Pure-removal repair: probe the unlink, and only climb when something
    // was actually removed — a refused removal (two children, flag cleared
    // by a revive, node already gone) left every height untouched, so the
    // bottom-up walk would terminate at its first level anyway.
    if (node == nullptr) return;
    ++passVisited_;
    bool removedAny = false;
    while (tryRemoveAt(parent, node, leftChild, didWork)) {
      removedAny = true;
    }
    if (!removedAny) return;
    if (node != nullptr) rebalanceAt(parent, node, leftChild, didWork);
  } else {
    // kInsert: the fresh leaf cannot itself need removal (any later erase
    // queued its own kErase entry), so go straight to the rebalance.
    if (node != nullptr) {
      ++passVisited_;
      rebalanceAt(parent, node, leftChild, didWork);
    }
  }

  // Bottom-up along the recorded root-path: refresh the balance estimates
  // and rotate where the AVL bound is violated. A rotation at a deeper
  // position only replaces that position's subtree root, so the recorded
  // ancestors stay valid; each step re-reads its children's estimates. The
  // walk stops as soon as a level neither removed nor changed height nor
  // rotated (the classic AVL fixup termination): above that point the
  // ancestors' inputs are exactly what they already were, so the remaining
  // climb would be pure rediscovery — the cost this queue exists to avoid.
  for (auto it = pathBuf_.rbegin(); it != pathBuf_.rend(); ++it) {
    ++passVisited_;
    bool levelChanged = false;
    while (tryRemoveAt(it->parent, it->node, it->leftChild, didWork)) {
      levelChanged = true;
    }
    if (it->node != nullptr) {
      levelChanged |= rebalanceAt(it->parent, it->node, it->leftChild,
                                  didWork);
    }
    if (!levelChanged) break;
  }
}

// --------------------------------------------------------------------------
// Semantic splaying (docs/splaying.md): rotate a hot node toward the root in
// the same node-local maintenance transactions the rebalancer uses, so the
// promotion work — like all restructuring in this tree — stays off the
// abort-prone application path. Each zig is one rotation at the *parent's*
// position that lifts `node` over its parent (our rotation primitives lift
// the named child intact and demote-copy the parent, so `node` survives
// every step). Aligned double-links additionally take the classic zig-zig
// shortcut: lift the parent over the grandparent first, which straightens
// the path so the follow-up zig leaves the subtree better balanced than two
// independent single rotations would.
// --------------------------------------------------------------------------
void SFTree::splayPromote(SFNode*& parent, SFNode*& node, bool& leftChild,
                          bool& didWork) {
  if (!splayEnabled_) return;
  bool zigzigArmed = false;  // previous iteration lifted our parent (half a
                             // zig-zig); the next zig completes the pair
  while (pathBuf_.size() > static_cast<std::size_t>(splay_.minDepth)) {
    const std::uint64_t nh = decayedHeat(node);
    if (nh < splay_.minHeat) break;  // hysteresis floor
    PathStep& par = pathBuf_.back();
    // Dominance margin: only promote past a parent the node is num/den
    // hotter than, so two comparably hot keys do not thrash one position.
    if (nh * splay_.promoteDen <=
        static_cast<std::uint64_t>(decayedHeat(par.node)) * splay_.promoteNum) {
      break;
    }
    if (splayBudgetLeft_ == 0) {
      splayBudgetHit_ = true;
      break;
    }
    // Zig-zig head start: when the two links are aligned and the node also
    // dominates its grandparent, rotate the grandparent first.
    if (!zigzigArmed && splayBudgetLeft_ >= 2 &&
        pathBuf_.size() > static_cast<std::size_t>(splay_.minDepth) + 1 &&
        par.leftChild == leftChild) {
      PathStep& gp = pathBuf_[pathBuf_.size() - 2];
      if (nh * splay_.promoteDen >
          static_cast<std::uint64_t>(decayedHeat(gp.node)) *
              splay_.promoteNum) {
        const bool ok = leftChild ? tryRotateRight(gp.parent, gp.leftChild)
                                  : tryRotateLeft(gp.parent, gp.leftChild);
        if (!ok) {
          std::lock_guard<std::mutex> lk(maintStatsMu_);
          ++maintStats_.failedStructuralOps;
          break;
        }
        didWork = true;
        --splayBudgetLeft_;
        // The parent now owns the grandparent's position; `node` is still
        // its `leftChild`-side child. Rewrite the tail of the path to match
        // and let the generic zig below finish the pair.
        const PathStep lifted{gp.parent, par.node, gp.leftChild};
        pathBuf_.pop_back();
        pathBuf_.back() = lifted;
        {
          std::lock_guard<std::mutex> lk(maintStatsMu_);
          ++maintStats_.rotations;
          ++maintStats_.splaySteps;
        }
        zigzigArmed = true;
        continue;
      }
    }
    // Zig: lift `node` over its parent at the parent's position.
    const PathStep ps = par;
    const bool ok = leftChild ? tryRotateRight(ps.parent, ps.leftChild)
                              : tryRotateLeft(ps.parent, ps.leftChild);
    if (!ok) {
      std::lock_guard<std::mutex> lk(maintStatsMu_);
      ++maintStats_.failedStructuralOps;
      break;
    }
    didWork = true;
    --splayBudgetLeft_;
    pathBuf_.pop_back();
    parent = ps.parent;
    leftChild = ps.leftChild;
    {
      std::lock_guard<std::mutex> lk(maintStatsMu_);
      ++maintStats_.splaySteps;
      ++maintStats_.rotations;
      if (zigzigArmed) ++maintStats_.splayZigZigs;
    }
    if (obs::traceEnabled()) {
      obs::trace(obs::TraceKind::kSplayStep,
                 static_cast<std::uint64_t>(node->key),
                 static_cast<std::uint64_t>(pathBuf_.size() + 1), 0,
                 zigzigArmed ? 1 : 0);
    }
    zigzigArmed = false;
  }
}

bool SFTree::tryRemoveAt(SFNode* parent, SFNode*& node, bool leftChild,
                         bool& didWork) {
  if (!cfg_.removals || node == nullptr) return false;
  if (!node->deleted.loadAcquire()) return false;
  if (node->left.loadAcquire() != nullptr &&
      node->right.loadAcquire() != nullptr) {
    // Only nodes with at most one child are physically removed; a deleted
    // two-child node becomes removable once one side empties (rediscovered
    // by the fallback sweep).
    return false;
  }
  if (tryRemovePhysical(parent, leftChild)) {
    didWork = true;
    {
      std::lock_guard<std::mutex> lk(maintStatsMu_);
      ++maintStats_.removals;
    }
    // Continue with whatever took the node's place.
    node = leftChild ? parent->left.loadAcquire() : parent->right.loadAcquire();
    return true;
  }
  std::lock_guard<std::mutex> lk(maintStatsMu_);
  ++maintStats_.failedStructuralOps;
  return false;
}

bool SFTree::rebalanceAt(SFNode* parent, SFNode* node, bool leftChild,
                         bool& didWork) {
  // Refresh this node's balance estimates from its children's stored ones
  // (paper §3.1, "propagation"; the estimates are maintenance-private and
  // tolerate staleness — off-path subtrees carry their own queue entries).
  SFNode* l = node->left.loadAcquire();
  SFNode* r = node->right.loadAcquire();
  const int lh = l != nullptr ? l->localH : 0;
  const int rh = r != nullptr ? r->localH : 0;
  const bool heightChanged =
      node->leftH != lh || node->rightH != rh ||
      node->localH != std::max(lh, rh) + 1;
  node->leftH = lh;
  node->rightH = rh;
  node->localH = std::max(lh, rh) + 1;

  if (!cfg_.rotations) return heightChanged;
  // Hot-protection slack (docs/splaying.md): the demoting rotation below
  // would push a splay-promoted node back down, so while a node is hot its
  // AVL bound is relaxed by `slack` levels — beyond that, balance wins
  // (lookups of everything routed through this subtree pay the skew).
  // Applies to sweeps too: the fallback sweep must not undo what the
  // targeted pass just promoted.
  if (splayEnabled_) {
    const int imb = lh > rh ? lh - rh : rh - lh;
    if (imb > 1 && imb <= 1 + splay_.slack &&
        decayedHeat(node) >= splay_.minHeat) {
      std::lock_guard<std::mutex> lk(maintStatsMu_);
      ++maintStats_.rebalanceSkippedHot;
      return heightChanged;
    }
  }
  if (lh - rh > 1) {
    // Left-heavy. If the left child leans right, first rotate it left so a
    // single right rotation at `node` balances (two node-local
    // transactions, as in the paper's distributed rotation).
    SFNode* child = node->left.loadAcquire();
    if (child != nullptr && child->rightH > child->leftH) {
      if (tryRotateLeft(node, /*leftChild=*/true)) {
        didWork = true;
        std::lock_guard<std::mutex> lk(maintStatsMu_);
        ++maintStats_.rotations;
      }
      child = node->left.loadAcquire();
    }
    // Re-check after the inner rotation: rotating a node the inner step
    // already balanced would tilt it the other way and oscillate forever.
    const int freshLh = child != nullptr ? child->localH : 0;
    if (freshLh - rh > 1) {
      if (tryRotateRight(parent, leftChild)) {
        didWork = true;
        std::lock_guard<std::mutex> lk(maintStatsMu_);
        ++maintStats_.rotations;
      } else {
        std::lock_guard<std::mutex> lk(maintStatsMu_);
        ++maintStats_.failedStructuralOps;
      }
    }
    // `node` may have been retired by the rotation: the caller re-reads the
    // parent's link (or lets the next pass refresh the estimates).
    return true;
  }
  if (rh - lh > 1) {
    SFNode* child = node->right.loadAcquire();
    if (child != nullptr && child->leftH > child->rightH) {
      if (tryRotateRight(node, /*leftChild=*/false)) {
        didWork = true;
        std::lock_guard<std::mutex> lk(maintStatsMu_);
        ++maintStats_.rotations;
      }
      child = node->right.loadAcquire();
    }
    const int freshRh = child != nullptr ? child->localH : 0;
    if (freshRh - lh > 1) {
      if (tryRotateLeft(parent, leftChild)) {
        didWork = true;
        std::lock_guard<std::mutex> lk(maintStatsMu_);
        ++maintStats_.rotations;
      } else {
        std::lock_guard<std::mutex> lk(maintStatsMu_);
        ++maintStats_.failedStructuralOps;
      }
    }
    return true;
  }
  return heightChanged;
}

void SFTree::maintainSubtree(SFNode* parent, SFNode* node, bool leftChild,
                             bool& didWork, int depth,
                             const std::atomic<bool>* cancel) {
  if (node == nullptr) return;
  if (depth > kMaintenanceDepthLimit) return;
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) return;
  ++passVisited_;

  // Physical removal first; continue with whatever took the node's place.
  while (tryRemoveAt(parent, node, leftChild, didWork)) {
    if (node != nullptr) ++passVisited_;
  }
  if (node == nullptr) return;

  // Depth-first recursion, then propagate + rotate on the way up.
  maintainSubtree(node, node->left.loadAcquire(), /*leftChild=*/true, didWork,
                  depth + 1, cancel);
  maintainSubtree(node, node->right.loadAcquire(), /*leftChild=*/false,
                  didWork, depth + 1, cancel);
  rebalanceAt(parent, node, leftChild, didWork);
}

int SFTree::quiesceNow(int maxPasses) {
  assert(!maintenanceThread_.joinable() &&
         "stop the maintenance thread before quiescing manually");
  for (int pass = 1; pass <= maxPasses; ++pass) {
    // Drain the queue first; once it is empty every pass includes a full
    // sweep, and a clean sweep over an empty queue is the fixpoint.
    const bool sweep =
        !cfg_.targetedMaintenance || violations_.depth() == 0;
    violations_.consumeOverflow();  // sweeps below cover any dropped entries
    const bool didWork = maintainOnce(nullptr, sweep);
    if (!didWork && sweep && violations_.depth() == 0) return pass;
  }
  return maxPasses;
}

MaintenanceStats SFTree::maintenanceStats() const {
  std::lock_guard<std::mutex> lk(maintStatsMu_);
  MaintenanceStats out = maintStats_;
  out.queue = violations_.stats();
  return out;
}

obs::MetricsRegistry::Registration SFTree::registerMetrics(
    obs::MetricsRegistry& reg, std::string prefix) {
  return reg.add(std::move(prefix), [this](obs::MetricSink& out) {
    obs::emitMaintenanceStats(out, "maintenance", maintenanceStats());
    out.gauge("size_estimate", static_cast<double>(sizeEstimate()));
    out.counter("update_ticks", updateTicks());
    out.gauge("violation_queue_depth",
              static_cast<double>(violationQueueDepth()));
    out.gauge("limbo_pending", static_cast<double>(limboPending()));
    obs::emitArenaStats(out, "arena", arenaForStats());
  });
}

// --------------------------------------------------------------------------
// Quiesced introspection
// --------------------------------------------------------------------------
std::size_t SFTree::abstractSize() {
  std::size_t count = 0;
  std::stack<SFNode*> stack;
  if (SFNode* top = root_->left.loadAcquire()) stack.push(top);
  while (!stack.empty()) {
    SFNode* n = stack.top();
    stack.pop();
    if (!n->deleted.loadAcquire()) ++count;
    if (SFNode* l = n->left.loadAcquire()) stack.push(l);
    if (SFNode* r = n->right.loadAcquire()) stack.push(r);
  }
  return count;
}

std::size_t SFTree::structuralSize() {
  std::size_t count = 0;
  std::stack<SFNode*> stack;
  if (SFNode* top = root_->left.loadAcquire()) stack.push(top);
  while (!stack.empty()) {
    SFNode* n = stack.top();
    stack.pop();
    ++count;
    if (SFNode* l = n->left.loadAcquire()) stack.push(l);
    if (SFNode* r = n->right.loadAcquire()) stack.push(r);
  }
  return count;
}

namespace {
int subtreeHeight(SFNode* n) {
  if (n == nullptr) return 0;
  return 1 + std::max(subtreeHeight(n->left.loadAcquire()),
                      subtreeHeight(n->right.loadAcquire()));
}

void inorder(SFNode* n, std::vector<Key>& out) {
  if (n == nullptr) return;
  inorder(n->left.loadAcquire(), out);
  if (!n->deleted.loadAcquire()) out.push_back(n->key);
  inorder(n->right.loadAcquire(), out);
}
}  // namespace

int SFTree::height() { return subtreeHeight(root_->left.loadAcquire()); }

std::vector<Key> SFTree::keysInOrder() {
  std::vector<Key> out;
  inorder(root_->left.loadAcquire(), out);
  return out;
}

}  // namespace sftree::trees
