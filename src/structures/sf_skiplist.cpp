#include "structures/sf_skiplist.hpp"

#include "gc/tx_guard.hpp"

#include <limits>

namespace sftree::structures {

using sftree::Key;
using sftree::Value;

SFSkipList::SFSkipList(Config cfg)
    : cfg_(cfg),
      domain_(cfg.domain != nullptr ? *cfg.domain : stm::defaultDomain()) {
  head_ = arena_.create(std::numeric_limits<Key>::min(), 0, kMaxLevel);
  if (cfg_.startMaintenance) startMaintenance();
}

SFSkipList::~SFSkipList() {
  stopMaintenance();
  // Reachable towers form a simple list at level 0; unlinked towers are
  // owned by the limbo list.
  Node* n = head_;
  while (n != nullptr) {
    Node* next = n->next[0].loadRelaxed();
    deleteNode(n);
    n = next;
  }
}

SFSkipList::Node* SFSkipList::findTx(stm::Tx& tx, Key k,
                                     Node* preds[kMaxLevel],
                                     Node* succs[kMaxLevel]) const {
  Node* x = head_;
  for (int l = kMaxLevel - 1; l >= 0; --l) {
    Node* nxt = x->next[l].read(tx);
    while (nxt != nullptr && nxt->key < k) {
      x = nxt;
      nxt = x->next[l].read(tx);
    }
    preds[l] = x;
    succs[l] = nxt;
  }
  return (succs[0] != nullptr && succs[0]->key == k) ? succs[0] : nullptr;
}

bool SFSkipList::containsTx(stm::Tx& tx, Key k) {
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  Node* preds[kMaxLevel];
  Node* succs[kMaxLevel];
  Node* n = findTx(tx, k, preds, succs);
  return n != nullptr && !n->deleted.read(tx);
}

std::optional<Value> SFSkipList::getTx(stm::Tx& tx, Key k) {
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  Node* preds[kMaxLevel];
  Node* succs[kMaxLevel];
  Node* n = findTx(tx, k, preds, succs);
  if (n == nullptr || n->deleted.read(tx)) return std::nullopt;
  return n->value.read(tx);
}

int SFSkipList::randomLevel() {
  // Geometric with p = 1/2, capped; xorshift on a shared relaxed state is
  // fine — quality only influences balance, not correctness.
  std::uint64_t s = rngState_.load(std::memory_order_relaxed);
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  rngState_.store(s, std::memory_order_relaxed);
  const std::uint64_t r = s * 0x2545F4914F6CDD1DULL;
  int lvl = 1;
  while (lvl < kMaxLevel && (r >> lvl & 1) != 0) ++lvl;
  return lvl;
}

bool SFSkipList::insertTx(stm::Tx& tx, Key k, Value v) {
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  Node* preds[kMaxLevel];
  Node* succs[kMaxLevel];
  Node* n = findTx(tx, k, preds, succs);
  if (n != nullptr) {
    if (n->deleted.read(tx)) {
      // Revive the logically deleted tower (abstraction-only update).
      n->deleted.write(tx, false);
      n->value.write(tx, v);
      return true;
    }
    return false;
  }
  const int lvl = randomLevel();
  Node* fresh = arena_.create(k, v, lvl);
  tx.onAbortDelete(fresh, &SFSkipList::deleteNode);
  for (int l = 0; l < lvl; ++l) {
    fresh->next[l].storeRelaxed(succs[l]);  // private until publication
  }
  for (int l = 0; l < lvl; ++l) {
    preds[l]->next[l].write(tx, fresh);
  }
  return true;
}

bool SFSkipList::eraseTx(stm::Tx& tx, Key k) {
  tx.requireDomain(domain_);
  gc::txOpGuard(tx, registry_);
  Node* preds[kMaxLevel];
  Node* succs[kMaxLevel];
  Node* n = findTx(tx, k, preds, succs);
  if (n == nullptr) return false;
  if (n->deleted.read(tx)) return false;
  // Logical deletion only (§3.2): the structure is untouched; the
  // maintenance thread unlinks the tower later.
  n->deleted.write(tx, true);
  return true;
}

bool SFSkipList::insert(Key k, Value v) {
  return stm::atomically(domain_, [&](stm::Tx& tx) { return insertTx(tx, k, v); });
}
bool SFSkipList::erase(Key k) {
  return stm::atomically(domain_, [&](stm::Tx& tx) { return eraseTx(tx, k); });
}
bool SFSkipList::contains(Key k) {
  return stm::atomically(domain_, stm::TxKind::ReadOnly,
                         [&](stm::Tx& tx) { return containsTx(tx, k); });
}
std::optional<Value> SFSkipList::get(Key k) {
  return stm::atomically(domain_, stm::TxKind::ReadOnly,
                         [&](stm::Tx& tx) { return getTx(tx, k); });
}

// --------------------------------------------------------------------------
// Maintenance: physical unlinking of logically deleted towers, one
// node-local transaction per tower, then quiescence-based reclamation.
// --------------------------------------------------------------------------
bool SFSkipList::tryUnlink(Node* node) {
  const bool ok = stm::atomically(domain_, [&](stm::Tx& tx) {
    if (node->removed.read(tx)) return false;
    if (!node->deleted.read(tx)) return false;  // revived meanwhile
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    if (findTx(tx, node->key, preds, succs) != node) return false;
    for (int l = node->level - 1; l >= 0; --l) {
      if (preds[l]->next[l].read(tx) == node) {
        preds[l]->next[l].write(tx, node->next[l].read(tx));
      }
    }
    // The tower's own next pointers are left intact: a preempted traversal
    // standing on it still has its path forward (same escape argument as
    // the tree's removed nodes).
    node->removed.write(tx, true);
    return true;
  });
  if (ok) {
    limbo_.retire(node, &SFSkipList::deleteNode);
    unlinks_.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

bool SFSkipList::maintenancePass() {
  bool didWork = false;
  limbo_.openEpoch(registry_);
  Node* n = head_->next[0].loadAcquire();
  while (n != nullptr && !stopFlag_.load(std::memory_order_relaxed)) {
    Node* next = n->next[0].loadAcquire();
    if (n->deleted.loadAcquire() && !n->removed.loadAcquire()) {
      if (tryUnlink(n)) didWork = true;
    }
    n = next;
  }
  limbo_.tryCollect(registry_);
  return didWork;
}

void SFSkipList::maintenanceLoop() {
  while (!stopFlag_.load(std::memory_order_acquire)) {
    const bool didWork = maintenancePass();
    if (!didWork && cfg_.idlePause.count() > 0) {
      std::this_thread::sleep_for(cfg_.idlePause);
    }
  }
}

void SFSkipList::startMaintenance() {
  if (maintenanceThread_.joinable()) return;
  stopFlag_.store(false, std::memory_order_release);
  maintenanceThread_ = std::thread([this] { maintenanceLoop(); });
}

void SFSkipList::stopMaintenance() {
  if (!maintenanceThread_.joinable()) return;
  stopFlag_.store(true, std::memory_order_release);
  maintenanceThread_.join();
}

int SFSkipList::quiesceNow(int maxPasses) {
  stopFlag_.store(false, std::memory_order_release);
  for (int pass = 1; pass <= maxPasses; ++pass) {
    if (!maintenancePass()) return pass;
  }
  return maxPasses;
}

std::size_t SFSkipList::abstractSize() {
  std::size_t n = 0;
  for (Node* x = head_->next[0].loadAcquire(); x != nullptr;
       x = x->next[0].loadAcquire()) {
    if (!x->deleted.loadAcquire()) ++n;
  }
  return n;
}

std::size_t SFSkipList::structuralSize() {
  std::size_t n = 0;
  for (Node* x = head_->next[0].loadAcquire(); x != nullptr;
       x = x->next[0].loadAcquire()) {
    ++n;
  }
  return n;
}

std::vector<Key> SFSkipList::keysInOrder() {
  std::vector<Key> out;
  for (Node* x = head_->next[0].loadAcquire(); x != nullptr;
       x = x->next[0].loadAcquire()) {
    if (!x->deleted.loadAcquire()) out.push_back(x->key);
  }
  return out;
}

}  // namespace sftree::structures
