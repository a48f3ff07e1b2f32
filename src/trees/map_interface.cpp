#include "trees/map_interface.hpp"

#include <map>

#include "shard/maintenance_scheduler.hpp"
#include "trees/avltree.hpp"
#include "trees/rbtree.hpp"
#include "trees/sftree.hpp"

namespace sftree::trees {

namespace {

// Marks cfg as externally maintained when a scheduler is supplied and the
// tree actually restructures (the NRtree has nothing to schedule).
SFTreeConfig adaptForScheduler(SFTreeConfig cfg,
                               shard::MaintenanceScheduler* scheduler) {
  if (scheduler != nullptr && (cfg.rotations || cfg.removals)) {
    cfg.startMaintenance = false;
  }
  return cfg;
}

class SFTreeMap final : public ITransactionalMap {
  template <typename F>
  auto withPausedMaintenance(F&& fn) {
    if (handle_ != shard::MaintenanceScheduler::kInvalidHandle) {
      scheduler_->pause(handle_);
      auto result = fn();
      scheduler_->resume(handle_);
      return result;
    }
    const bool wasRunning = tree_.maintenanceRunning();
    if (wasRunning) tree_.stopMaintenance();
    auto result = fn();
    if (wasRunning) tree_.startMaintenance();
    return result;
  }

 public:
  explicit SFTreeMap(SFTreeConfig cfg, std::string name = "sftree",
                     shard::MaintenanceScheduler* scheduler = nullptr)
      : tree_(adaptForScheduler(cfg, scheduler)), scheduler_(scheduler) {
    if (scheduler_ != nullptr && (cfg.rotations || cfg.removals)) {
      handle_ = scheduler_->registerTree(
          std::move(name),
          [this](const std::atomic<bool>* cancel) {
            return tree_.runMaintenancePass(cancel);
          },
          [this] { return tree_.updateTicks(); });
    }
  }

  ~SFTreeMap() override {
    // Block until any in-flight scheduled pass has finished before the
    // tree member is destroyed.
    if (handle_ != shard::MaintenanceScheduler::kInvalidHandle) {
      scheduler_->unregisterTree(handle_);
    }
  }

  bool insert(Key k, Value v) override { return tree_.insert(k, v); }
  bool erase(Key k) override { return tree_.erase(k); }
  bool contains(Key k) override { return tree_.contains(k); }
  std::optional<Value> get(Key k) override { return tree_.get(k); }
  bool move(Key from, Key to) override { return tree_.move(from, to); }

  bool insertTx(stm::Tx& tx, Key k, Value v) override {
    return tree_.insertTx(tx, k, v);
  }
  bool eraseTx(stm::Tx& tx, Key k) override { return tree_.eraseTx(tx, k); }
  bool containsTx(stm::Tx& tx, Key k) override {
    return tree_.containsTx(tx, k);
  }
  std::optional<Value> getTx(stm::Tx& tx, Key k) override {
    return tree_.getTx(tx, k);
  }
  std::size_t countRangeTx(stm::Tx& tx, Key lo, Key hi) override {
    return tree_.countRangeTx(tx, lo, hi);
  }
  // Root the snapshot in the tree's own domain (read-only kind) instead of
  // the interface default.
  std::size_t countRange(Key lo, Key hi) override {
    return tree_.countRange(lo, hi);
  }

  // The walks require a quiesced structure: pause the maintenance thread so
  // in-flight rotations cannot hide nodes from the traversal.
  std::size_t size() override {
    return withPausedMaintenance([&] { return tree_.abstractSize(); });
  }
  int height() override {
    return withPausedMaintenance([&] { return tree_.height(); });
  }
  std::vector<Key> keysInOrder() override {
    return withPausedMaintenance([&] { return tree_.keysInOrder(); });
  }

  void quiesce() override {
    withPausedMaintenance([&] {
      tree_.quiesceNow();
      return 0;
    });
  }

  SFTree& tree() { return tree_; }

 private:
  SFTree tree_;
  shard::MaintenanceScheduler* scheduler_;
  shard::MaintenanceScheduler::TreeHandle handle_ =
      shard::MaintenanceScheduler::kInvalidHandle;
};

class RBTreeMap final : public ITransactionalMap {
 public:
  explicit RBTreeMap(RBTreeConfig cfg) : tree_(cfg) {}

  bool insert(Key k, Value v) override { return tree_.insert(k, v); }
  bool erase(Key k) override { return tree_.erase(k); }
  bool contains(Key k) override { return tree_.contains(k); }
  std::optional<Value> get(Key k) override { return tree_.get(k); }
  bool move(Key from, Key to) override { return tree_.move(from, to); }

  bool insertTx(stm::Tx& tx, Key k, Value v) override {
    return tree_.insertTx(tx, k, v);
  }
  bool eraseTx(stm::Tx& tx, Key k) override { return tree_.eraseTx(tx, k); }
  bool containsTx(stm::Tx& tx, Key k) override {
    return tree_.containsTx(tx, k);
  }
  std::optional<Value> getTx(stm::Tx& tx, Key k) override {
    return tree_.getTx(tx, k);
  }
  std::size_t countRangeTx(stm::Tx& tx, Key lo, Key hi) override {
    return tree_.countRangeTx(tx, lo, hi);
  }
  std::size_t countRange(Key lo, Key hi) override {
    return tree_.countRange(lo, hi);
  }

  std::size_t size() override { return tree_.size(); }
  int height() override { return tree_.height(); }
  std::vector<Key> keysInOrder() override { return tree_.keysInOrder(); }

 private:
  RBTree tree_;
};

class AVLTreeMap final : public ITransactionalMap {
 public:
  explicit AVLTreeMap(AVLTreeConfig cfg) : tree_(cfg) {}

  bool insert(Key k, Value v) override { return tree_.insert(k, v); }
  bool erase(Key k) override { return tree_.erase(k); }
  bool contains(Key k) override { return tree_.contains(k); }
  std::optional<Value> get(Key k) override { return tree_.get(k); }
  bool move(Key from, Key to) override { return tree_.move(from, to); }

  bool insertTx(stm::Tx& tx, Key k, Value v) override {
    return tree_.insertTx(tx, k, v);
  }
  bool eraseTx(stm::Tx& tx, Key k) override { return tree_.eraseTx(tx, k); }
  bool containsTx(stm::Tx& tx, Key k) override {
    return tree_.containsTx(tx, k);
  }
  std::optional<Value> getTx(stm::Tx& tx, Key k) override {
    return tree_.getTx(tx, k);
  }
  std::size_t countRangeTx(stm::Tx& tx, Key lo, Key hi) override {
    return tree_.countRangeTx(tx, lo, hi);
  }
  std::size_t countRange(Key lo, Key hi) override {
    return tree_.countRange(lo, hi);
  }

  std::size_t size() override { return tree_.size(); }
  int height() override { return tree_.height(); }
  std::vector<Key> keysInOrder() override { return tree_.keysInOrder(); }

 private:
  AVLTree tree_;
};

// Unsynchronized std::map: the Figure 6 "bare sequential" baseline. The Tx
// parameters are ignored — operations touch no STM state, so a
// single-threaded run measures the application without TM overhead on its
// directories.
class SeqSTLMap final : public ITransactionalMap {
 public:
  bool insert(Key k, Value v) override { return map_.emplace(k, v).second; }
  bool erase(Key k) override { return map_.erase(k) > 0; }
  bool contains(Key k) override { return map_.count(k) > 0; }
  std::optional<Value> get(Key k) override {
    auto it = map_.find(k);
    return it == map_.end() ? std::nullopt : std::optional<Value>(it->second);
  }
  bool move(Key from, Key to) override {
    if (map_.count(to) != 0) return false;
    auto it = map_.find(from);
    if (it == map_.end()) return false;
    const Value v = it->second;
    map_.erase(it);
    map_.emplace(to, v);
    return true;
  }

  bool insertTx(stm::Tx&, Key k, Value v) override { return insert(k, v); }
  bool eraseTx(stm::Tx&, Key k) override { return erase(k); }
  bool containsTx(stm::Tx&, Key k) override { return contains(k); }
  std::optional<Value> getTx(stm::Tx&, Key k) override { return get(k); }
  std::size_t countRangeTx(stm::Tx&, Key lo, Key hi) override {
    return static_cast<std::size_t>(
        std::distance(map_.lower_bound(lo), map_.upper_bound(hi)));
  }

  std::size_t size() override { return map_.size(); }
  int height() override { return 0; }
  std::vector<Key> keysInOrder() override {
    std::vector<Key> out;
    out.reserve(map_.size());
    for (const auto& [k, v] : map_) out.push_back(k);
    return out;
  }

 private:
  std::map<Key, Value> map_;
};

}  // namespace

const char* mapKindName(MapKind kind) {
  switch (kind) {
    case MapKind::SFTree: return "SFtree";
    case MapKind::OptSFTree: return "Opt-SFtree";
    case MapKind::NRTree: return "NRtree";
    case MapKind::RBTree: return "RBtree";
    case MapKind::AVLTree: return "AVLtree";
    case MapKind::SeqSTL: return "Sequential";
  }
  return "?";
}

std::vector<MapKind> allMapKinds() {
  return {MapKind::SFTree, MapKind::OptSFTree, MapKind::NRTree,
          MapKind::RBTree, MapKind::AVLTree};
}

std::unique_ptr<ITransactionalMap> makeMap(MapKind kind, stm::TxKind txKind,
                                           const MapOptions& options) {
  switch (kind) {
    case MapKind::SFTree: {
      SFTreeConfig cfg;
      cfg.ops = OpsVariant::Portable;
      cfg.txKind = txKind;
      cfg.domain = options.domain;
      cfg.interPassPause = options.maintenanceThrottle;
      return std::make_unique<SFTreeMap>(
          cfg, options.name.empty() ? "SFtree" : options.name,
          options.scheduler);
    }
    case MapKind::OptSFTree: {
      SFTreeConfig cfg;
      cfg.ops = OpsVariant::Optimized;
      cfg.txKind = txKind;
      cfg.domain = options.domain;
      cfg.interPassPause = options.maintenanceThrottle;
      return std::make_unique<SFTreeMap>(
          cfg, options.name.empty() ? "Opt-SFtree" : options.name,
          options.scheduler);
    }
    case MapKind::NRTree: {
      SFTreeConfig cfg;
      cfg.ops = OpsVariant::Portable;
      cfg.txKind = txKind;
      cfg.domain = options.domain;
      cfg.rotations = false;
      cfg.removals = false;  // the NRtree never physically removes nodes
      cfg.startMaintenance = false;
      return std::make_unique<SFTreeMap>(cfg);
    }
    case MapKind::RBTree: {
      RBTreeConfig cfg;
      cfg.txKind = txKind;
      cfg.domain = options.domain;
      return std::make_unique<RBTreeMap>(cfg);
    }
    case MapKind::AVLTree: {
      AVLTreeConfig cfg;
      cfg.txKind = txKind;
      cfg.domain = options.domain;
      return std::make_unique<AVLTreeMap>(cfg);
    }
    case MapKind::SeqSTL:
      return std::make_unique<SeqSTLMap>();
  }
  return nullptr;
}

}  // namespace sftree::trees
