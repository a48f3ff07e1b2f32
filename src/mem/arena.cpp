#include "mem/arena.hpp"

#include <cassert>
#include <cstdint>

namespace sftree::mem {

namespace {

constexpr std::size_t roundUp(std::size_t v, std::size_t a) {
  return (v + a - 1) & ~(a - 1);
}

}  // namespace

SlabArena::SlabArena(std::size_t blockSize)
    : blockSize_(blockSize),
      // A free block doubles as a FreeNode; keep blocks a cache-line
      // multiple so consecutive blocks never share a line.
      stride_(roundUp(blockSize < sizeof(FreeNode) ? sizeof(FreeNode)
                                                   : blockSize,
                      kBlockAlign)) {
  assert(stride_ <= kSlabBytes - kBlockAlign && "block larger than a slab");
}

SlabArena::~SlabArena() {
  // Blocks are freed wholesale with their slabs; nodes must already be
  // destroyed (the structures' nodes are trivially destructible, and the
  // limbo lists run their deleters before the arena member is destroyed).
  for (void* slab : slabs_) {
    ::operator delete(slab, std::align_val_t{kSlabBytes});
  }
}

std::size_t SlabArena::threadShard() {
  // Distinct threads land on distinct shards until kFreeShards of them
  // collide; a thread keeps its shard for its lifetime.
  static std::atomic<std::size_t> nextId{0};
  thread_local const std::size_t id =
      nextId.fetch_add(1, std::memory_order_relaxed);
  return id & (kFreeShards - 1);
}

void* SlabArena::allocate() {
  const std::size_t self = threadShard();
  FreeShard& shard = shards_[self];
  void* p = nullptr;
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    if (FreeNode* n = shard.head.load(std::memory_order_relaxed)) {
      shard.head.store(n->next, std::memory_order_relaxed);
      p = n;
    }
  }
  if (p == nullptr) p = steal(self);
  if (p == nullptr) p = refill(shard);
  allocated_.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* SlabArena::steal(std::size_t self) {
  for (std::size_t i = 1; i < kFreeShards; ++i) {
    FreeShard& victim = shards_[(self + i) & (kFreeShards - 1)];
    // Unlocked peek: an arena nobody frees into (a populate) pays no
    // victim locks. A stale answer only skips a victim or locks an empty one.
    if (victim.head.load(std::memory_order_relaxed) == nullptr) continue;
    FreeNode* chain;
    {
      std::lock_guard<std::mutex> lk(victim.mu);
      chain = victim.head.exchange(nullptr, std::memory_order_relaxed);
    }
    if (chain == nullptr) continue;
    if (FreeNode* rest = chain->next) {
      FreeShard& shard = shards_[self];
      std::lock_guard<std::mutex> lk(shard.mu);
      // The caller's shard was empty a moment ago; walk the stolen chain
      // only if a colliding thread has pushed onto it since.
      if (FreeNode* mine = shard.head.load(std::memory_order_relaxed)) {
        FreeNode* tail = rest;
        while (tail->next != nullptr) tail = tail->next;
        tail->next = mine;
      }
      shard.head.store(rest, std::memory_order_relaxed);
    }
    return chain;
  }
  return nullptr;
}

void* SlabArena::refill(FreeShard& shard) {
  unsigned char* first;
  unsigned char* extraBegin;
  std::size_t extraCount;
  {
    std::lock_guard<std::mutex> lk(slabMu_);
    if (bumpNext_ == bumpEnd_) {
      auto* slab = static_cast<unsigned char*>(
          ::operator new(kSlabBytes, std::align_val_t{kSlabBytes}));
      new (slab) SlabHeader{this};
      slabs_.push_back(slab);
      bumpNext_ = slab + kBlockAlign;  // blocks start at the next line
      bumpEnd_ = slab + ((kSlabBytes - kBlockAlign) / stride_) * stride_ +
                 kBlockAlign;
    }
    const std::size_t avail =
        static_cast<std::size_t>(bumpEnd_ - bumpNext_) / stride_;
    const std::size_t take = avail < kRefillBatch ? avail : kRefillBatch;
    first = bumpNext_;
    extraBegin = bumpNext_ + stride_;
    extraCount = take - 1;
    bumpNext_ += take * stride_;
  }
  if (extraCount > 0) {
    // Chain the surplus blocks and donate them to the caller's shard.
    auto* head = reinterpret_cast<FreeNode*>(extraBegin);
    auto* tail =
        reinterpret_cast<FreeNode*>(extraBegin + (extraCount - 1) * stride_);
    for (std::size_t i = 0; i + 1 < extraCount; ++i) {
      reinterpret_cast<FreeNode*>(extraBegin + i * stride_)->next =
          reinterpret_cast<FreeNode*>(extraBegin + (i + 1) * stride_);
    }
    std::lock_guard<std::mutex> lk(shard.mu);
    tail->next = shard.head.load(std::memory_order_relaxed);
    shard.head.store(head, std::memory_order_relaxed);
  }
  return first;
}

void SlabArena::pushFree(void* p) {
  FreeShard& shard = shards_[threadShard()];
  auto* n = static_cast<FreeNode*>(p);
  std::lock_guard<std::mutex> lk(shard.mu);
  n->next = shard.head.load(std::memory_order_relaxed);
  shard.head.store(n, std::memory_order_relaxed);
  recycled_.fetch_add(1, std::memory_order_relaxed);
}

void SlabArena::recycle(void* p) {
  auto base = reinterpret_cast<std::uintptr_t>(p) & ~(kSlabBytes - 1);
  auto* header = reinterpret_cast<SlabHeader*>(base);
  header->owner->pushFree(p);
}

std::size_t SlabArena::slabCount() const {
  std::lock_guard<std::mutex> lk(const_cast<std::mutex&>(slabMu_));
  return slabs_.size();
}

}  // namespace sftree::mem
