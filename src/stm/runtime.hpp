// Per-thread transaction context and retry backoff. The process-global
// state lives in instantiable stm::Domain objects (see domain.hpp); this
// header keeps the thread-side machinery: one lazily created transaction descriptor per
// thread, plus the per-(thread, domain) statistics slots.
#pragma once

#include <memory>
#include <vector>

#include "stm/domain.hpp"
#include "stm/stats.hpp"
#include "stm/tx.hpp"

namespace sftree::stm {

namespace detail {

// Per-thread transaction context. The descriptor is created lazily on the
// first atomically() and its per-domain statistics slots are folded back
// into their domains when the thread exits.
struct ThreadContext {
  std::unique_ptr<Tx> tx;
  std::vector<std::shared_ptr<StatsSlot>> slots;
  // Direct-mapped slot cache keyed on the domain pointer: a thread driving
  // several maps on their own domains alternates domains between
  // operations, so a single most-recently-used entry would thrash. Entries
  // self-invalidate (a dead domain nulls its slots' back-pointers), so a
  // stale entry can never alias a new domain at the same address.
  static constexpr std::size_t kSlotCacheSize = 16;  // power of two
  StatsSlot* slotCache[kSlotCacheSize] = {};

  ~ThreadContext();
  Tx& acquire();
  // The calling thread's statistics slot for `d` (created on first use).
  ThreadStats& statsFor(Domain& d);
};

ThreadContext& context();

// Bounded randomized exponential backoff keyed on the retry count.
void backoff(Tx& tx);

}  // namespace detail

// True when the calling thread is inside a transaction.
bool inTransaction();

// The calling thread's active transaction. Precondition: inTransaction().
Tx& currentTx();

// The calling thread's statistics against `d` (slot created on demand).
ThreadStats& threadStats(Domain& d);
// Convenience overload for the default process domain.
ThreadStats& threadStats();

}  // namespace sftree::stm
