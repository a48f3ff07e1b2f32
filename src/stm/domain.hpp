// TM domains: instantiable STM clock domains.
//
// A Domain owns every piece of process-global TM metadata the singleton
// runtime used to hold: the TL2/TinySTM version clock, the orec table, the
// NOrec global sequence lock, the configuration, and the per-thread
// statistics registry. Independent data structures can run on independent
// domains, so their commits do not contend on one shared clock cache line.
//
// A transaction runs in exactly one domain: everything one transaction
// touches (a sharded map's trees and its routing table, a serving batch,
// a checkpoint cut) must live in the same domain. Touching another
// domain's structure from inside a transaction throws (Tx::requireDomain).
//
// `defaultDomain()` is the process-wide default every legacy call site maps
// onto; single-tree users never need to name a domain.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "stm/clock.hpp"
#include "stm/config.hpp"
#include "stm/orec.hpp"
#include "stm/stats.hpp"

namespace sftree::stm {

class Domain;

namespace detail {

// One (thread, domain) statistics slot, co-owned by the thread's context
// and the domain's registry. `domain` is written under the global slot
// registry mutex (attach, thread exit, domain destruction) and read with a
// relaxed atomic by the owning thread's fast path; a null domain marks a
// detached slot (its domain died first).
struct StatsSlot {
  std::atomic<Domain*> domain{nullptr};
  ThreadStats stats;
};

// Creates the calling thread's slot for `d`, registers it with the domain
// and appends it to `slots` (the thread's ownership list). Lookup and
// dead-slot pruning live in ThreadContext::statsFor, next to the pointer
// cache that pruning must invalidate. Defined in domain.cpp.
StatsSlot* attachSlotFor(Domain& d,
                         std::vector<std::shared_ptr<StatsSlot>>& slots);

// Thread exit: folds every still-attached slot into its domain's departed
// statistics. Defined in domain.cpp.
void retireThreadSlots(std::vector<std::shared_ptr<StatsSlot>>& slots);

}  // namespace detail

class Domain {
 public:
  explicit Domain(Config cfg = {}) : orecs_(cfg.orecLogSize), config_(cfg) {}
  // Detaches every live statistics slot (threads that used this domain may
  // outlive it; their slots must not dangle into freed memory).
  ~Domain();

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  GlobalClock& clock() { return clock_; }
  OrecTable& orecs() { return orecs_; }
  // NOrec global sequence lock: even = free, odd = a writer is committing.
  std::atomic<std::uint64_t>& norecSeq() { return norecSeq_; }
  // Number of orec-backend committers currently between their clock tick
  // and the end of their write-back. Zero-logging read-only snapshots may
  // use the clock fast path only when this is zero at snapshot time: a
  // commit that ticked *before* the snapshot could otherwise still be
  // writing back, which the reader's clock-equality check cannot see.
  std::atomic<std::uint64_t>& writebackActive() { return writebackActive_; }

  const Config& config() const { return config_; }
  // Must only be called while no transaction is running against this domain
  // (e.g. between benchmark phases); the lock mode is read at begin().
  void setConfig(const Config& c) { config_ = c; }
  void setLockMode(LockMode m) { config_.lockMode = m; }

  // Sum of all per-thread statistics accumulated against this domain. Only
  // exact when no transactions are in flight; during a run it is an
  // (acceptable) racy snapshot for progress reporting.
  ThreadStats aggregateStats();
  // Zeroes every registered slot's counters (quiescent use only).
  void resetStats();

 private:
  friend detail::StatsSlot* detail::attachSlotFor(
      Domain&, std::vector<std::shared_ptr<detail::StatsSlot>>&);
  friend void detail::retireThreadSlots(
      std::vector<std::shared_ptr<detail::StatsSlot>>&);

  GlobalClock clock_;
  OrecTable orecs_;
  Config config_;
  alignas(64) std::atomic<std::uint64_t> norecSeq_{0};
  alignas(64) std::atomic<std::uint64_t> writebackActive_{0};

  // Guarded by the global slot registry mutex (domain.cpp).
  std::vector<std::shared_ptr<detail::StatsSlot>> live_;
  ThreadStats departed_;
};

// The process-wide default domain: what the pre-domain singleton runtime
// was, and what every domain-less overload binds to.
Domain& defaultDomain();

}  // namespace sftree::stm
