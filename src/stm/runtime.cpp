#include "stm/runtime.hpp"

#include <algorithm>

namespace sftree::stm {

namespace detail {

ThreadContext::~ThreadContext() { retireThreadSlots(slots); }

Tx& ThreadContext::acquire() {
  if (!tx) tx = std::make_unique<Tx>();
  return *tx;
}

ThreadStats& ThreadContext::statsFor(Domain& d) {
  // Fast path: direct-mapped cache hit whose slot still belongs to `d`. A
  // slot whose domain died reads null here and falls through to the slow
  // path — so a recycled Domain address can never alias a stale slot.
  const std::size_t bucket =
      (reinterpret_cast<std::uintptr_t>(&d) >> 6) & (kSlotCacheSize - 1);
  StatsSlot* cached = slotCache[bucket];
  if (cached != nullptr &&
      cached->domain.load(std::memory_order_relaxed) == &d) {
    return cached->stats;
  }
  // Slow path: one scan of this thread's slots; dead slots (their domain
  // was destroyed and nulled the back-pointer) are pruned only when one is
  // actually seen. Relaxed reads are enough: only this thread's own
  // entries are inspected, and a dying domain nulls its slots before its
  // address can be reused.
  StatsSlot* found = nullptr;
  bool sawDead = false;
  for (const auto& s : slots) {
    Domain* sd = s->domain.load(std::memory_order_relaxed);
    if (sd == &d) {
      found = s.get();
      break;
    }
    sawDead |= (sd == nullptr);
  }
  if (sawDead) {
    // Evict cache entries that point at slots about to be freed — the
    // cache stores raw pointers, and a dangling one could later be
    // revalidated against recycled memory.
    for (auto& c : slotCache) {
      if (c != nullptr && c->domain.load(std::memory_order_relaxed) == nullptr) {
        c = nullptr;
      }
    }
    slots.erase(std::remove_if(slots.begin(), slots.end(),
                               [](const std::shared_ptr<StatsSlot>& s) {
                                 return s->domain.load(
                                            std::memory_order_relaxed) ==
                                        nullptr;
                               }),
                slots.end());
  }
  if (found == nullptr) found = attachSlotFor(d, slots);
  slotCache[bucket] = found;
  return found->stats;
}

ThreadContext& context() {
  thread_local ThreadContext ctx;
  return ctx;
}

namespace {
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

// xorshift64* — cheap thread-local randomness for backoff jitter.
inline std::uint64_t nextRandom(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1DULL;
}
}  // namespace

void backoff(Tx& tx) {
  // Deliberate restarts (RO snapshot refresh, RO->RW promotion) are not
  // conflicts; waiting would only delay the fresh snapshot.
  if (tx.consumeBackoffWaiver()) return;
  const Config& cfg = tx.domain().config();
  const std::uint32_t shift = std::min<std::uint32_t>(tx.attempts(), 16);
  std::uint64_t ceiling = std::uint64_t{cfg.backoffMinSpins} << shift;
  ceiling = std::min<std::uint64_t>(ceiling, cfg.backoffMaxSpins);
  thread_local std::uint64_t seed =
      0x9E3779B97F4A7C15ULL ^ reinterpret_cast<std::uintptr_t>(&tx);
  const std::uint64_t spins = nextRandom(seed) % (ceiling + 1);
  for (std::uint64_t i = 0; i < spins; ++i) cpuRelax();
}

}  // namespace detail

bool inTransaction() {
  detail::ThreadContext& ctx = detail::context();
  return ctx.tx != nullptr && ctx.tx->active();
}

Tx& currentTx() { return *detail::context().tx; }

ThreadStats& threadStats(Domain& d) { return detail::context().statsFor(d); }

ThreadStats& threadStats() { return threadStats(defaultDomain()); }

}  // namespace sftree::stm
