#include "stm/domain.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>

namespace sftree::stm {

namespace detail {
namespace {

// One mutex guards every domain's slot registry and every slot's `domain`
// transition. Slot traffic is rare (thread birth/exit, domain
// construction/destruction, aggregate queries), so a single lock keeps the
// lifetime protocol trivially deadlock-free: the mutex is leaked so that
// thread_local destructors running during process teardown can still take
// it safely regardless of static destruction order.
std::mutex& registryMu() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

}  // namespace

StatsSlot* attachSlotFor(Domain& d,
                         std::vector<std::shared_ptr<StatsSlot>>& slots) {
  auto slot = std::make_shared<StatsSlot>();
  {
    std::lock_guard<std::mutex> lk(registryMu());
    slot->domain.store(&d, std::memory_order_relaxed);
    d.live_.push_back(slot);
  }
  slots.push_back(slot);
  return slots.back().get();
}

void retireThreadSlots(std::vector<std::shared_ptr<StatsSlot>>& slots) {
  std::lock_guard<std::mutex> lk(registryMu());
  for (const auto& slot : slots) {
    Domain* d = slot->domain.load(std::memory_order_relaxed);
    if (d == nullptr) continue;  // domain died first
    // The domain cannot be mid-destruction: its destructor detaches slots
    // under the same mutex we hold.
    d->departed_ += slot->stats.snapshot();
    d->live_.erase(std::remove(d->live_.begin(), d->live_.end(), slot),
                   d->live_.end());
    slot->domain.store(nullptr, std::memory_order_relaxed);
  }
  slots.clear();
}

}  // namespace detail

Domain::~Domain() {
  std::lock_guard<std::mutex> lk(detail::registryMu());
  for (const auto& slot : live_) {
    slot->domain.store(nullptr, std::memory_order_relaxed);
  }
  live_.clear();
}

ThreadStats Domain::aggregateStats() {
  std::lock_guard<std::mutex> lk(detail::registryMu());
  ThreadStats total = departed_;
  for (const auto& slot : live_) total += slot->stats.snapshot();
  return total;
}

void Domain::resetStats() {
  std::lock_guard<std::mutex> lk(detail::registryMu());
  departed_ = ThreadStats{};
  for (const auto& slot : live_) slot->stats.reset();
}

Domain& defaultDomain() {
  static Domain d;
  return d;
}

}  // namespace sftree::stm
