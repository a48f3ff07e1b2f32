// Public STM interface.
//
//   stm::atomically([](stm::Tx& tx) { ... });                  // default domain
//   stm::atomically(stm::TxKind::Elastic, [](stm::Tx& tx) {}); // elastic
//   stm::atomically(domain, [](stm::Tx& tx) { ... });          // explicit domain
//
// Transactions retry automatically on conflict with randomized exponential
// backoff. Nested atomically() calls are flattened into the enclosing
// transaction (flat nesting), which is what makes composed operations such
// as the tree `move` (paper §5.4) atomic and deadlock-free. A transaction
// runs in exactly one domain: a nested call against a *different* domain
// throws std::logic_error, which aborts the enclosing transaction.
#pragma once

#include <type_traits>
#include <utility>

#include "stm/config.hpp"
#include "stm/domain.hpp"
#include "stm/field.hpp"
#include "stm/runtime.hpp"
#include "stm/stats.hpp"
#include "stm/tx.hpp"

namespace sftree::stm {

template <typename F>
auto atomically(Domain& d, TxKind kind, F&& fn)
    -> std::invoke_result_t<F&, Tx&> {
  using R = std::invoke_result_t<F&, Tx&>;
  detail::ThreadContext& ctx = detail::context();
  Tx& tx = ctx.acquire();
  if (tx.active()) {
    // Flat nesting: run inline as part of the enclosing transaction, which
    // must run in `d`. An abort unwinds to the outermost retry loop.
    tx.requireDomain(d);
    return fn(tx);
  }
  ThreadStats& stats = ctx.statsFor(d);
  for (;;) {
    tx.begin(d, kind, stats);
    try {
      if constexpr (std::is_void_v<R>) {
        fn(tx);
        tx.commit();
        tx.resetAttempts();
        return;
      } else {
        R result = fn(tx);
        tx.commit();
        tx.resetAttempts();
        return result;
      }
    } catch (TxAbort&) {
      tx.onAbort();
      detail::backoff(tx);
    } catch (...) {
      // A user exception aborts the transaction (speculative state is
      // rolled back, locks released, allocations freed) and propagates.
      tx.onAbort();
      throw;
    }
  }
}

template <typename F>
auto atomically(Domain& d, F&& fn) -> std::invoke_result_t<F&, Tx&> {
  return atomically(d, TxKind::Normal, std::forward<F>(fn));
}

template <typename F>
auto atomically(TxKind kind, F&& fn) -> std::invoke_result_t<F&, Tx&> {
  return atomically(defaultDomain(), kind, std::forward<F>(fn));
}

template <typename F>
auto atomically(F&& fn) -> std::invoke_result_t<F&, Tx&> {
  return atomically(defaultDomain(), TxKind::Normal, std::forward<F>(fn));
}

}  // namespace sftree::stm
