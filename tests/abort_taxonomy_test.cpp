// Abort-cause taxonomy: every abort/restart path in the STM is tagged with
// a cause, the conflict causes partition the legacy `aborts` counter
// exactly, and each forced-conflict scenario lands on the expected tag.
//
// Scenario per cause:
//   read_validation       orec commit-time read-set validation fails
//   lock_conflict         eager write hits an orec locked by another tx
//   norec_validation      NOrec value validation sees a changed value
//   elastic_validation    elastic window entry overwritten mid-traversal
//   user_restart          explicit tx.restart()
//   ro_snapshot_extension zero-logging RO body restarts on a stale snapshot
//   ro_promotion          write inside an RO body promotes to read-write
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/abort_cause.hpp"
#include "stm/stm.hpp"

namespace obs = sftree::obs;
namespace stm = sftree::stm;

namespace {

using obs::AbortCause;

// Commits `field := value` from a fresh thread so the surrounding
// transaction observes a foreign commit mid-attempt.
void commitFromOtherThread(stm::Domain& dom, stm::TxField<std::int64_t>& f,
                           std::int64_t value) {
  std::thread([&] {
    stm::atomically(dom, [&](stm::Tx& tx) { f.write(tx, value); });
  }).join();
}

TEST(AbortTaxonomyTest, OrecReadValidationAbort) {
  stm::Domain dom;
  stm::TxField<std::int64_t> x(1);
  stm::TxField<std::int64_t> z(0);
  auto& st = stm::threadStats(dom);
  st.reset();
  int attempts = 0;
  stm::atomically(dom, [&](stm::Tx& tx) {
    ++attempts;
    (void)x.read(tx);
    if (attempts == 1) commitFromOtherThread(dom, x, 99);
    // The buffered write forces commit-time validation of the (now stale)
    // read of x.
    z.write(tx, 7);
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_GE(st.abortsFor(AbortCause::kReadValidation), 1u);
  EXPECT_EQ(st.conflictAbortTotal(), st.aborts);
}

TEST(AbortTaxonomyTest, EagerLockConflictAbort) {
  stm::Config cfg;
  cfg.lockMode = stm::LockMode::Eager;
  stm::Domain dom(cfg);
  stm::TxField<std::int64_t> x(0);
  auto& st = stm::threadStats(dom);
  st.reset();

  std::atomic<int> phase{0};
  std::thread holder([&] {
    stm::atomically(dom, [&](stm::Tx& tx) {
      x.write(tx, 1);  // eager: the orec is locked from here to commit
      phase.store(1, std::memory_order_release);
      while (phase.load(std::memory_order_acquire) != 2) {
        std::this_thread::yield();
      }
    });
  });
  while (phase.load(std::memory_order_acquire) != 1) std::this_thread::yield();

  int attempts = 0;
  stm::atomically(dom, [&](stm::Tx& tx) {
    ++attempts;
    if (attempts >= 2) phase.store(2, std::memory_order_release);
    // First attempt writes into the held lock and aborts; later attempts
    // race the holder's commit and eventually win.
    x.write(tx, 2);
  });
  holder.join();

  EXPECT_GE(attempts, 2);
  EXPECT_GE(st.abortsFor(AbortCause::kLockConflict), 1u);
  EXPECT_EQ(st.conflictAbortTotal(), st.aborts);
  EXPECT_EQ(x.loadRelaxed(), 2);
}

TEST(AbortTaxonomyTest, NorecValueValidationAbort) {
  stm::Config cfg;
  cfg.backend = stm::TmBackend::NOrec;
  stm::Domain dom(cfg);
  stm::TxField<std::int64_t> x(1);
  stm::TxField<std::int64_t> y(2);
  auto& st = stm::threadStats(dom);
  st.reset();
  int attempts = 0;
  stm::atomically(dom, [&](stm::Tx& tx) {
    ++attempts;
    (void)x.read(tx);
    if (attempts == 1) commitFromOtherThread(dom, x, 99);
    // The next read observes the moved seqlock and value-validates the
    // log; x's value changed, so the attempt aborts.
    (void)y.read(tx);
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_GE(st.abortsFor(AbortCause::kNorecValidation), 1u);
  EXPECT_EQ(st.conflictAbortTotal(), st.aborts);
}

TEST(AbortTaxonomyTest, ElasticWindowValidationAbort) {
  stm::Domain dom;
  stm::TxField<std::int64_t> x(1);
  stm::TxField<std::int64_t> y(2);
  auto& st = stm::threadStats(dom);
  st.reset();
  int attempts = 0;
  stm::atomically(dom, stm::TxKind::Elastic, [&](stm::Tx& tx) {
    ++attempts;
    (void)x.read(tx);
    if (attempts == 1) {
      // One foreign transaction moves both fields: y's bumped orec forces
      // the elastic snapshot slide, whose hand-over-hand validation finds
      // x (still in the window) changed.
      std::thread([&] {
        stm::atomically(dom, [&](stm::Tx& t2) {
          x.write(t2, 99);
          y.write(t2, 98);
        });
      }).join();
    }
    (void)y.read(tx);
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_GE(st.abortsFor(AbortCause::kElasticValidation), 1u);
  EXPECT_EQ(st.conflictAbortTotal(), st.aborts);
}

TEST(AbortTaxonomyTest, UserRestartTagged) {
  stm::Domain dom;
  stm::TxField<std::int64_t> x(0);
  auto& st = stm::threadStats(dom);
  st.reset();
  int attempts = 0;
  stm::atomically(dom, [&](stm::Tx& tx) {
    ++attempts;
    x.write(tx, attempts);
    if (attempts < 3) tx.restart();
  });
  EXPECT_EQ(st.aborts, 2u);
  EXPECT_EQ(st.abortsFor(AbortCause::kUserRestart), 2u);
  EXPECT_EQ(st.conflictAbortTotal(), st.aborts);
}

TEST(AbortTaxonomyTest, RoSnapshotExtensionRestartIsNotAnAbort) {
  stm::Domain dom;
  stm::TxField<std::int64_t> x(1);
  stm::TxField<std::int64_t> y(2);
  auto& st = stm::threadStats(dom);
  st.reset();
  int attempts = 0;
  stm::atomically(dom, stm::TxKind::ReadOnly, [&](stm::Tx& tx) {
    ++attempts;
    (void)x.read(tx);
    if (attempts == 1) commitFromOtherThread(dom, y, 99);
    // Zero-logging mode cannot extend in place once x was read under the
    // old snapshot: the body restarts, tagged ro_snapshot_extension.
    (void)y.read(tx);
  });
  EXPECT_GE(attempts, 2);
  EXPECT_GE(st.abortsFor(AbortCause::kRoSnapshotExtension), 1u);
  // Restart causes live outside the conflict partition: the legacy abort
  // counter is untouched and still equals the conflict-cause sum (zero).
  EXPECT_EQ(st.aborts, 0u);
  EXPECT_EQ(st.conflictAbortTotal(), st.aborts);
}

TEST(AbortTaxonomyTest, RoPromotionRestartTagged) {
  stm::Domain dom;
  stm::TxField<std::int64_t> x(5);
  auto& st = stm::threadStats(dom);
  st.reset();
  stm::atomically(dom, stm::TxKind::ReadOnly, [&](stm::Tx& tx) {
    x.write(tx, x.read(tx) + 1);
  });
  EXPECT_EQ(x.loadRelaxed(), 6);
  EXPECT_EQ(st.abortsFor(AbortCause::kRoPromotion), 1u);
  EXPECT_EQ(st.abortsFor(AbortCause::kRoPromotion), st.roPromotions);
  EXPECT_EQ(st.aborts, 0u);
  EXPECT_EQ(st.conflictAbortTotal(), st.aborts);
}

// The partition holds under genuinely concurrent mixed traffic, summed over
// every thread slot of the domain.
TEST(AbortTaxonomyTest, CauseSumMatchesUnderConcurrentTraffic) {
  stm::Domain dom;
  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  stm::TxField<std::int64_t> fields[8];  // default-constructed to 0
  dom.resetStats();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        stm::atomically(dom, [&](stm::Tx& tx) {
          const int a = (t + i) % 8;
          const int b = (t * 3 + i * 5) % 8;
          fields[a].write(tx, fields[b].read(tx) + 1);
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto agg = dom.aggregateStats();
  EXPECT_EQ(agg.commits, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(agg.conflictAbortTotal(), agg.aborts);
}

}  // namespace
