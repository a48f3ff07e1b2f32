// Abort/restart cause taxonomy.
//
// Every time a transaction attempt ends without committing, the runtime tags
// the attempt with one AbortCause.  Causes split into two groups:
//
//  * Conflict aborts (indices [0, kFirstRestartCause)) — the attempt counted
//    toward ThreadStats::aborts.  The per-cause counters partition the legacy
//    `aborts` counter exactly: sum(abortsByCause[conflict causes]) == aborts.
//  * Restarts (indices [kFirstRestartCause, kAbortCauseCount)) — intentional
//    re-executions (RO snapshot extension, RO->RW promotion) that the runtime
//    does not treat as contention.  They are tagged here for the taxonomy but
//    bump `roSnapshotExtensions` / `roPromotions` instead of `aborts`.
//
// This header is dependency-free: src/stm/stats.hpp includes it, so nothing
// here may include stm headers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sftree::obs {

enum class AbortCause : std::uint8_t {
  // -- conflict aborts (partition ThreadStats::aborts) ------------------------
  kReadValidation = 0,   // orec read-set validation failed (snapshot extension
                         // or commit-time validation saw a newer version)
  kLockConflict = 1,     // an orec was held by another transaction
  kNorecValidation = 2,  // NOrec value-log re-validation saw a changed value
  kElasticValidation = 3,  // elastic sliding-window cut validation failed
  // 4 is unassigned: the values stay fixed because trace records carry
  // them.
  kUserRestart = 5,        // explicit tx.restart() or a user exception
                           // propagating out of the transaction body
  // -- restarts (not counted in ThreadStats::aborts) --------------------------
  kRoSnapshotExtension = 6,  // zero-logging RO attempt restarted to re-pin a
                             // fresher snapshot
  kRoPromotion = 7,          // RO attempt wrote and restarted in RW mode
};

inline constexpr std::size_t kAbortCauseCount = 8;
inline constexpr std::size_t kFirstRestartCause =
    static_cast<std::size_t>(AbortCause::kRoSnapshotExtension);

constexpr std::size_t abortCauseIndex(AbortCause c) {
  return static_cast<std::size_t>(c);
}

constexpr bool abortCauseIsRestart(AbortCause c) {
  return abortCauseIndex(c) >= kFirstRestartCause;
}

// False for the unassigned index (see the enum); metric emitters skip it.
constexpr bool abortCauseAssigned(std::size_t i) {
  return i < kAbortCauseCount && i != 4;
}

constexpr const char* abortCauseName(AbortCause c) {
  switch (c) {
    case AbortCause::kReadValidation: return "read_validation";
    case AbortCause::kLockConflict: return "lock_conflict";
    case AbortCause::kNorecValidation: return "norec_validation";
    case AbortCause::kElasticValidation: return "elastic_validation";
    case AbortCause::kUserRestart: return "user_restart";
    case AbortCause::kRoSnapshotExtension: return "ro_snapshot_extension";
    case AbortCause::kRoPromotion: return "ro_promotion";
  }
  return "unknown";
}

constexpr const char* abortCauseName(std::size_t i) {
  return abortCauseName(static_cast<AbortCause>(i));
}

}  // namespace sftree::obs
