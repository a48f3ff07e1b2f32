// STM configuration knobs.
#pragma once

#include <cstdint>

namespace sftree::stm {

// When write locks are acquired.
//  * Lazy  == TinySTM-CTL (commit-time locking): writes are buffered and the
//    orecs are locked only during commit. This is the paper's default
//    configuration ("TinySTM-CTL, i.e., with lazy acquirement").
//  * Eager == TinySTM-ETL (encounter-time locking): the orec is locked at the
//    first write; values are still buffered (write-back).
enum class LockMode : std::uint8_t { Lazy, Eager };

// Which TM algorithm backs the transactions.
//  * Orec: the TinySTM/TL2-style word STM above (orec table + version
//    clock); LockMode selects CTL vs ETL.
//  * NOrec: Dalessandro/Spear/Scott's NOrec — a single global sequence lock
//    with value-based revalidation and no per-location metadata. Included
//    to demonstrate the paper's §5.3 claim that the speculation-friendly
//    tree's benefit is independent of the TM algorithm (NOrec is one of
//    the TMs synchrobench exercises). LockMode is ignored; commit-time
//    write-back happens under the global lock.
enum class TmBackend : std::uint8_t { Orec, NOrec };

// Transaction kind.
//  * Normal: opaque TL2-style transaction.
//  * Elastic: E-STM style. While the transaction has not written, reads are
//    tracked hand-over-hand in a small sliding window; older reads are
//    implicitly dropped ("cut") instead of being validated at commit. After
//    the first write the transaction behaves like a Normal one (the window
//    is folded into the read set).
//  * ReadOnly: a hint that the transaction will not write. On the orec
//    backend reads are validated against a fixed snapshot with *no read-set
//    logging* (a stale snapshot re-reads the clock and restarts the body
//    instead of revalidating); on NOrec the value log is kept but the
//    write-set machinery is skipped. A write inside a ReadOnly transaction
//    transparently restarts the attempt in read-write (Normal) mode, so the
//    hint is always safe.
enum class TxKind : std::uint8_t { Normal, Elastic, ReadOnly };

struct Config {
  LockMode lockMode = LockMode::Lazy;
  TmBackend backend = TmBackend::Orec;
  // Elastic window: number of most recent reads that must stay valid.
  // The E-STM paper uses pairs of hand-over-hand reads.
  std::uint32_t elasticWindow = 2;
  // NOrec read-only batching: a zero-write-set ReadOnly transaction on the
  // NOrec backend checks the sequence locks once every this many *scalar*
  // (non-pointer) reads — plus at commit and at every domain join —
  // instead of per read. Values read between checks are still logged, so
  // the value-based revalidation at the next batch boundary catches
  // anything a concurrent writer published in between; large read-only
  // scans (countRange) then pay the seqlock cache line once per batch for
  // their flag/value reads. Pointer reads always validate per read: a
  // traversal must never dereference an unvalidated pointer, or it could
  // wander into memory the quiescence GC legitimately reclaimed (TxField
  // routes field types accordingly). 1 restores per-read validation
  // everywhere.
  std::uint32_t norecRoBatch = 32;
  // Contention management: bounded randomized exponential backoff.
  std::uint32_t backoffMinSpins = 32;
  std::uint32_t backoffMaxSpins = 1 << 14;
  // log2 of the domain's orec table size (2^20 orecs * 8 B = 8 MiB, the
  // TinySTM-scale default). A process running many domains should shrink
  // each domain's table: a domain that guards 1/N of the address traffic
  // needs 1/N of the stripes for the same false-conflict rate, and the
  // combined tables otherwise blow the cache.
  std::uint32_t orecLogSize = 20;
};

}  // namespace sftree::stm
