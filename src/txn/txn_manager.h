#ifndef S2_TXN_TXN_MANAGER_H_
#define S2_TXN_TXN_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>

#include "common/types.h"
#include "txn/lock_table.h"

namespace s2 {

/// Partition-local transaction bookkeeping: txn ids, snapshot (read)
/// timestamps, commit timestamps, and the watermarks that drive garbage
/// collection. Implements partition-local snapshot isolation (paper Section
/// 2.1.2: "reads need to use partition-local snapshot isolation to
/// guarantee a consistent view of the table").
///
/// Visibility watermark: a new snapshot only sees commit timestamps whose
/// stamping has fully finished, so a scan never observes half of a commit.
///
/// Owns the partition's LockTable. FinishCommit and Abort, which run after
/// the tables stamped or rolled back the txn's versions, release its locks:
/// a row-lock holder finds the row's newest version its own or committed.
class TxnManager {
 public:
  struct TxnHandle {
    TxnId id = 0;
    Timestamp read_ts = 0;
  };

  TxnManager() = default;

  /// Starts a transaction: fresh id, snapshot at the current watermark.
  TxnHandle Begin();

  /// Allocates the commit timestamp. The caller stamps its versions with it
  /// and then calls FinishCommit; the watermark does not pass this
  /// timestamp until then.
  Timestamp PrepareCommit(TxnId txn);

  /// Marks the commit fully applied; advances the visibility watermark.
  void FinishCommit(TxnId txn, Timestamp commit_ts);

  /// Ends a transaction without commit.
  void Abort(TxnId txn);

  /// Ends a read-only transaction (releases its snapshot for GC). Also
  /// the tail of FinishCommit and Abort: releases the txn's locks.
  void EndRead(TxnId txn);

  /// Latest timestamp at which every commit is fully visible.
  Timestamp watermark() const;

  /// Bumps the clock and watermark to at least `ts` (recovery: restored
  /// rows were stamped with explicit timestamps).
  void AdvanceTo(Timestamp ts);

  /// Oldest read snapshot still active (== watermark when none): versions
  /// below this can be purged. It only ever grows.
  Timestamp oldest_active() const {
    return oldest_active_.load(std::memory_order_acquire);
  }

  /// oldest_active() as the atomic it is read from, for writers that prune
  /// version chains without taking the manager's mutex. A stale read is
  /// smaller, so it prunes less, never too much.
  const std::atomic<Timestamp>* gc_horizon() const { return &oldest_active_; }

  /// Row and unique-key locks of the partition's tables.
  LockTable* locks() { return &locks_; }

 private:
  mutable std::mutex mu_;
  uint64_t next_txn_ = 1;
  Timestamp clock_ = 0;      // last allocated commit ts
  Timestamp watermark_ = 0;  // all commits <= watermark_ fully applied
  std::set<Timestamp> committing_;          // allocated, not yet finished
  std::multiset<Timestamp> active_reads_;   // snapshots of live txns
  std::map<TxnId, Timestamp> txn_reads_;    // txn -> its snapshot
  /// min(watermark_, oldest of active_reads_), stored under mu_ whenever
  /// either changes.
  std::atomic<Timestamp> oldest_active_{0};
  LockTable locks_;

  void PublishOldestActiveLocked();
};

}  // namespace s2

#endif  // S2_TXN_TXN_MANAGER_H_
