#ifndef S2_TXN_LOCK_TABLE_H_
#define S2_TXN_LOCK_TABLE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace s2 {

/// The exclusive locks of one partition: the rowstore's row locks (paper
/// Section 4.2) and the unique-key locks of inserts (Section 4.1.2). Strict
/// 2PL: a txn keeps every lock it took, also a failed statement's, until
/// ReleaseAll, which TxnManager calls when the txn commits or aborts.
///
/// A lock id is a hash of the owning table and the encoded key. Colliding
/// ids share one lock: a spurious wait, never lost mutual exclusion.
///
/// A waiter parks on its own condition variable with one waits-for edge
/// (txn -> lock); a release wakes it, nothing polls. A txn waits on at most
/// one lock and a lock has one owner, so an edge closes a cycle exactly
/// when the owner chain from the wanted lock leads back to the requester,
/// which then fails at once with Aborted("deadlock"). A lock changing owner
/// closes no cycle (the new owner waits on nothing), so checking at each
/// park is complete. Cycles through another partition's locks are invisible
/// here (txn ids are partition-local); kTimeoutMs is their backstop.
class LockTable {
 public:
  static constexpr int kTimeoutMs = 1000;

  /// Takes lock `lock_id` for `txn`; re-entrant. Aborted("deadlock") when
  /// the wait would close a cycle, Aborted("lock timeout") after kTimeoutMs.
  Status Lock(TxnId txn, uint64_t lock_id);

  /// Takes lock `lock_id` for `txn` if it is free or already txn's; never
  /// waits.
  bool TryLock(TxnId txn, uint64_t lock_id);

  /// Releases every lock `txn` holds and wakes their waiters.
  void ReleaseAll(TxnId txn);

  /// Number of locks held.
  size_t num_locked() const;

  /// Number of transactions parked in Lock.
  size_t num_waiting() const;

 private:
  struct Waiter {
    uint64_t lock_id;
    std::condition_variable cv;
  };

  /// TryLock's body. Requires mu_.
  bool AcquireLocked(TxnId txn, uint64_t lock_id);

  /// Whether `txn` waiting on a lock owned by `owner` closes a cycle.
  /// Requires mu_.
  bool ClosesCycle(TxnId txn, TxnId owner) const;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, TxnId> owners_;
  std::unordered_map<TxnId, std::vector<uint64_t>> held_;
  std::unordered_map<TxnId, Waiter*> waiting_;
};

}  // namespace s2

#endif  // S2_TXN_LOCK_TABLE_H_
