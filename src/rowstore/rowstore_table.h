#ifndef S2_ROWSTORE_ROWSTORE_TABLE_H_
#define S2_ROWSTORE_ROWSTORE_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "rowstore/skiplist.h"
#include "txn/lock_table.h"

namespace s2 {

/// In-memory MVCC rowstore table (paper Section 2.1.1).
///
///  - The primary index is a lock-free skiplist keyed by the encoded
///    primary-key columns; each node carries a newest-first version chain,
///    so readers never block on writers.
///  - Writes use pessimistic concurrency control via row locks in the
///    partition's LockTable, keyed by a hash of this table and the encoded
///    pk. A wait that would close a lock cycle fails at once with
///    Aborted("deadlock"); callers abort and may retry the transaction.
///  - Optional secondary skiplist indexes map encoded secondary key + pk to
///    the row's primary skiplist node, so a seek makes one skiplist search.
///  - Snapshot isolation: a reader sees versions with commit_ts <= read_ts
///    plus its own uncommitted writes; first-committer-wins on write-write
///    conflicts, where a move copy is not a write (see the write rule).
///
/// Commit protocol: callers stage writes under a TxnId, then CommitTxn
/// stamps each version the transaction wrote, and only those, with the
/// commit timestamp (AbortTxn rolls back). The caller releases the row
/// locks afterwards (TxnManager does). Durability is the log's job, not
/// this class's.
///
/// Version GC on write: a write, holding the row's lock, frees every
/// version below the chain's anchor, the newest version committed at or
/// below `*horizon` (the partition's oldest active snapshot). This is safe
/// because every chain reader holds a registered snapshot, whose read_ts
/// is at or above the horizon, so it stops at or above the anchor. Purge
/// does the same for every chain and also unlinks dead rows.
class RowStoreTable {
 public:
  /// `pk_cols` index into the schema; they form the unique primary key.
  /// Empty pk_cols means "no user key": callers must provide a hidden
  /// unique key column themselves. Row locks are taken in `locks`; chains
  /// are pruned on write below `*horizon`, which may only grow.
  RowStoreTable(Schema schema, std::vector<int> pk_cols, LockTable* locks,
                const std::atomic<Timestamp>* horizon);
  ~RowStoreTable();

  RowStoreTable(const RowStoreTable&) = delete;
  RowStoreTable& operator=(const RowStoreTable&) = delete;

  const Schema& schema() const { return schema_; }
  const std::vector<int>& pk_cols() const { return pk_cols_; }

  /// Adds a secondary index over `cols`, unless one over exactly `cols`
  /// exists. Must be called before any writes.
  void AddSecondaryIndex(std::vector<int> cols);

  /// Every write takes the row's lock and then applies one conflict rule
  /// (paper Section 4.2): a version another transaction committed after
  /// `read_ts` aborts the write with Aborted("write-write conflict"), unless
  /// it is a move copy (InsertMoved), whose content is the row's unchanged.

  /// Inserts a row. AlreadyExists if the key has a live version.
  /// `fresh_pk`: no other transaction can write this primary key before
  /// txn ends (a newly allocated row id), so no row lock is taken.
  Status Insert(TxnId txn, Timestamp read_ts, const Row& row,
                bool fresh_pk = false);

  /// Move-transaction insert (paper Section 4.2): installs a `system` copy
  /// of a segment row. AlreadyExists, without waiting, when a live copy is
  /// present or the row is locked (another mover or writer beat us),
  /// letting the caller fall through to mutating that copy.
  Status InsertMoved(TxnId txn, const Row& row);

  /// Deletes the row with the given primary-key values. NotFound if it has
  /// no live version.
  Status Delete(TxnId txn, Timestamp read_ts, const Row& pk);

  /// Replaces the row with the given primary key. NotFound when absent.
  /// The new row must have identical primary-key values.
  Status Update(TxnId txn, Timestamp read_ts, const Row& pk,
                const Row& new_row);

  /// Point read by primary key at a snapshot.
  Result<Row> Get(TxnId txn, Timestamp read_ts, const Row& pk) const;

  /// Invokes cb for every visible row whose columns `cols` equal `values`;
  /// cb returns false to stop. Seeks the shortest secondary index whose
  /// leading columns are `cols`; when none leads with them, scans the whole
  /// table (counted in s2_rowstore_scan_lookups_total).
  Status Lookup(TxnId txn, Timestamp read_ts, const std::vector<int>& cols,
                const Row& values,
                const std::function<bool(const Row&)>& cb) const;

  /// Full scan of visible rows in primary-key order. cb returns false to
  /// stop early.
  void Scan(TxnId txn, Timestamp read_ts,
            const std::function<bool(const Row&)>& cb) const;

  /// Stamps each version txn wrote with commit_ts.
  void CommitTxn(TxnId txn, Timestamp commit_ts);

  /// Discards txn's staged versions: stamps them aborted.
  void AbortTxn(TxnId txn) { CommitTxn(txn, kTsAborted); }

  /// Number of live committed rows visible at ts (approximate under
  /// concurrency; exact when quiescent).
  size_t CountVisible(Timestamp ts) const;

  /// Number of skiplist nodes (live + logically deleted, pre-purge).
  size_t num_nodes() const { return primary_.num_nodes(); }

  /// Number of entries, stale ones included, in the secondary index that a
  /// Lookup on `cols` seeks. For tests.
  size_t num_index_nodes(const std::vector<int>& cols) const;

  /// commit_ts of each version of the row with primary key `pk`, newest
  /// first; empty when absent. For tests: no write to the row may run
  /// meanwhile.
  std::vector<Timestamp> VersionStamps(const Row& pk) const;

  /// Physically removes and frees nodes whose newest version is a
  /// committed delete with commit_ts <= oldest_active, and prunes version
  /// chains. Takes the table's exclusive lock (scans/writes take it
  /// shared).
  size_t Purge(Timestamp oldest_active);

  /// Serializes all rows visible at `ts` (snapshot file payload).
  std::string SerializeSnapshot(Timestamp ts) const;

  /// Loads rows from a snapshot produced by SerializeSnapshot. The rows are
  /// installed as committed at `commit_ts`. Table must be empty.
  Status RestoreSnapshot(Slice snapshot, Timestamp commit_ts);

 private:
  /// An entry's key is enc(sec cols) + enc(pk); its `row` points at the
  /// row's primary node.
  struct SecondaryIndex {
    std::vector<int> cols;
    std::unique_ptr<SkipList> list;
  };

  /// What a write does to its row. kMove inserts a move copy.
  enum class WriteOp { kInsert, kMove, kUpdate, kDelete };

  std::string PkFromRow(const Row& row) const;
  static RowVersion* VisibleVersion(const SkipList::Node* node, TxnId txn,
                                    Timestamp read_ts);
  Status WriteVersion(WriteOp op, TxnId txn, Timestamp read_ts,
                      const std::string& pk, Row data, bool fresh_pk = false);
  /// The shortest secondary index whose leading columns are `cols`, or null.
  const SecondaryIndex* LeadingIndex(const std::vector<int>& cols) const;
  /// Adds `row`'s entry, pointing at its primary node, to each secondary
  /// index whose columns `indexed` (an older live version of the row that
  /// has its entries; may be null) does not already hold.
  void IndexRow(const Row& row, SkipList::Node* primary,
                const RowVersion* indexed);

  Schema schema_;
  std::vector<int> pk_cols_;
  LockTable* locks_;
  const std::atomic<Timestamp>* horizon_;
  SkipList primary_;
  std::vector<SecondaryIndex> secondaries_;

  /// Readers/writers take shared; Purge takes exclusive.
  mutable std::shared_mutex table_lock_;

  /// Staged writes per transaction: every version the txn wrote, in write
  /// order. A version stays allocated until its txn ends: it is uncommitted
  /// until then, so neither pruning nor Purge frees it.
  mutable std::mutex pending_mu_;
  std::unordered_map<TxnId, std::vector<RowVersion*>> pending_;
};

}  // namespace s2

#endif  // S2_ROWSTORE_ROWSTORE_TABLE_H_
