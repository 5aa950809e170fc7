#ifndef S2_STORAGE_PARTITION_H_
#define S2_STORAGE_PARTITION_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blob/blob_store.h"
#include "blob/data_file_store.h"
#include "common/executor.h"
#include "log/partition_log.h"
#include "log/snapshot.h"
#include "storage/unified_table.h"
#include "txn/txn_manager.h"

namespace s2 {

struct PartitionOptions {
  /// Local directory for the log and snapshot files.
  std::string dir;
  /// Optional blob store for separated storage; null = pure local mode
  /// ("S2DB can run with and without access to a blob store").
  BlobStore* blob = nullptr;
  /// Key prefix in the blob store for this partition.
  std::string blob_prefix;
  /// Local data-file cache budget.
  size_t cache_bytes = 256ull << 20;
  /// fsync the log on commit (off by default, like the paper).
  bool sync_to_disk = false;
  /// Run uploads on a background thread. Tests disable for determinism.
  bool background_uploads = true;
  /// Run flush/merge automatically after commits when thresholds trip.
  bool auto_maintain = true;
  /// Recovery stops at this LSN when nonzero (point-in-time restore).
  Lsn recover_to_lsn = 0;
  /// Cloud-data-warehouse mode: a commit is not acknowledged until the log
  /// chunk and data files are in blob storage. This is the design the
  /// paper argues *against* (Section 3: it "forces hot data to be written
  /// to the blobstore harming write latency"); the CDW baseline uses it.
  bool sync_blob_commit = false;
  size_t log_page_size = 64 * 1024;
  /// Shared executor for background uploads. Not owned; must outlive the
  /// partition. Null = Executor::Default(). The partition's own
  /// maintenance never runs on it (see MaintainTables).
  Executor* executor = nullptr;
  /// Filesystem for the log, snapshots, and local data files. Not owned;
  /// null = Env::Default(). Crash tests inject a FaultInjectionEnv.
  Env* env = nullptr;
};

/// One database partition: the unit of durability and replication (paper
/// Section 2). Owns the write-ahead log, the transaction manager, the data
/// file store, and the tables hash-partitioned onto it. The cluster module
/// composes partitions into distributed databases.
class Partition {
 public:
  explicit Partition(PartitionOptions options);
  ~Partition();

  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  /// Opens the log and recovers state: latest snapshot at or below the
  /// recovery LSN, then log replay. Must be called before anything else.
  Status Init();

  /// Creates a table; logged as DDL so recovery rebuilds it.
  Result<UnifiedTable*> CreateTable(const std::string& name,
                                    const TableOptions& options);
  Result<UnifiedTable*> GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // --- transactions spanning this partition's tables ---
  TxnManager::TxnHandle Begin();
  /// Durability then visibility: log commit (replicated) first, then stamp
  /// row versions. On log failure the transaction stays open. Then, with
  /// auto_maintain and unless another committer is at it, flushes and
  /// merges the tables at or over their flush threshold.
  Status Commit(TxnId txn);
  void Abort(TxnId txn);
  /// Ends a read-only transaction without logging.
  void EndRead(TxnId txn);

  // --- maintenance ---
  /// Flush + merge every table per thresholds; vacuum old versions.
  Status Maintain();
  /// Writes a rowstore snapshot for fast recovery; uploads it (and log
  /// chunks below the durable LSN) to blob storage when configured.
  Status WriteSnapshot();
  /// Pushes durable log chunks and pending data files to blob storage.
  Status UploadToBlob();

  /// Applies one committed transaction's records, from recovery's log
  /// replay or a replication stream (replica partitions apply continuously
  /// so they can serve reads and take over without warm-up), in one txn
  /// that commits; a failed op rolls it back.
  Status ApplyReplicated(
      const std::vector<std::pair<LogRecordType, std::string>>& ops);

  /// Log records buffered per transaction until its commit record.
  using PendingTxns =
      std::map<TxnId, std::vector<std::pair<LogRecordType, std::string>>>;
  /// Feeds one record of a replayed log (recovery or a replication
  /// stream): buffers it under its transaction, applies the buffer through
  /// ApplyReplicated at the commit record and drops it at the abort
  /// record. Returns whether a transaction was applied.
  Result<bool> ReplayRecord(const LogRecord& rec, PendingTxns* pending);

  PartitionLog* log() { return log_.get(); }
  DataFileStore* files() { return files_.get(); }
  TxnManager* txns() { return &txns_; }
  SnapshotStore* snapshots() { return &snapshots_; }

  /// LSN up to which the log has been uploaded to blob storage; the
  /// distance to durable_lsn() is the blob log-tail replication lag the
  /// replication_lag watchdog folds in (paper Section 3: workspaces follow
  /// the primary through log chunks in blob storage).
  Lsn LogUploadedLsn() const;

  /// Key under which log chunk [from, to) is stored in blob.
  static std::string LogChunkKey(const std::string& prefix, Lsn from, Lsn to);

 private:
  Status Recover();
  /// Flush/merge/vacuum the given tables one after another on the calling
  /// thread. The tables share this partition's TxnManager, so a table
  /// flushed beside a sibling's flush transaction could not purge its
  /// flushed rows (the sibling holds back the oldest snapshot); the
  /// partition is the unit of parallelism. `best_effort` ignores
  /// flush/merge errors (the post-commit auto-maintain path).
  Status MaintainTables(const std::vector<UnifiedTable*>& tables,
                        bool best_effort);
  /// Stamps txn's versions in every table at a fresh commit timestamp and
  /// ends it; RollBack discards them and ends it. Both release its locks.
  void StampCommit(TxnId txn);
  void RollBack(TxnId txn);
  Result<UnifiedTable*> CreateTableInternal(const std::string& name,
                                            const TableOptions& options);

  PartitionOptions options_;
  std::unique_ptr<PartitionLog> log_;
  std::unique_ptr<DataFileStore> files_;
  TxnManager txns_;
  SnapshotStore snapshots_;

  mutable std::mutex tables_mu_;
  std::map<std::string, std::unique_ptr<UnifiedTable>> tables_;

  /// Held by the one committer running post-commit maintenance.
  std::atomic<bool> auto_maintaining_{false};

  mutable std::mutex upload_mu_;
  Lsn log_uploaded_ = 0;  // log bytes below this are in blob storage
};

}  // namespace s2

#endif  // S2_STORAGE_PARTITION_H_
