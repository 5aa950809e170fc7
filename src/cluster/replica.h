#ifndef S2_CLUSTER_REPLICA_H_
#define S2_CLUSTER_REPLICA_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blob/blob_store.h"
#include "common/executor.h"
#include "log/partition_log.h"
#include "storage/partition.h"

namespace s2 {

struct ReplicaOptions {
  std::string dir;
  BlobStore* blob = nullptr;
  std::string blob_prefix;  // master partition's blob prefix
  /// Filesystem for the replica's local state. Not owned; null =
  /// Env::Default().
  Env* env = nullptr;
  /// True for HA replicas: the master counts their OnPage (true once the
  /// page is held in memory) toward commit durability. False for read-only
  /// workspaces, which replicate asynchronously and "don't participate in
  /// acking commits" (paper Section 3.2): their acks() is false.
  /// Workspaces also bootstrap from blob storage.
  bool ack_commits = true;
  /// Executor that runs the apply tasks. Not owned; must outlive the
  /// replica. Null = Executor::Default().
  Executor* executor = nullptr;
};

/// A continuously-applied replica of one partition: an HA replica or one
/// partition of a read-only workspace, which apply the same way.
///
/// OnPage, called on the master's commit path, only appends the page to
/// the in-memory stream and schedules an apply task on the executor, so a
/// commit costs the master a buffer append ("commit needs its log page held
/// in memory on a replica", paper Section 3). At most one apply task exists
/// at a time. It takes the received bytes as one batch, appends them to the
/// replica's own log in dir() (in the master's format), then replays their
/// whole pages into the partition without holding the receive lock, and
/// vacuums the tables whose committed flush or merge it replayed. Bytes
/// that arrived meanwhile go to a new task. Only the bytes no task has
/// taken yet stay in memory. The partition serves snapshot reads at the
/// applied position, a hot copy that "can pick up the query workload
/// immediately after a failover without needing any warm up".
///
/// Init starts dir()'s log afresh (empty, or bootstrapped for a
/// workspace), so a dir reused from an earlier run is not replayed twice.
///
/// Promotion appends the not yet persisted tail to dir()'s log and re-opens
/// it, so the promoted partition recovers exactly the replicated prefix and
/// then accepts new writes.
class ReplicaPartition : public ReplicationSink {
 public:
  explicit ReplicaPartition(ReplicaOptions options);
  /// Waits for a running apply batch; a queued task exits untouched.
  ~ReplicaPartition() override;

  /// Initializes the replica's partition state. For workspaces, first
  /// bootstraps from blob storage (snapshot + uploaded log chunks), so only
  /// the log tail needs streaming from the master.
  Status Init();

  // ReplicationSink:
  bool OnPage(Lsn page_lsn, Slice page_bytes) override;
  bool acks() const override { return options_.ack_commits; }

  /// Data-file replication hook (wired by the cluster).
  void OnDataFile(const std::string& name,
                  std::shared_ptr<const std::string> data);

  /// The queryable replica state. Reads only; writes are undefined.
  Partition* partition() { return partition_.get(); }

  /// Every byte below this log position has been applied.
  Lsn applied_lsn() const;

  /// Transactions this replica has applied from the stream.
  uint64_t txns_applied() const;

  /// Local directory of the replica's state.
  const std::string& dir() const { return options_.dir; }

  /// Converts the replica into a standalone master partition: stops
  /// applying, appends the received bytes not yet in dir()'s log, and
  /// re-opens the partition from that log with `options`, whose dir must be
  /// dir(). Waits for an apply batch that is running, never for a task
  /// still queued. Returns the promoted partition (this object keeps owning
  /// it); pages offered afterwards are refused.
  Result<Partition*> Promote(PartitionOptions options);

  /// Fault injection: the replica's node is dead, so it drops pages and
  /// data files and refuses acks. Set under the cluster's lock and read by
  /// the master's log delivery and data-file hook.
  std::atomic<bool> down{false};

 private:
  /// What an apply task holds instead of the replica: a queued task that
  /// finds `stopped` exits without touching the replica, so neither Promote
  /// nor the destructor waits for a task still in the queue.
  struct ApplyGate {
    std::mutex mu;  // also guards the replica's receive state below
    std::condition_variable cv;  // signalled when `running` clears
    bool stopped = false;        // promoted or being destroyed
    bool running = false;        // a task holds a batch outside stream_
  };

  /// Submits the apply task unless one is queued or running, the stream
  /// is empty, or the replica stopped. Requires gate_->mu.
  void ScheduleApplyLocked();
  /// The apply task's body, entered and left with gate_->mu held through
  /// `lock`: persists and replays the stream as one batch, then schedules
  /// the next task for bytes that arrived meanwhile.
  void ApplyBatch(std::unique_lock<std::mutex>* lock);
  /// Replays the whole pages of unparsed_ + `batch` (bytes already in
  /// dir()'s log, starting at stream position `batch_lsn`) and vacuums the
  /// tables a committed flush or merge changed. Runs on the apply task
  /// without gate_->mu. Returns the bytes replayed and adds the applied
  /// transactions to `txns`.
  size_t ReplayBatch(std::string batch, Lsn batch_lsn, uint64_t* txns);

  ReplicaOptions options_;
  Executor* executor_;
  Env* env_;
  std::unique_ptr<Partition> partition_;

  std::shared_ptr<ApplyGate> gate_;
  // Guarded by gate_->mu.
  std::string stream_;       // received bytes not yet in dir()'s log
  Lsn stream_base_ = 0;      // log position of stream_[0]
  Lsn applied_ = 0;          // absolute position fully applied
  std::map<Lsn, std::string> out_of_order_;  // pages ahead of the stream
  uint64_t txns_applied_ = 0;
  bool apply_scheduled_ = false;  // an apply task is queued or running

  // Owned by the apply task (one runs at a time).
  std::string unparsed_;  // in dir()'s log, an incomplete trailing page
  Partition::PendingTxns pending_txns_;
  /// First replay error. Replay stops there (the records before it were
  /// applied, so a retry would apply them twice); later batches are still
  /// persisted, so promotion recovers them from dir()'s log.
  Status replay_status_;
};

/// Point-in-time restore from blob storage: builds a fresh partition in
/// `dir` from the newest blob snapshot at or below `to_lsn` plus uploaded
/// log chunks up to `to_lsn` (0 = everything available). This is the PITR
/// path: no explicit backups, just the blob history (paper Section 3.2).
Result<std::unique_ptr<Partition>> RestorePartitionFromBlob(
    BlobStore* blob, const std::string& blob_prefix, const std::string& dir,
    Lsn to_lsn, Env* env = nullptr);

}  // namespace s2

#endif  // S2_CLUSTER_REPLICA_H_
