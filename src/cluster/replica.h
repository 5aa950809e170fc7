#ifndef S2_CLUSTER_REPLICA_H_
#define S2_CLUSTER_REPLICA_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "blob/blob_store.h"
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
  /// True for HA replicas: OnPage returns true once the page is held in
  /// memory, which is what lets the master count it toward commit
  /// durability. False for read-only workspaces, which replicate
  /// asynchronously and "don't participate in acking commits" (paper
  /// Section 3.2).
  bool ack_commits = true;
};

/// A continuously-applied replica of one partition. Receives the master's
/// log pages (possibly out of order / duplicated on redelivery) and data
/// files, applies committed transactions incrementally, and can serve
/// snapshot reads at any time — a hot copy that "can pick up the query
/// workload immediately after a failover without needing any warm up".
///
/// Promotion writes the received log stream into this replica's own
/// directory so the promoted partition recovers exactly the replicated
/// prefix and then accepts new writes.
class ReplicaPartition : public ReplicationSink {
 public:
  explicit ReplicaPartition(ReplicaOptions options);
  ~ReplicaPartition() override;

  /// Initializes the replica's partition state. For workspaces, first
  /// bootstraps from blob storage (snapshot + uploaded log chunks), so only
  /// the log tail needs streaming from the master.
  Status Init();

  // ReplicationSink:
  bool OnPage(Lsn page_lsn, Slice page_bytes) override;

  /// Data-file replication hook (wired by the cluster).
  void OnDataFile(const std::string& name,
                  std::shared_ptr<const std::string> data);

  /// The queryable replica state. Reads only; writes are undefined.
  Partition* partition() { return partition_.get(); }

  /// Every byte below this log position has been applied.
  Lsn applied_lsn() const;

  /// How many transactions behind the master this replica has ever been at
  /// its worst (lag proxy used by the CH-benCHmark experiment).
  uint64_t txns_applied() const;

  /// Local directory of the replica's state.
  const std::string& dir() const { return options_.dir; }

  /// Converts the replica into a standalone master partition: persists the
  /// received stream as the partition log in dir() and re-opens it with
  /// `options`, whose dir must be dir(). Returns the promoted partition
  /// (this object keeps owning it); the caller must stop feeding pages
  /// first.
  Result<Partition*> Promote(PartitionOptions options);

  bool down = false;  // fault injection: drop pages & refuse acks

 private:
  void ApplyCompleteRecordsLocked();
  void AsyncApplyLoop();

  ReplicaOptions options_;
  std::unique_ptr<Partition> partition_;

  /// Workspaces apply asynchronously (a background thread drains the
  /// stream) so the master's commit path only pays for page buffering —
  /// "read-only workspaces ... replicate recently written data
  /// asynchronously from the primary".
  std::thread apply_thread_;
  std::condition_variable apply_cv_;
  bool shutdown_ = false;
  bool apply_pending_ = false;  // guarded by mu_

  mutable std::mutex mu_;
  std::string stream_;       // contiguous received log bytes
  Lsn stream_base_ = 0;      // log position of stream_[0]
  Lsn applied_ = 0;          // absolute position fully applied
  std::map<Lsn, std::string> out_of_order_;  // pages ahead of the stream
  Partition::PendingTxns pending_txns_;
  uint64_t txns_applied_ = 0;
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
