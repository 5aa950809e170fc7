#ifndef S2_CLUSTER_CLUSTER_H_
#define S2_CLUSTER_CLUSTER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blob/blob_store.h"
#include "cluster/replica.h"
#include "common/executor.h"
#include "common/profile.h"
#include "query/plan.h"
#include "storage/partition.h"
#include "storage/table_options.h"

namespace s2 {

struct ClusterOptions {
  std::string dir;
  /// Number of data partitions (the unit of distribution, Section 2).
  int num_partitions = 4;
  /// Simulated leaf nodes; partitions and their replicas spread over them.
  int num_nodes = 2;
  /// Synchronous HA replicas per partition (commit requires >= 1 ack when
  /// > 0).
  int ha_replicas = 1;
  BlobStore* blob = nullptr;
  /// Per-partition local data-file cache budget ("local disk" size).
  size_t cache_bytes = 256ull << 20;
  bool auto_maintain = true;
  bool background_uploads = false;
  /// Forwarded to every partition (CDW baseline).
  bool sync_blob_commit = false;
  /// Threads in the cluster's shared executor, used for query fan-out,
  /// parallel segment scans, per-partition maintenance and background
  /// uploads. A parallel loop counts its calling thread as one of them, so
  /// 1 runs every loop inline on the caller (uploads still run on the one
  /// pool thread). 0 = hardware concurrency.
  size_t num_exec_threads = 0;
  /// Filesystem for every partition's and replica's local state. Not
  /// owned; null = Env::Default().
  Env* env = nullptr;
};

/// An in-process simulated S2DB cluster: an aggregator (this object)
/// coordinating leaf nodes that each host master partitions and HA
/// replicas. Tables are hash-partitioned by a user-chosen shard key;
/// transactions route to partitions by shard key; commits replicate
/// synchronously to HA replicas; failovers promote replicas; read-only
/// workspaces replicate asynchronously for isolated analytics.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Status Start();

  /// Creates the table on every partition; rows route by `shard_key`
  /// (column indices). An empty shard key shards by the whole row.
  Status CreateTable(const std::string& name, const TableOptions& options,
                     std::vector<int> shard_key);

  int num_partitions() const { return options_.num_partitions; }

  /// Current master for a partition (changes after failover).
  Partition* partition(int id) { return masters_[id]; }

  /// Partition that owns a row of `table`.
  Result<int> PartitionForRow(const std::string& table, const Row& row) const;
  /// Partition for explicit shard-key values.
  int PartitionForKey(const Row& shard_values) const;

  // ----------------------------------------------------------------
  // Transactions
  // ----------------------------------------------------------------

  /// A (possibly multi-partition) transaction. Commit applies partition by
  /// partition — the paper does not describe distributed atomic commit and
  /// neither do we claim it; TPC-C shards by warehouse so the hot path is
  /// single-partition.
  class Txn {
   public:
    /// An unfinished transaction aborts when it is destroyed, so an early
    /// return releases its row locks and its snapshots.
    ~Txn() { Abort(); }
    Txn(Txn&& other) noexcept;
    Txn& operator=(Txn&& other) noexcept;
    Txn(const Txn&) = delete;
    Txn& operator=(const Txn&) = delete;

    /// Begins lazily on the partition when first used.
    TxnManager::TxnHandle On(int partition_id);
    UnifiedTable* table(int partition_id, const std::string& name);

    Status Commit();
    void Abort();

    /// Attaches a profile: Commit() opens one child span per partition
    /// under the collector's root, capturing log/lock wait counters from
    /// the layers below. Not owned; must outlive the transaction.
    void SetProfile(ProfileCollector* profile) { profile_ = profile; }

   private:
    friend class Cluster;
    explicit Txn(Cluster* cluster) : cluster_(cluster) {}
    Cluster* cluster_;
    std::map<int, TxnManager::TxnHandle> handles_;
    ProfileCollector* profile_ = nullptr;
    bool done_ = false;
  };

  Txn BeginTxn() { return Txn(this); }

  /// Routes and inserts rows in one autocommit transaction.
  Status InsertRows(const std::string& table, const std::vector<Row>& rows,
                    DupPolicy policy = DupPolicy::kError);

  /// Runs `factory()`-built plans on every partition (or the given
  /// workspace's replicas) and concatenates row results — the shared-
  /// nothing scatter phase; callers apply the gather/combine step. With a
  /// profile, each partition task records a child span under the
  /// collector's root (merged on gather into one tree).
  Result<std::vector<Row>> ScatterQuery(
      const std::function<PlanPtr()>& factory, int workspace_id = -1,
      ProfileCollector* profile = nullptr);

  // ----------------------------------------------------------------
  // High availability
  // ----------------------------------------------------------------

  /// Fault injection: the node stops acking and serving.
  void KillNode(int node_id);
  bool NodeAlive(int node_id) const;

  /// The master aggregator's failure detector: promotes an HA replica for
  /// every partition whose master node died, then re-provisions fresh
  /// replicas on surviving nodes. Returns promoted partition count.
  Result<int> RunFailureDetector();

  int MasterNode(int partition_id) const { return master_node_[partition_id]; }

  // ----------------------------------------------------------------
  // Separated storage & workspaces
  // ----------------------------------------------------------------

  /// Pushes data files, log chunks and a snapshot to blob storage.
  Status UploadAllToBlob();

  /// Provisions a read-only workspace: one async replica per partition,
  /// bootstrapped from blob storage and streaming the log tail. Returns a
  /// workspace id for ScatterQuery.
  Result<int> CreateWorkspace();

  /// Replica of `partition_id` inside the workspace (read-only queries).
  Partition* WorkspacePartition(int workspace_id, int partition_id);

  /// Max log bytes any master is ahead of the workspace (replication lag;
  /// 0 = every durable byte has been applied).
  uint64_t WorkspaceLagBytes(int workspace_id) const;

  /// Point-in-time restore of one partition from blob history into `dir`.
  Result<std::unique_ptr<Partition>> RestorePartitionToLsn(
      int partition_id, Lsn lsn, const std::string& dir);

  /// Flush/merge/vacuum every partition; partitions run in parallel on the
  /// cluster executor, each partition's tables one after another. With a
  /// profile, each partition's maintenance task records a child span
  /// (flush/merge spans nest under it).
  Status Maintain(ProfileCollector* profile = nullptr);

  /// Live replication state of every HA and workspace replica, for the
  /// system-table introspection layer.
  struct ReplicaState {
    int partition = 0;
    /// Hosting node for HA replicas; -1 for workspace replicas.
    int node = -1;
    /// Workspace id; -1 for HA replicas.
    int workspace = -1;
    Lsn master_durable_lsn = 0;
    Lsn applied_lsn = 0;
    uint64_t txns_applied = 0;
    bool down = false;
  };
  std::vector<ReplicaState> ReplicaStates() const;

  // ----------------------------------------------------------------
  // Health signals (watchdog rule sources; see common/monitor.h)
  // ----------------------------------------------------------------

  /// Max bytes any replication consumer trails its primary's durable LSN:
  /// HA replicas, workspace replicas, and — when a blob store is
  /// configured — the blob log-tail upload per partition (the paper's
  /// Section 3 log-chunk replication path). Feeds the replication_lag
  /// watchdog rule.
  uint64_t ReplicationLagBytes() const;

  /// Age (env clock) of the oldest data file still waiting for its blob
  /// upload, across all master partitions. Feeds the upload_queue_age
  /// watchdog rule.
  uint64_t MaxUploadQueueAgeNs() const;

  /// The cluster-wide executor (scatter queries, parallel scans,
  /// maintenance, uploads).
  Executor* executor() { return executor_.get(); }

 private:
  struct PartitionSite {
    std::unique_ptr<Partition> master;
    int master_node = 0;
    std::vector<std::unique_ptr<ReplicaPartition>> replicas;
    std::vector<int> replica_nodes;
    /// After a failover the promoted ReplicaPartition owns the new master
    /// Partition; it is kept alive here.
    std::unique_ptr<ReplicaPartition> promoted_holder;
  };

  struct WorkspaceState {
    std::vector<std::unique_ptr<ReplicaPartition>> replicas;  // per partition
  };

  std::string PartitionPrefix(int id) const {
    return "part" + std::to_string(id) + "/";
  }
  /// Options for partition_id's master rooted at `dir`: used at Start and
  /// for a replica promoted on failover, so both see the same executor,
  /// uploads, cache budget and maintenance settings.
  PartitionOptions MasterOptions(int partition_id, std::string dir) const;
  Status WireReplica(int partition_id, ReplicaPartition* replica);
  Status ProvisionReplica(int partition_id, int node_id);
  /// Points the current master's data-file hook at partition_id's HA
  /// replicas and workspace replicas.
  void WireFileHook(int partition_id);

  ClusterOptions options_;
  /// Declared before sites_ so it is destroyed after them: partition
  /// destructors may wait on tasks still queued on this executor.
  std::unique_ptr<Executor> executor_;
  std::vector<bool> node_alive_;
  std::vector<PartitionSite> sites_;
  std::vector<Partition*> masters_;   // resolved current masters
  std::vector<int> master_node_;
  std::map<std::string, std::vector<int>> shard_keys_;
  std::vector<WorkspaceState> workspaces_;
  mutable std::mutex mu_;
  int next_replica_dir_ = 0;
};

}  // namespace s2

#endif  // S2_CLUSTER_CLUSTER_H_
