#include "cluster/cluster.h"

#include <utility>

#include "common/env.h"
#include "common/hash.h"
#include "common/journal.h"

namespace s2 {

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  if (options_.num_nodes < 1) options_.num_nodes = 1;
  if (options_.num_partitions < 1) options_.num_partitions = 1;
  executor_ = std::make_unique<Executor>(options_.num_exec_threads);
}

Cluster::~Cluster() = default;

Status Cluster::Start() {
  node_alive_.assign(options_.num_nodes, true);
  sites_.resize(options_.num_partitions);
  masters_.resize(options_.num_partitions);
  master_node_.resize(options_.num_partitions);
  for (int p = 0; p < options_.num_partitions; ++p) {
    PartitionSite& site = sites_[p];
    site.master_node = p % options_.num_nodes;
    site.master = std::make_unique<Partition>(
        MasterOptions(p, options_.dir + "/part" + std::to_string(p)));
    S2_RETURN_NOT_OK(site.master->Init());
    masters_[p] = site.master.get();
    master_node_[p] = site.master_node;
    WireFileHook(p);

    for (int r = 0; r < options_.ha_replicas; ++r) {
      int node = (p + 1 + r) % options_.num_nodes;
      S2_RETURN_NOT_OK(ProvisionReplica(p, node));
    }
  }
  // A reopened cluster routes its recovered tables as before: each table's
  // shard key rides in its options (DDL record and snapshots), and every
  // partition holds every cluster table.
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& name : masters_[0]->TableNames()) {
    S2_ASSIGN_OR_RETURN(UnifiedTable * table, masters_[0]->GetTable(name));
    shard_keys_[name] = table->options().shard_key;
  }
  return Status::OK();
}

PartitionOptions Cluster::MasterOptions(int p, std::string dir) const {
  PartitionOptions popts;
  popts.dir = std::move(dir);
  popts.blob = options_.blob;
  popts.blob_prefix = PartitionPrefix(p);
  popts.cache_bytes = options_.cache_bytes;
  popts.auto_maintain = options_.auto_maintain;
  popts.background_uploads = options_.background_uploads;
  popts.sync_blob_commit = options_.sync_blob_commit;
  popts.executor = executor_.get();
  popts.env = options_.env;
  return popts;
}

void Cluster::WireFileHook(int p) {
  // Multicast the master's data files to every attached replica (HA and
  // workspaces); the receiver list is read under mu_ at each write.
  masters_[p]->files()->SetFileHook(
      [this, p](const std::string& name,
                std::shared_ptr<const std::string> data) {
        std::vector<ReplicaPartition*> receivers;
        {
          std::lock_guard<std::mutex> lock(mu_);
          for (auto& replica : sites_[p].replicas) {
            receivers.push_back(replica.get());
          }
          for (auto& ws : workspaces_) {
            receivers.push_back(ws.replicas[p].get());
          }
        }
        for (ReplicaPartition* r : receivers) r->OnDataFile(name, data);
      });
}

Status Cluster::ProvisionReplica(int partition_id, int node_id) {
  ReplicaOptions ropts;
  ropts.dir = options_.dir + "/replica" + std::to_string(next_replica_dir_++);
  ropts.blob = options_.blob;
  ropts.blob_prefix = PartitionPrefix(partition_id);
  ropts.ack_commits = true;
  ropts.env = options_.env;
  ropts.executor = executor_.get();
  auto replica = std::make_unique<ReplicaPartition>(ropts);
  S2_RETURN_NOT_OK(replica->Init());
  S2_RETURN_NOT_OK(WireReplica(partition_id, replica.get()));
  S2_JOURNAL("cluster", "replica_attach",
             "partition=" + std::to_string(partition_id) +
                 " node=" + std::to_string(node_id) + " dir=" + ropts.dir);
  std::lock_guard<std::mutex> lock(mu_);
  sites_[partition_id].replicas.push_back(std::move(replica));
  sites_[partition_id].replica_nodes.push_back(node_id);
  return Status::OK();
}

Status Cluster::WireReplica(int partition_id, ReplicaPartition* replica) {
  return masters_[partition_id]->log()->AddSink(replica);
}

Status Cluster::CreateTable(const std::string& name,
                            const TableOptions& options,
                            std::vector<int> shard_key) {
  TableOptions sharded = options;
  sharded.shard_key = shard_key;
  for (int p = 0; p < options_.num_partitions; ++p) {
    S2_RETURN_NOT_OK(masters_[p]->CreateTable(name, sharded).status());
  }
  std::lock_guard<std::mutex> lock(mu_);
  shard_keys_[name] = std::move(shard_key);
  return Status::OK();
}

Result<int> Cluster::PartitionForRow(const std::string& table,
                                     const Row& row) const {
  std::vector<int> shard_key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shard_keys_.find(table);
    if (it == shard_keys_.end()) {
      return Status::NotFound("no sharded table " + table);
    }
    shard_key = it->second;
  }
  Row values;
  if (shard_key.empty()) {
    values = row;
  } else {
    for (int c : shard_key) values.push_back(row[c]);
  }
  return PartitionForKey(values);
}

int Cluster::PartitionForKey(const Row& shard_values) const {
  uint64_t h = Hash64(EncodeKey(shard_values));
  return static_cast<int>(h % static_cast<uint64_t>(options_.num_partitions));
}

// --- Txn ---

Cluster::Txn::Txn(Txn&& other) noexcept
    : cluster_(other.cluster_),
      handles_(std::move(other.handles_)),
      profile_(other.profile_),
      done_(std::exchange(other.done_, true)) {}

Cluster::Txn& Cluster::Txn::operator=(Txn&& other) noexcept {
  if (this != &other) {
    Abort();
    cluster_ = other.cluster_;
    handles_ = std::move(other.handles_);
    profile_ = other.profile_;
    done_ = std::exchange(other.done_, true);
  }
  return *this;
}

TxnManager::TxnHandle Cluster::Txn::On(int partition_id) {
  auto it = handles_.find(partition_id);
  if (it != handles_.end()) return it->second;
  TxnManager::TxnHandle h = cluster_->partition(partition_id)->Begin();
  handles_[partition_id] = h;
  return h;
}

UnifiedTable* Cluster::Txn::table(int partition_id, const std::string& name) {
  auto t = cluster_->partition(partition_id)->GetTable(name);
  return t.ok() ? *t : nullptr;
}

Status Cluster::Txn::Commit() {
  if (done_) return Status::OK();
  done_ = true;
  Status first_error;
  for (auto& [pid, handle] : handles_) {
    ProfileScope scope(profile_,
                       profile_ != nullptr ? profile_->root() : nullptr);
    ProfileSpan span("commit.partition");
    if (span.active()) span.SetDetail("p=" + std::to_string(pid));
    Status s = cluster_->partition(pid)->Commit(handle.id);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

void Cluster::Txn::Abort() {
  if (done_) return;
  done_ = true;
  for (auto& [pid, handle] : handles_) {
    cluster_->partition(pid)->Abort(handle.id);
  }
}

Status Cluster::InsertRows(const std::string& table,
                           const std::vector<Row>& rows, DupPolicy policy) {
  // Group rows by target partition.
  std::map<int, std::vector<Row>> routed;
  for (const Row& row : rows) {
    S2_ASSIGN_OR_RETURN(int pid, PartitionForRow(table, row));
    routed[pid].push_back(row);
  }
  Txn txn = BeginTxn();
  for (auto& [pid, partition_rows] : routed) {
    TxnManager::TxnHandle h = txn.On(pid);
    UnifiedTable* t = txn.table(pid, table);
    if (t == nullptr) {
      txn.Abort();
      return Status::NotFound("no table " + table);
    }
    auto r = t->InsertRows(h.id, h.read_ts, partition_rows, policy);
    if (!r.ok()) {
      txn.Abort();
      return r.status();
    }
  }
  return txn.Commit();
}

Result<std::vector<Row>> Cluster::ScatterQuery(
    const std::function<PlanPtr()>& factory, int workspace_id,
    ProfileCollector* profile) {
  const int n = options_.num_partitions;
  // Resolve targets and instantiate per-partition plans up front, on the
  // caller's thread: the factory is caller-supplied and need not be
  // thread-safe.
  std::vector<Partition*> targets(static_cast<size_t>(n));
  std::vector<PlanPtr> plans(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) {
    targets[p] = workspace_id < 0 ? masters_[p]
                                  : WorkspacePartition(workspace_id, p);
    if (targets[p] == nullptr) {
      return Status::NotFound("no such workspace partition");
    }
    plans[p] = factory();
  }

  // Scatter: each partition's plan runs as an executor task; the cancel
  // token tears down in-flight siblings as soon as one partition fails.
  std::vector<std::vector<Row>> results(static_cast<size_t>(n));
  CancelToken cancel;
  auto run_one = [&](size_t p) -> Status {
    // Each partition task attaches to the profile root and opens its own
    // child span; nested scan/segment spans land under it, and the gather
    // step below observes one merged tree.
    ProfileScope scope(profile,
                       profile != nullptr ? profile->root() : nullptr);
    ProfileSpan part_span("partition");
    if (part_span.active()) part_span.SetDetail("p=" + std::to_string(p));
    Partition* partition = targets[p];
    QueryContext ctx;
    ctx.partition = partition;
    TxnManager::TxnHandle h = partition->Begin();
    ctx.txn = h.id;
    ctx.read_ts = h.read_ts;
    ctx.scan_options.executor = executor_.get();
    ctx.scan_options.cancel = &cancel;
    auto rows = RunPlan(plans[p].get(), &ctx);
    partition->EndRead(h.id);
    S2_RETURN_NOT_OK(rows.status());
    results[p] = std::move(*rows);
    part_span.Count("rows", static_cast<int64_t>(results[p].size()));
    return Status::OK();
  };
  S2_RETURN_NOT_OK(
      executor_->ParallelFor(static_cast<size_t>(n), run_one, &cancel));

  // Gather: concatenate in partition order so results are deterministic
  // and identical at every executor size.
  size_t total = 0;
  for (const auto& rows : results) total += rows.size();
  std::vector<Row> out;
  out.reserve(total);
  for (auto& rows : results) {
    for (Row& row : rows) out.push_back(std::move(row));
  }
  return out;
}

// --- High availability ---

void Cluster::KillNode(int node_id) {
  S2_JOURNAL("cluster", "node_killed", "node=" + std::to_string(node_id));
  std::lock_guard<std::mutex> lock(mu_);
  node_alive_[node_id] = false;
  // Replicas hosted on the dead node stop acking.
  for (PartitionSite& site : sites_) {
    for (size_t r = 0; r < site.replicas.size(); ++r) {
      if (site.replica_nodes[r] == node_id) site.replicas[r]->down = true;
    }
  }
}

bool Cluster::NodeAlive(int node_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return node_alive_[node_id];
}

Result<int> Cluster::RunFailureDetector() {
  int promoted = 0;
  for (int p = 0; p < options_.num_partitions; ++p) {
    bool master_dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      master_dead = !node_alive_[master_node_[p]];
    }
    if (!master_dead) continue;
    // Promote the first replica on a live node.
    std::unique_ptr<ReplicaPartition> chosen;
    int chosen_node = -1;
    // Destroyed after mu_ is released: a replica's destructor waits for
    // its running apply batch.
    std::vector<std::unique_ptr<ReplicaPartition>> stale;
    {
      std::lock_guard<std::mutex> lock(mu_);
      PartitionSite& site = sites_[p];
      for (size_t r = 0; r < site.replicas.size(); ++r) {
        if (node_alive_[site.replica_nodes[r]]) {
          chosen = std::move(site.replicas[r]);
          chosen_node = site.replica_nodes[r];
          site.replicas.erase(site.replicas.begin() + static_cast<long>(r));
          site.replica_nodes.erase(site.replica_nodes.begin() +
                                   static_cast<long>(r));
          break;
        }
      }
      // Remaining replicas of this partition are stale relative to the new
      // master's log; drop them (auto-healing re-provisions below).
      stale.swap(site.replicas);
      site.replica_nodes.clear();
    }
    if (chosen == nullptr) {
      return Status::Unavailable(
          "partition lost: no replica on a live node (all copies gone)");
    }
    S2_ASSIGN_OR_RETURN(Partition * new_master,
                        chosen->Promote(MasterOptions(p, chosen->dir())));
    S2_JOURNAL("cluster", "replica_promoted",
               "partition=" + std::to_string(p) +
                   " node=" + std::to_string(chosen_node));
    {
      std::lock_guard<std::mutex> lock(mu_);
      PartitionSite& site = sites_[p];
      site.master.reset();  // old master's process is gone
      site.promoted_holder = std::move(chosen);
      masters_[p] = new_master;
      master_node_[p] = chosen_node;
    }
    // Re-wire the file hook to the new master, point the workspaces at its
    // log and heal replication. AddSink catches a workspace up from LSN 0;
    // its replica skips the bytes it already has.
    WireFileHook(p);
    std::vector<ReplicaPartition*> workspace_replicas;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& ws : workspaces_) {
        workspace_replicas.push_back(ws.replicas[p].get());
      }
    }
    for (ReplicaPartition* replica : workspace_replicas) {
      S2_RETURN_NOT_OK(WireReplica(p, replica));
    }
    for (int r = 0; r < options_.ha_replicas; ++r) {
      int node = -1;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (int candidate = 0; candidate < options_.num_nodes; ++candidate) {
          int n = (chosen_node + 1 + r + candidate) % options_.num_nodes;
          if (node_alive_[n] && n != chosen_node) {
            node = n;
            break;
          }
        }
      }
      if (node >= 0) S2_RETURN_NOT_OK(ProvisionReplica(p, node));
    }
    ++promoted;
  }
  return promoted;
}

// --- Separated storage & workspaces ---

Status Cluster::UploadAllToBlob() {
  for (int p = 0; p < options_.num_partitions; ++p) {
    S2_RETURN_NOT_OK(masters_[p]->WriteSnapshot());
  }
  return Status::OK();
}

Result<int> Cluster::CreateWorkspace() {
  WorkspaceState ws;
  for (int p = 0; p < options_.num_partitions; ++p) {
    ReplicaOptions ropts;
    ropts.dir =
        options_.dir + "/workspace" + std::to_string(next_replica_dir_++);
    ropts.blob = options_.blob;
    ropts.blob_prefix = PartitionPrefix(p);
    ropts.ack_commits = false;  // workspaces never gate commits
    ropts.env = options_.env;
    ropts.executor = executor_.get();
    auto replica = std::make_unique<ReplicaPartition>(ropts);
    S2_RETURN_NOT_OK(replica->Init());
    // With a blob store the replica bootstrapped its data files from blob;
    // without one ("no blob store" configurations), seed them from the
    // master's local store before streaming the log.
    if (options_.blob == nullptr) {
      ReplicaPartition* raw = replica.get();
      masters_[p]->files()->ForEachFile(
          [raw](const std::string& name,
                std::shared_ptr<const std::string> data) {
            raw->OnDataFile(name, std::move(data));
          });
    }
    S2_RETURN_NOT_OK(WireReplica(p, replica.get()));
    ws.replicas.push_back(std::move(replica));
  }
  int workspace_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    workspaces_.push_back(std::move(ws));
    workspace_id = static_cast<int>(workspaces_.size() - 1);
  }
  S2_JOURNAL("cluster", "workspace_create",
             "workspace=" + std::to_string(workspace_id) +
                 " partitions=" + std::to_string(options_.num_partitions));
  return workspace_id;
}

Partition* Cluster::WorkspacePartition(int workspace_id, int partition_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (workspace_id < 0 ||
      workspace_id >= static_cast<int>(workspaces_.size())) {
    return nullptr;
  }
  return workspaces_[workspace_id].replicas[partition_id]->partition();
}

uint64_t Cluster::WorkspaceLagBytes(int workspace_id) const {
  uint64_t max_lag = 0;
  for (int p = 0; p < options_.num_partitions; ++p) {
    Lsn durable;
    Lsn applied;
    {
      std::lock_guard<std::mutex> lock(mu_);
      durable = masters_[p]->log()->durable_lsn();
      applied = workspaces_[workspace_id].replicas[p]->applied_lsn();
    }
    if (durable > applied) max_lag = std::max(max_lag, durable - applied);
  }
  return max_lag;
}

Result<std::unique_ptr<Partition>> Cluster::RestorePartitionToLsn(
    int partition_id, Lsn lsn, const std::string& dir) {
  if (options_.blob == nullptr) {
    return Status::InvalidArgument("PITR requires a blob store");
  }
  return RestorePartitionFromBlob(options_.blob,
                                  PartitionPrefix(partition_id), dir, lsn,
                                  options_.env);
}

Status Cluster::Maintain(ProfileCollector* profile) {
  const int n = options_.num_partitions;
  auto run_one = [&](size_t p) -> Status {
    ProfileScope scope(profile,
                       profile != nullptr ? profile->root() : nullptr);
    ProfileSpan span("maintain.partition");
    if (span.active()) span.SetDetail("p=" + std::to_string(p));
    return masters_[p]->Maintain();
  };
  return executor_->ParallelFor(static_cast<size_t>(n), run_one);
}

std::vector<Cluster::ReplicaState> Cluster::ReplicaStates() const {
  std::vector<ReplicaState> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (int p = 0; p < options_.num_partitions; ++p) {
    Lsn durable = masters_[p]->log()->durable_lsn();
    const PartitionSite& site = sites_[p];
    for (size_t r = 0; r < site.replicas.size(); ++r) {
      ReplicaState rs;
      rs.partition = p;
      rs.node = site.replica_nodes[r];
      rs.master_durable_lsn = durable;
      rs.applied_lsn = site.replicas[r]->applied_lsn();
      rs.txns_applied = site.replicas[r]->txns_applied();
      rs.down = site.replicas[r]->down;
      out.push_back(rs);
    }
    for (size_t w = 0; w < workspaces_.size(); ++w) {
      const ReplicaPartition* replica = workspaces_[w].replicas[p].get();
      ReplicaState rs;
      rs.partition = p;
      rs.workspace = static_cast<int>(w);
      rs.master_durable_lsn = durable;
      rs.applied_lsn = replica->applied_lsn();
      rs.txns_applied = replica->txns_applied();
      rs.down = replica->down;
      out.push_back(rs);
    }
  }
  return out;
}

uint64_t Cluster::ReplicationLagBytes() const {
  uint64_t max_lag = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (int p = 0; p < options_.num_partitions; ++p) {
    Lsn durable = masters_[p]->log()->durable_lsn();
    const PartitionSite& site = sites_[p];
    for (const auto& replica : site.replicas) {
      Lsn applied = replica->applied_lsn();
      if (durable > applied) max_lag = std::max(max_lag, durable - applied);
    }
    for (const auto& ws : workspaces_) {
      Lsn applied = ws.replicas[p]->applied_lsn();
      if (durable > applied) max_lag = std::max(max_lag, durable - applied);
    }
    if (options_.blob != nullptr) {
      // The blob log-tail is itself a replication consumer: workspaces and
      // PITR read the log from blob storage, so un-uploaded bytes are lag.
      Lsn uploaded = masters_[p]->LogUploadedLsn();
      if (durable > uploaded) {
        max_lag = std::max(max_lag, durable - uploaded);
      }
    }
  }
  return max_lag;
}

uint64_t Cluster::MaxUploadQueueAgeNs() const {
  uint64_t max_age = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (int p = 0; p < options_.num_partitions; ++p) {
    max_age = std::max(max_age, masters_[p]->files()->OldestPendingUploadAgeNs());
  }
  return max_age;
}

}  // namespace s2
