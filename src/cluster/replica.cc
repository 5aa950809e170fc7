#include "cluster/replica.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/env.h"
#include "log/snapshot.h"

namespace s2 {

namespace {

/// Downloads the newest snapshot <= to_lsn and all contiguous log chunks
/// from blob storage into `dir`, ready for Partition::Init recovery.
/// Returns the end position of the materialized log.
Result<Lsn> BootstrapFromBlob(BlobStore* blob, const std::string& blob_prefix,
                              const std::string& dir, Lsn to_lsn, Env* env) {
  if (env == nullptr) env = Env::Default();
  S2_RETURN_NOT_OK(env->CreateDirs(dir));
  Lsn limit = to_lsn == 0 ? ~Lsn{0} : to_lsn;

  // Snapshots.
  S2_ASSIGN_OR_RETURN(std::vector<std::string> snap_keys,
                      blob->List(blob_prefix + "snap/"));
  Lsn best_snap = 0;
  std::string best_key;
  for (const std::string& key : snap_keys) {
    std::string name = key.substr(key.find_last_of('/') + 1);
    auto lsn = SnapshotStore::ParseFileName(name);
    if (lsn.ok() && *lsn <= limit && (*lsn >= best_snap)) {
      best_snap = *lsn;
      best_key = key;
    }
  }
  if (!best_key.empty()) {
    S2_ASSIGN_OR_RETURN(std::string payload, blob->Get(best_key));
    SnapshotStore snapshots(dir + "/snapshots", env);
    S2_RETURN_NOT_OK(snapshots.Write(best_snap, payload));
  }

  // Log chunks: keys log/<from>-<to>; concatenate the contiguous prefix.
  S2_ASSIGN_OR_RETURN(std::vector<std::string> log_keys,
                      blob->List(blob_prefix + "log/"));
  std::vector<std::pair<Lsn, std::pair<Lsn, std::string>>> chunks;
  for (const std::string& key : log_keys) {
    std::string name = key.substr(key.find_last_of('/') + 1);
    uint64_t from = 0, to = 0;
    if (sscanf(name.c_str(), "%020" SCNu64 "-%020" SCNu64, &from, &to) == 2) {
      chunks.push_back({from, {to, key}});
    }
  }
  std::sort(chunks.begin(), chunks.end());
  std::string log_bytes;
  Lsn end = 0;
  for (const auto& [from, rest] : chunks) {
    if (from != end) break;  // gap: stop at the contiguous prefix
    S2_ASSIGN_OR_RETURN(std::string chunk, blob->Get(rest.second));
    log_bytes.append(chunk);
    end = rest.first;
  }
  if (!log_bytes.empty()) {
    S2_RETURN_NOT_OK(env->WriteFileAtomic(dir + "/log", log_bytes));
  }
  return end;
}

}  // namespace

ReplicaPartition::ReplicaPartition(ReplicaOptions options)
    : options_(std::move(options)) {}

ReplicaPartition::~ReplicaPartition() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  apply_cv_.notify_all();
  if (apply_thread_.joinable()) apply_thread_.join();
}

void ReplicaPartition::AsyncApplyLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    apply_cv_.wait(lock, [this] { return shutdown_ || apply_pending_; });
    if (shutdown_) return;
    apply_pending_ = false;
    ApplyCompleteRecordsLocked();
  }
}

Status ReplicaPartition::Init() {
  if (!options_.ack_commits && options_.blob != nullptr) {
    // Workspace provisioning: bootstrap from blob storage so only the log
    // tail needs replication from the master (fast provisioning,
    // Section 3.1).
    S2_ASSIGN_OR_RETURN(Lsn end,
                        BootstrapFromBlob(options_.blob, options_.blob_prefix,
                                          options_.dir, /*to_lsn=*/0,
                                          options_.env));
    stream_base_ = end;
    applied_ = end;
  }
  PartitionOptions popts;
  popts.dir = options_.dir;
  popts.blob = options_.blob;
  popts.blob_prefix = options_.blob_prefix;
  popts.background_uploads = false;  // replicas never upload
  popts.auto_maintain = false;       // maintenance replicates from master
  popts.env = options_.env;
  partition_ = std::make_unique<Partition>(popts);
  S2_RETURN_NOT_OK(partition_->Init());
  if (!options_.ack_commits) {
    // Workspaces replicate asynchronously: apply on a background thread so
    // the master's commit path never waits for us.
    apply_thread_ = std::thread([this] { AsyncApplyLoop(); });
  }
  return Status::OK();
}

bool ReplicaPartition::OnPage(Lsn page_lsn, Slice page_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (down) return false;
  Lsn end = stream_base_ + stream_.size();
  if (page_lsn > end) {
    // Out-of-order delivery: hold until the gap fills ("log pages can be
    // replicated out-of-order").
    out_of_order_[page_lsn] = page_bytes.ToString();
    return true;  // held in memory: counts toward durability
  }
  if (page_lsn + page_bytes.size() > end) {
    // Append the new suffix (redeliveries may overlap).
    size_t skip = end - page_lsn;
    stream_.append(page_bytes.data() + skip, page_bytes.size() - skip);
  }
  // Drain any out-of-order pages that now connect.
  for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
    Lsn new_end = stream_base_ + stream_.size();
    if (it->first > new_end) break;
    if (it->first + it->second.size() > new_end) {
      size_t skip = new_end - it->first;
      stream_.append(it->second.data() + skip, it->second.size() - skip);
    }
    it = out_of_order_.erase(it);
  }
  if (options_.ack_commits) {
    // HA replicas apply inline: they must be hot for instant failover.
    ApplyCompleteRecordsLocked();
  } else {
    apply_pending_ = true;
    apply_cv_.notify_one();
  }
  return true;
}

void ReplicaPartition::ApplyCompleteRecordsLocked() {
  size_t offset = applied_ - stream_base_;
  Slice unapplied(stream_.data() + offset, stream_.size() - offset);
  size_t complete = PartitionLog::CompletePagePrefix(unapplied);
  if (complete == 0) return;
  Slice pages(unapplied.data(), complete);
  Status s = PartitionLog::ParseStream(
      pages, applied_, [&](Lsn, const LogRecord& rec) -> Status {
        S2_ASSIGN_OR_RETURN(bool applied,
                            partition_->ReplayRecord(rec, &pending_txns_));
        if (applied) ++txns_applied_;
        return Status::OK();
      });
  if (s.ok()) applied_ += complete;
}

void ReplicaPartition::OnDataFile(const std::string& name,
                                  std::shared_ptr<const std::string> data) {
  if (down || partition_ == nullptr) return;
  Status s = partition_->files()->Write(name, std::move(data));
  (void)s;  // AlreadyExists on redelivery is fine
}

Lsn ReplicaPartition::applied_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_;
}

uint64_t ReplicaPartition::txns_applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return txns_applied_;
}

Result<Partition*> ReplicaPartition::Promote(PartitionOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  // Persist the received stream as this partition's log: the promoted
  // master recovers the full replicated prefix, then accepts new writes.
  size_t complete = PartitionLog::CompletePagePrefix(
      Slice(stream_.data(), stream_.size()));
  Env* env = options_.env != nullptr ? options_.env : Env::Default();
  S2_RETURN_NOT_OK(env->AppendToFile(options_.dir + "/log",
                                     stream_.substr(0, complete),
                                     /*sync=*/false));
  partition_.reset();
  partition_ = std::make_unique<Partition>(std::move(options));
  S2_RETURN_NOT_OK(partition_->Init());
  return partition_.get();
}

Result<std::unique_ptr<Partition>> RestorePartitionFromBlob(
    BlobStore* blob, const std::string& blob_prefix, const std::string& dir,
    Lsn to_lsn, Env* env) {
  S2_RETURN_NOT_OK(
      BootstrapFromBlob(blob, blob_prefix, dir, to_lsn, env).status());
  PartitionOptions popts;
  popts.dir = dir;
  popts.blob = blob;
  popts.blob_prefix = blob_prefix;
  popts.background_uploads = false;
  popts.recover_to_lsn = to_lsn;
  popts.env = env;
  auto partition = std::make_unique<Partition>(popts);
  S2_RETURN_NOT_OK(partition->Init());
  return partition;
}

}  // namespace s2
