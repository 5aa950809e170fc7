#include "cluster/replica.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "common/coding.h"
#include "common/env.h"
#include "common/journal.h"
#include "common/metrics.h"
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
    : options_(std::move(options)),
      executor_(options_.executor != nullptr ? options_.executor
                                             : Executor::Default()),
      env_(options_.env != nullptr ? options_.env : Env::Default()),
      gate_(std::make_shared<ApplyGate>()) {}

ReplicaPartition::~ReplicaPartition() {
  // A queued task finds `stopped` and exits without touching this replica;
  // only a running batch is waited for.
  std::unique_lock<std::mutex> lock(gate_->mu);
  gate_->stopped = true;
  gate_->cv.wait(lock, [this] { return !gate_->running; });
}

Status ReplicaPartition::Init() {
  // A replica starts from an empty log (the master catches it up from LSN
  // 0) or from the log it bootstraps below. A log or snapshot that an
  // earlier run left in a reused dir would be replayed twice.
  const std::string log = options_.dir + "/log";
  if (env_->FileExists(log)) S2_RETURN_NOT_OK(env_->RemoveFile(log));
  const std::string snapshots = options_.dir + "/snapshots";
  if (env_->FileExists(snapshots)) {
    S2_RETURN_NOT_OK(env_->RemoveDirRecursive(snapshots));
  }
  if (!options_.ack_commits && options_.blob != nullptr) {
    // Workspace provisioning: bootstrap from blob storage so only the log
    // tail needs replication from the master (fast provisioning,
    // Section 3.1). dir()'s log then ends where the stream begins.
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
  return partition_->Init();
}

bool ReplicaPartition::OnPage(Lsn page_lsn, Slice page_bytes) {
  std::lock_guard<std::mutex> lock(gate_->mu);
  if (down || gate_->stopped) return false;
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
  ScheduleApplyLocked();
  return true;
}

void ReplicaPartition::ScheduleApplyLocked() {
  if (apply_scheduled_ || gate_->stopped || stream_.empty()) return;
  apply_scheduled_ = true;
  std::shared_ptr<ApplyGate> gate = gate_;
  if (!executor_->Submit([this, gate] {
        std::unique_lock<std::mutex> lock(gate->mu);
        // A stopped replica may be gone already: touch nothing of it.
        if (!gate->stopped) ApplyBatch(&lock);
      })) {
    apply_scheduled_ = false;
  }
}

void ReplicaPartition::ApplyBatch(std::unique_lock<std::mutex>* lock) {
  std::string batch;
  batch.swap(stream_);
  const Lsn batch_lsn = stream_base_;
  stream_base_ += batch.size();
  gate_->running = true;
  lock->unlock();
  ScopedTimer timer(nullptr);
  // Persist first: a failed append leaves the batch unapplied, and the
  // next batch retries it.
  Status persisted = env_->AppendToFile(options_.dir + "/log", batch,
                                        /*sync=*/false);
  size_t replayed = 0;
  uint64_t txns = 0;
  if (persisted.ok()) {
    replayed = ReplayBatch(std::move(batch), batch_lsn, &txns);
    S2_HISTOGRAM("s2_replica_apply_ns").Record(timer.ElapsedNs());
  }
  lock->lock();
  gate_->running = false;
  gate_->cv.notify_all();
  apply_scheduled_ = false;
  if (!persisted.ok()) {
    stream_.insert(0, batch);
    stream_base_ = batch_lsn;
    return;  // the next page reschedules the task
  }
  applied_ += replayed;
  txns_applied_ += txns;
  // One batch per task: bytes that arrived meanwhile go to a new task, so
  // other executor work interleaves under sustained writes.
  ScheduleApplyLocked();
}

size_t ReplicaPartition::ReplayBatch(std::string batch, Lsn batch_lsn,
                                     uint64_t* txns) {
  if (!replay_status_.ok()) return 0;
  const Lsn base = batch_lsn - unparsed_.size();
  std::string bytes =
      unparsed_.empty() ? std::move(batch) : std::move(unparsed_) + batch;
  std::set<std::string> changed;  // tables a committed flush or merge changed
  Result<size_t> parsed = PartitionLog::ParseStream(
      bytes, base, [&](Lsn, const LogRecord& rec) -> Status {
        // A flush or merge changes its table once its transaction commits,
        // which may be in a later batch than the record.
        std::vector<std::string> tables;
        auto txn = rec.type == LogRecordType::kCommit
                       ? pending_txns_.find(rec.txn_id)
                       : pending_txns_.end();
        if (txn != pending_txns_.end()) {
          for (const auto& [type, payload] : txn->second) {
            if (type != LogRecordType::kSegmentFlush &&
                type != LogRecordType::kSegmentMerge) {
              continue;
            }
            Slice in(payload);
            S2_ASSIGN_OR_RETURN(Slice table, GetLengthPrefixed(&in));
            tables.push_back(table.ToString());
          }
        }
        S2_ASSIGN_OR_RETURN(bool applied,
                            partition_->ReplayRecord(rec, &pending_txns_));
        if (applied) {
          ++*txns;
          changed.insert(tables.begin(), tables.end());
        }
        return Status::OK();
      });
  if (!parsed.ok()) {
    replay_status_ = parsed.status();
    unparsed_.clear();
    S2_JOURNAL("cluster", "replica_replay_failed",
               "dir=" + options_.dir + " " + replay_status_.ToString());
    return 0;
  }
  unparsed_ = bytes.substr(*parsed);
  // Vacuum at the replica's own horizon, as the master does after its
  // flushes and merges; replica readers hold registered snapshots.
  const Timestamp horizon = partition_->txns()->oldest_active();
  for (const std::string& name : changed) {
    auto table = partition_->GetTable(name);
    if (table.ok()) (*table)->Vacuum(horizon);
  }
  return *parsed;
}

void ReplicaPartition::OnDataFile(const std::string& name,
                                  std::shared_ptr<const std::string> data) {
  if (down || partition_ == nullptr) return;
  Status s = partition_->files()->Write(name, std::move(data));
  (void)s;  // AlreadyExists on redelivery is fine
}

Lsn ReplicaPartition::applied_lsn() const {
  std::lock_guard<std::mutex> lock(gate_->mu);
  return applied_;
}

uint64_t ReplicaPartition::txns_applied() const {
  std::lock_guard<std::mutex> lock(gate_->mu);
  return txns_applied_;
}

Result<Partition*> ReplicaPartition::Promote(PartitionOptions options) {
  {
    std::unique_lock<std::mutex> lock(gate_->mu);
    // A running batch persists its bytes before it lets go; a queued task
    // finds `stopped` and exits without touching the partition.
    gate_->stopped = true;
    gate_->cv.wait(lock, [this] { return !gate_->running; });
    // dir()'s log ends where stream_ begins: append the rest of what was
    // received, and the promoted master recovers the replicated prefix.
    if (!stream_.empty()) {
      S2_RETURN_NOT_OK(env_->AppendToFile(options_.dir + "/log", stream_,
                                          /*sync=*/false));
      stream_base_ += stream_.size();
      stream_.clear();
    }
  }
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
