#include "storage/partition.h"

#include <cinttypes>
#include <cstdio>

#include "common/coding.h"
#include "common/env.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "common/profile.h"

namespace s2 {

Partition::Partition(PartitionOptions options)
    : options_(std::move(options)),
      snapshots_(options_.dir + "/snapshots", options_.env) {}

Partition::~Partition() = default;

Status Partition::Init() {
  Env* env = options_.env != nullptr ? options_.env : Env::Default();
  S2_RETURN_NOT_OK(env->CreateDirs(options_.dir));
  LogOptions log_options;
  log_options.dir = options_.dir;
  log_options.page_size = options_.log_page_size;
  log_options.sync_to_disk = options_.sync_to_disk;
  log_options.env = options_.env;
  S2_ASSIGN_OR_RETURN(log_, PartitionLog::Open(log_options));

  DataFileStoreOptions file_options;
  file_options.blob_prefix = options_.blob_prefix + "files/";
  file_options.local_dir = options_.dir + "/files";
  file_options.local_cache_bytes = options_.cache_bytes;
  file_options.background_uploads = options_.background_uploads;
  file_options.executor = options_.executor;
  file_options.env = options_.env;
  files_ = std::make_unique<DataFileStore>(options_.blob, file_options);

  return Recover();
}

Result<UnifiedTable*> Partition::CreateTableInternal(
    const std::string& name, const TableOptions& options) {
  std::lock_guard<std::mutex> lock(tables_mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  auto table = std::make_unique<UnifiedTable>(name, options, log_.get(),
                                              files_.get(), &txns_);
  UnifiedTable* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Result<UnifiedTable*> Partition::CreateTable(const std::string& name,
                                             const TableOptions& options) {
  S2_ASSIGN_OR_RETURN(UnifiedTable * table,
                      CreateTableInternal(name, options));
  TxnManager::TxnHandle h = txns_.Begin();
  LogRecord rec;
  rec.txn_id = h.id;
  rec.type = LogRecordType::kDdl;
  PutLengthPrefixed(&rec.payload, name);
  options.EncodeTo(&rec.payload);
  log_->Append(rec);
  Status cs = log_->Commit(h.id);
  txns_.EndRead(h.id);
  if (!cs.ok()) return cs;
  return table;
}

Result<UnifiedTable*> Partition::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table " + name);
  return it->second.get();
}

std::vector<std::string> Partition::TableNames() const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  std::vector<std::string> names;
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

TxnManager::TxnHandle Partition::Begin() { return txns_.Begin(); }

Status Partition::Commit(TxnId txn) {
  // Times the commit up to the visibility point (FinishCommit); the
  // best-effort auto-maintenance below is not commit latency, and failed
  // commits are not latency samples.
  ScopedTimer commit_timer(nullptr);
  // Durability before visibility: the commit record must be replicated
  // (acked) before any version becomes visible. On failure the caller can
  // retry Commit or Abort; nothing is visible yet.
  {
    ScopedTimer log_timer(nullptr);
    Status s = log_->Commit(txn);
    ProfileCollector::CountHere("log_commit_wait_ns",
                                static_cast<int64_t>(log_timer.ElapsedNs()));
    S2_RETURN_NOT_OK(s);
  }
  if (options_.sync_blob_commit && options_.blob != nullptr) {
    // CDW baseline: pay the blob round-trip on the commit path.
    S2_RETURN_NOT_OK(UploadToBlob());
  }
  {
    ProfileSpan stamp_span("commit.stamp");
    S2_SCOPED_TIMER("s2_txn_stamp_ns");
    StampCommit(txn);
  }
  S2_HISTOGRAM("s2_txn_commit_ns").Record(commit_timer.ElapsedNs());
  ProfileCollector::CountHere("commit_wait_ns",
                              static_cast<int64_t>(commit_timer.ElapsedNs()));
  // One committer at a time maintains. The others return at once: queued
  // behind its flush, they would find level 0 already flushed or flush
  // only the few rows committed meanwhile.
  if (options_.auto_maintain &&
      !auto_maintaining_.exchange(true, std::memory_order_acquire)) {
    std::vector<UnifiedTable*> to_flush;
    {
      std::lock_guard<std::mutex> lock(tables_mu_);
      for (auto& [name, table] : tables_) {
        if (table->NeedsFlush()) to_flush.push_back(table.get());
      }
    }
    (void)MaintainTables(to_flush, /*best_effort=*/true);
    auto_maintaining_.store(false, std::memory_order_release);
  }
  return Status::OK();
}

void Partition::StampCommit(TxnId txn) {
  Timestamp cts = txns_.PrepareCommit(txn);
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (auto& [name, table] : tables_) table->StampCommit(txn, cts);
  }
  txns_.FinishCommit(txn, cts);
}

void Partition::Abort(TxnId txn) {
  log_->Abort(txn);
  RollBack(txn);
}

void Partition::RollBack(TxnId txn) {
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (auto& [name, table] : tables_) table->AbortTxn(txn);
  }
  txns_.Abort(txn);
}

void Partition::EndRead(TxnId txn) { txns_.EndRead(txn); }

Status Partition::Maintain() {
  std::vector<UnifiedTable*> tables;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (auto& [name, table] : tables_) tables.push_back(table.get());
  }
  S2_RETURN_NOT_OK(MaintainTables(tables, /*best_effort=*/false));
  if (options_.blob != nullptr) return UploadToBlob();
  return Status::OK();
}

Status Partition::MaintainTables(const std::vector<UnifiedTable*>& tables,
                                 bool best_effort) {
  for (UnifiedTable* table : tables) {
    if (best_effort) {
      (void)table->FlushRowstore();
      (void)table->MaybeMergeRuns();
    } else {
      S2_RETURN_NOT_OK(table->FlushRowstore().status());
      S2_RETURN_NOT_OK(table->MaybeMergeRuns().status());
    }
    table->Vacuum(txns_.oldest_active());
  }
  return Status::OK();
}

Status Partition::WriteSnapshot() {
  std::string payload;
  Lsn lsn;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    lsn = log_->durable_lsn();
    PutVarint64(&payload, tables_.size());
    for (const auto& [name, table] : tables_) {
      PutLengthPrefixed(&payload, name);
      std::string state;
      table->SerializeState(&state);
      PutLengthPrefixed(&payload, state);
    }
  }
  S2_RETURN_NOT_OK(snapshots_.Write(lsn, payload));
  S2_JOURNAL("storage", "snapshot",
             "dir=" + options_.dir + " lsn=" + std::to_string(lsn) +
                 " bytes=" + std::to_string(payload.size()));
  if (options_.blob != nullptr) {
    // Snapshots go straight to blob storage (paper Section 3.1: replicas
    // fetch them from there instead of taking their own).
    S2_RETURN_NOT_OK(options_.blob->Put(
        options_.blob_prefix + "snap/" + SnapshotStore::FileName(lsn),
        payload));
    S2_RETURN_NOT_OK(UploadToBlob());
  }
  return Status::OK();
}

std::string Partition::LogChunkKey(const std::string& prefix, Lsn from,
                                   Lsn to) {
  char buf[64];
  snprintf(buf, sizeof(buf), "log/%020" PRIu64 "-%020" PRIu64, from, to);
  return prefix + buf;
}

Status Partition::UploadToBlob() {
  if (options_.blob == nullptr) return Status::OK();
  S2_RETURN_NOT_OK(files_->DrainUploads());
  std::lock_guard<std::mutex> lock(upload_mu_);
  Lsn durable = log_->durable_lsn();
  if (durable > log_uploaded_) {
    // Upload the sealed, fully replicated log range as an immutable chunk.
    // The tail past the durable LSN is never uploaded (Section 3.1).
    S2_ASSIGN_OR_RETURN(std::string chunk,
                        log_->ReadRange(log_uploaded_, durable));
    S2_RETURN_NOT_OK(options_.blob->Put(
        LogChunkKey(options_.blob_prefix, log_uploaded_, durable), chunk));
    log_uploaded_ = durable;
  }
  return Status::OK();
}

Lsn Partition::LogUploadedLsn() const {
  std::lock_guard<std::mutex> lock(upload_mu_);
  return log_uploaded_;
}

Status Partition::Recover() {
  Lsn replay_from = 0;
  Lsn replay_to = options_.recover_to_lsn;
  auto snapshot = snapshots_.LatestAtOrBelow(
      replay_to == 0 ? ~Lsn{0} : replay_to);
  if (snapshot.ok()) {
    replay_from = snapshot->first;
    Slice in(snapshot->second);
    S2_ASSIGN_OR_RETURN(uint64_t num_tables, GetVarint64(&in));
    for (uint64_t t = 0; t < num_tables; ++t) {
      S2_ASSIGN_OR_RETURN(Slice name, GetLengthPrefixed(&in));
      S2_ASSIGN_OR_RETURN(Slice state, GetLengthPrefixed(&in));
      Slice state_in = state;
      // Peek the options to construct the table, then restore its state.
      Slice options_peek = state;
      S2_ASSIGN_OR_RETURN(TableOptions opts,
                          TableOptions::DecodeFrom(&options_peek));
      S2_ASSIGN_OR_RETURN(UnifiedTable * table,
                          CreateTableInternal(name.ToString(), opts));
      S2_RETURN_NOT_OK(table->RestoreState(&state_in));
    }
    txns_.AdvanceTo(2);  // snapshot rows were committed at ts 1
  }

  PendingTxns pending;
  Status replay_status = log_->Replay(
      replay_from, replay_to, [&](Lsn, const LogRecord& rec) -> Status {
        return ReplayRecord(rec, &pending).status();
      });
  S2_RETURN_NOT_OK(replay_status);
  log_uploaded_ = 0;
  return Status::OK();
}

Result<bool> Partition::ReplayRecord(const LogRecord& rec,
                                     PendingTxns* pending) {
  switch (rec.type) {
    case LogRecordType::kCommit: {
      auto it = pending->find(rec.txn_id);
      if (it == pending->end()) return false;
      Status s = ApplyReplicated(it->second);
      pending->erase(it);
      S2_RETURN_NOT_OK(s);
      return true;
    }
    case LogRecordType::kAbort:
      pending->erase(rec.txn_id);
      return false;
    default:
      (*pending)[rec.txn_id].emplace_back(rec.type, rec.payload);
      return false;
  }
}

Status Partition::ApplyReplicated(
    const std::vector<std::pair<LogRecordType, std::string>>& ops) {
  TxnManager::TxnHandle h = txns_.Begin();
  Status s = [&]() -> Status {
    for (const auto& [type, payload] : ops) {
      Slice in(payload);
      S2_ASSIGN_OR_RETURN(Slice name, GetLengthPrefixed(&in));
      if (type == LogRecordType::kDdl) {
        S2_ASSIGN_OR_RETURN(TableOptions opts, TableOptions::DecodeFrom(&in));
        auto created = CreateTableInternal(name.ToString(), opts);
        if (!created.ok() && !created.status().IsAlreadyExists()) {
          return created.status();
        }
        continue;
      }
      S2_ASSIGN_OR_RETURN(UnifiedTable * table, GetTable(name.ToString()));
      switch (type) {
        case LogRecordType::kInsertRows:
          S2_RETURN_NOT_OK(table->ReplayInsert(h.id, in));
          break;
        case LogRecordType::kDeleteRows:
          S2_RETURN_NOT_OK(table->ReplayDelete(h.id, in));
          break;
        case LogRecordType::kSegmentFlush:
          S2_RETURN_NOT_OK(table->ReplaySegmentFlush(h.id, in));
          break;
        case LogRecordType::kMetadataUpdate:
          S2_RETURN_NOT_OK(table->ReplayMetadataUpdate(h.id, in));
          break;
        case LogRecordType::kSegmentMerge:
          S2_RETURN_NOT_OK(table->ReplaySegmentMerge(h.id, in));
          break;
        default:
          return Status::Corruption("unexpected log record type in replay");
      }
    }
    return Status::OK();
  }();
  // A failed op's predecessors are rolled back: a leaked replay txn would
  // keep its row locks and pin oldest_active.
  if (s.ok()) {
    StampCommit(h.id);
  } else {
    RollBack(h.id);
  }
  return s;
}

}  // namespace s2
