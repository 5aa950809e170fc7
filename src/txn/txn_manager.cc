#include "txn/txn_manager.h"

#include "common/metrics.h"

namespace s2 {

TxnManager::TxnHandle TxnManager::Begin() {
  S2_COUNTER("s2_txn_begin_total").Add();
  std::lock_guard<std::mutex> lock(mu_);
  TxnHandle handle;
  handle.id = next_txn_++;
  handle.read_ts = watermark_;
  active_reads_.insert(handle.read_ts);
  txn_reads_[handle.id] = handle.read_ts;
  return handle;
}

Timestamp TxnManager::PrepareCommit(TxnId /*txn*/) {
  std::lock_guard<std::mutex> lock(mu_);
  Timestamp ts = ++clock_;
  committing_.insert(ts);
  return ts;
}

void TxnManager::FinishCommit(TxnId txn, Timestamp commit_ts) {
  S2_COUNTER("s2_txn_commit_total").Add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    committing_.erase(commit_ts);
    // Advance the watermark to just below the oldest still-stamping commit.
    watermark_ = committing_.empty() ? clock_ : *committing_.begin() - 1;
    PublishOldestActiveLocked();
  }
  EndRead(txn);
}

void TxnManager::Abort(TxnId txn) {
  S2_COUNTER("s2_txn_abort_total").Add();
  EndRead(txn);
}

void TxnManager::EndRead(TxnId txn) {
  locks_.ReleaseAll(txn);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txn_reads_.find(txn);
  if (it != txn_reads_.end()) {
    active_reads_.erase(active_reads_.find(it->second));
    txn_reads_.erase(it);
    PublishOldestActiveLocked();
  }
}

void TxnManager::AdvanceTo(Timestamp ts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (clock_ < ts) clock_ = ts;
  if (watermark_ < ts && committing_.empty()) watermark_ = ts;
  PublishOldestActiveLocked();
}

Timestamp TxnManager::watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return watermark_;
}

void TxnManager::PublishOldestActiveLocked() {
  // A new snapshot starts at the watermark, so Begin never lowers this.
  Timestamp oldest = active_reads_.empty()
                         ? watermark_
                         : std::min(watermark_, *active_reads_.begin());
  oldest_active_.store(oldest, std::memory_order_release);
}

}  // namespace s2
