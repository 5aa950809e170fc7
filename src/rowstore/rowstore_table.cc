#include "rowstore/rowstore_table.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/hash.h"
#include "common/metrics.h"

namespace s2 {

namespace {

// Frees every version below the chain's anchor, the newest version
// committed at or below `horizon`. Uncommitted and aborted versions stamp
// above kTsMax, so neither is ever the anchor.
void FreeBelowAnchor(RowVersion* head, Timestamp horizon) {
  RowVersion* anchor = head;
  while (anchor != nullptr &&
         anchor->commit_ts.load(std::memory_order_acquire) > horizon) {
    anchor = anchor->next;
  }
  if (anchor == nullptr) return;
  RowVersion* old = anchor->next;
  anchor->next = nullptr;
  while (old != nullptr) {
    RowVersion* next = old->next;
    delete old;
    old = next;
  }
}

// The newest version in `head`'s chain that is neither aborted nor a
// delete, or null. Every such version has its entry in each secondary index.
const RowVersion* NewestLive(const RowVersion* head) {
  for (const RowVersion* v = head; v != nullptr; v = v->next) {
    if (!v->deleted &&
        v->commit_ts.load(std::memory_order_acquire) != kTsAborted) {
      return v;
    }
  }
  return nullptr;
}

}  // namespace

RowStoreTable::RowStoreTable(Schema schema, std::vector<int> pk_cols,
                             LockTable* locks,
                             const std::atomic<Timestamp>* horizon)
    : schema_(std::move(schema)),
      pk_cols_(std::move(pk_cols)),
      locks_(locks),
      horizon_(horizon) {}

RowStoreTable::~RowStoreTable() = default;

void RowStoreTable::AddSecondaryIndex(std::vector<int> cols) {
  for (const SecondaryIndex& index : secondaries_) {
    if (index.cols == cols) return;
  }
  SecondaryIndex index;
  index.cols = std::move(cols);
  index.list = std::make_unique<SkipList>();
  secondaries_.push_back(std::move(index));
}

std::string RowStoreTable::PkFromRow(const Row& row) const {
  std::string key;
  for (int c : pk_cols_) row[c].EncodeTo(&key);
  return key;
}

const RowStoreTable::SecondaryIndex* RowStoreTable::LeadingIndex(
    const std::vector<int>& cols) const {
  const SecondaryIndex* best = nullptr;
  for (const SecondaryIndex& index : secondaries_) {
    if (index.cols.size() >= cols.size() &&
        std::equal(cols.begin(), cols.end(), index.cols.begin()) &&
        (best == nullptr || index.cols.size() < best->cols.size())) {
      best = &index;
    }
  }
  return best;
}

size_t RowStoreTable::num_index_nodes(const std::vector<int>& cols) const {
  std::shared_lock<std::shared_mutex> table_lock(table_lock_);
  const SecondaryIndex* index = LeadingIndex(cols);
  return index == nullptr ? 0 : index->list->num_nodes();
}

RowVersion* RowStoreTable::VisibleVersion(const SkipList::Node* node,
                                          TxnId txn, Timestamp read_ts) {
  for (RowVersion* v = node->versions.load(std::memory_order_acquire);
       v != nullptr; v = v->next) {
    Timestamp ts = v->commit_ts.load(std::memory_order_acquire);
    if (ts == kTsAborted) continue;
    if (v->txn_id == txn) return v;  // own write, committed or not
    if (ts != kTsUncommitted && ts <= read_ts) return v;
  }
  return nullptr;
}

Status RowStoreTable::WriteVersion(WriteOp op, TxnId txn, Timestamp read_ts,
                                   const std::string& pk, Row data,
                                   bool fresh_pk) {
  // The row lock first: a lock wait must not hold the table lock that
  // Purge waits for. The table's address tells its lock ids from others'.
  const uint64_t lock_id = Hash64(pk, reinterpret_cast<uintptr_t>(this));
  if (op == WriteOp::kMove) {
    // A move transaction never waits. Its pk is the moved-row id, so the
    // holder is moving or has moved the row; and it runs on its user
    // transaction's thread, so its wait would hide from the lock table a
    // wait of that transaction, and the cycles through it.
    if (!locks_->TryLock(txn, lock_id)) {
      return Status::AlreadyExists("moved row locked by another transaction");
    }
  } else if (!fresh_pk) {
    S2_RETURN_NOT_OK(locks_->Lock(txn, lock_id));
  }
  std::shared_lock<std::shared_mutex> table_lock(table_lock_);
  bool created = false;
  SkipList::Node* node = primary_.GetOrInsert(pk, &created);

  // Holding the row lock, every version above our own newest is committed
  // or aborted. Newest first, down to our own write or the snapshot: a
  // version another transaction committed after read_ts is a conflicting
  // write (first-committer-wins), unless it is a move copy, which carries
  // unchanged content (paper Section 4.2).
  RowVersion* newest = nullptr;  // the newest non-aborted version
  for (RowVersion* v = node->versions.load(std::memory_order_acquire);
       v != nullptr; v = v->next) {
    Timestamp ts = v->commit_ts.load(std::memory_order_acquire);
    if (ts == kTsAborted) continue;
    if (newest == nullptr) newest = v;
    if (v->txn_id == txn || ts <= read_ts) break;
    if (ts != kTsUncommitted && !v->system) {
      return Status::Aborted("write-write conflict");
    }
  }
  const bool insert = op == WriteOp::kInsert || op == WriteOp::kMove;
  const bool exists = newest != nullptr && !newest->deleted;
  if (insert && exists) {
    return Status::AlreadyExists("duplicate primary key");
  }
  if (!insert && !exists) {
    return Status::NotFound("no row with given primary key");
  }

  // GC on write: no other writer can touch this chain (the row lock, or a
  // fresh key no one else writes), and readers stop at or above the anchor.
  const bool deleted = op == WriteOp::kDelete;
  RowVersion* head = node->versions.load(std::memory_order_relaxed);
  FreeBelowAnchor(head, horizon_->load(std::memory_order_acquire));
  // Read after the pruning, so it is never a freed version.
  const RowVersion* indexed = deleted ? nullptr : NewestLive(head);
  auto* version = new RowVersion();
  version->txn_id = txn;
  version->deleted = deleted;
  version->system = op == WriteOp::kMove;
  version->data = std::move(data);
  version->next = head;
  node->versions.store(version, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_[txn].push_back(version);
  }

  if (!deleted) IndexRow(version->data, node, indexed);
  return Status::OK();
}

void RowStoreTable::IndexRow(const Row& row, SkipList::Node* primary,
                             const RowVersion* indexed) {
  for (SecondaryIndex& index : secondaries_) {
    if (indexed != nullptr &&
        std::all_of(index.cols.begin(), index.cols.end(), [&](int c) {
          return row[c].SameEncoding(indexed->data[c]);
        })) {
      continue;  // the entry `indexed` got is this row's entry too
    }
    std::string key;
    for (int c : index.cols) row[c].EncodeTo(&key);
    Slice pk = primary->key();
    key.append(pk.data(), pk.size());
    bool created = false;
    SkipList::Node* entry = index.list->GetOrInsert(key, &created);
    // Visibility is re-checked against the primary chain at seek time, so
    // the entry is usable as soon as it points at its row.
    if (created) entry->row.store(primary, std::memory_order_release);
  }
}

Status RowStoreTable::Insert(TxnId txn, Timestamp read_ts, const Row& row,
                             bool fresh_pk) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  return WriteVersion(WriteOp::kInsert, txn, read_ts, PkFromRow(row), row,
                      fresh_pk);
}

Status RowStoreTable::InsertMoved(TxnId txn, const Row& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  return WriteVersion(WriteOp::kMove, txn, kTsMax, PkFromRow(row), row);
}

Status RowStoreTable::Delete(TxnId txn, Timestamp read_ts, const Row& pk) {
  return WriteVersion(WriteOp::kDelete, txn, read_ts, EncodeKey(pk), Row());
}

Status RowStoreTable::Update(TxnId txn, Timestamp read_ts, const Row& pk,
                             const Row& new_row) {
  if (new_row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  std::string key = EncodeKey(pk);
  if (PkFromRow(new_row) != key) {
    return Status::InvalidArgument("update must not change the primary key");
  }
  return WriteVersion(WriteOp::kUpdate, txn, read_ts, key, new_row);
}

Result<Row> RowStoreTable::Get(TxnId txn, Timestamp read_ts,
                               const Row& pk) const {
  std::shared_lock<std::shared_mutex> table_lock(table_lock_);
  SkipList::Node* node = primary_.Find(EncodeKey(pk));
  if (node == nullptr) return Status::NotFound("no row");
  RowVersion* v = VisibleVersion(node, txn, read_ts);
  if (v == nullptr || v->deleted) return Status::NotFound("no visible row");
  return v->data;
}

Status RowStoreTable::Lookup(TxnId txn, Timestamp read_ts,
                             const std::vector<int>& cols, const Row& values,
                             const std::function<bool(const Row&)>& cb) const {
  if (cols.size() != values.size()) {
    return Status::InvalidArgument("index key arity mismatch");
  }
  const SecondaryIndex* index = LeadingIndex(cols);
  if (index == nullptr) {
    S2_COUNTER("s2_rowstore_scan_lookups_total").Add();
    Scan(txn, read_ts, [&](const Row& row) {
      for (size_t i = 0; i < cols.size(); ++i) {
        if (row[cols[i]] != values[i]) return true;
      }
      return cb(row);
    });
    return Status::OK();
  }
  // Value encodings are prefix-free, so the encoded key is a byte prefix of
  // exactly the entries whose leading columns equal it.
  const std::string prefix = EncodeKey(values);
  std::shared_lock<std::shared_mutex> table_lock(table_lock_);
  std::string current;
  for (SkipList::Node* node = index->list->Seek(prefix); node != nullptr;
       node = SkipList::Next(node)) {
    Slice node_key = node->key();
    if (node_key.size() < prefix.size() ||
        memcmp(node_key.data(), prefix.data(), prefix.size()) != 0) {
      break;
    }
    // Null while the entry's writer has linked it but not yet published
    // its row. The pointer stays valid under the shared table lock: Purge
    // frees primary nodes only under the exclusive lock, and rebuilds every
    // secondary list whenever it frees one.
    SkipList::Node* row = node->row.load(std::memory_order_acquire);
    if (row == nullptr) continue;
    RowVersion* v = VisibleVersion(row, txn, read_ts);
    if (v == nullptr || v->deleted) continue;
    // This must still be the row's entry (entries are not removed on update
    // or delete): its key is the visible version's index columns followed
    // by the row's pk. One row has at most one current entry, so a prefix
    // seek yields it once.
    current.clear();
    for (int c : index->cols) v->data[c].EncodeTo(&current);
    if (node_key.size() != current.size() + row->key().size() ||
        memcmp(node_key.data(), current.data(), current.size()) != 0) {
      continue;
    }
    if (!cb(v->data)) break;
  }
  return Status::OK();
}

void RowStoreTable::Scan(TxnId txn, Timestamp read_ts,
                         const std::function<bool(const Row&)>& cb) const {
  std::shared_lock<std::shared_mutex> table_lock(table_lock_);
  for (SkipList::Node* node = primary_.First(); node != nullptr;
       node = SkipList::Next(node)) {
    RowVersion* v = VisibleVersion(node, txn, read_ts);
    if (v == nullptr || v->deleted) continue;
    if (!cb(v->data)) break;
  }
}

void RowStoreTable::CommitTxn(TxnId txn, Timestamp commit_ts) {
  std::vector<RowVersion*> versions;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(txn);
    if (it == pending_.end()) return;
    versions = std::move(it->second);
    pending_.erase(it);
  }
  // Shared table lock: once stamped, a version is Purge's to free, and
  // Purge runs under the exclusive lock.
  std::shared_lock<std::shared_mutex> table_lock(table_lock_);
  for (RowVersion* v : versions) {
    v->commit_ts.store(commit_ts, std::memory_order_release);
  }
}

std::vector<Timestamp> RowStoreTable::VersionStamps(const Row& pk) const {
  std::shared_lock<std::shared_mutex> table_lock(table_lock_);
  std::vector<Timestamp> stamps;
  SkipList::Node* node = primary_.Find(EncodeKey(pk));
  if (node == nullptr) return stamps;
  for (RowVersion* v = node->versions.load(std::memory_order_acquire);
       v != nullptr; v = v->next) {
    stamps.push_back(v->commit_ts.load(std::memory_order_acquire));
  }
  return stamps;
}

size_t RowStoreTable::CountVisible(Timestamp ts) const {
  size_t count = 0;
  Scan(0, ts, [&](const Row&) {
    ++count;
    return true;
  });
  return count;
}

size_t RowStoreTable::Purge(Timestamp oldest_active) {
  std::unique_lock<std::shared_mutex> table_lock(table_lock_);
  // Prune version chains: within each node, drop everything older than the
  // newest version visible to every active snapshot, and drop aborted
  // versions.
  for (SkipList::Node* node = primary_.First(); node != nullptr;
       node = SkipList::Next(node)) {
    RowVersion* head = node->versions.load(std::memory_order_relaxed);
    // Remove aborted versions from the head first.
    while (head != nullptr &&
           head->commit_ts.load(std::memory_order_relaxed) == kTsAborted) {
      RowVersion* next = head->next;
      delete head;
      head = next;
    }
    node->versions.store(head, std::memory_order_relaxed);
    // The anchor is the newest version already visible to every active
    // snapshot. Everything older can never be read again.
    FreeBelowAnchor(head, oldest_active);
  }
  size_t purged = primary_.Purge([&](SkipList::Node* node) {
    RowVersion* v = node->versions.load(std::memory_order_relaxed);
    if (v == nullptr) return true;  // never got a version
    Timestamp ts = v->commit_ts.load(std::memory_order_relaxed);
    return v->deleted && ts <= kTsMax && ts <= oldest_active &&
           v->next == nullptr;
  });
  if (purged == 0 || secondaries_.empty()) return purged;
  // Rebuild secondary indexes: stale entries (updated/deleted rows) and
  // entries pointing at freed primary nodes are dropped wholesale. Every
  // surviving live version gets its entry back, not only each chain's head:
  // a snapshot older than the head may still read an older version, and a
  // write skips the insert of a key that such a version already indexes.
  for (SecondaryIndex& index : secondaries_) {
    index.list = std::make_unique<SkipList>();
  }
  for (SkipList::Node* node = primary_.First(); node != nullptr;
       node = SkipList::Next(node)) {
    const RowVersion* newer = nullptr;
    for (const RowVersion* v =
             NewestLive(node->versions.load(std::memory_order_relaxed));
         v != nullptr; v = NewestLive(v->next)) {
      IndexRow(v->data, node, newer);
      newer = v;
    }
  }
  return purged;
}

std::string RowStoreTable::SerializeSnapshot(Timestamp ts) const {
  std::string out;
  size_t count = 0;
  std::string rows;
  Scan(0, ts, [&](const Row& row) {
    for (const Value& v : row) v.EncodeTo(&rows);
    ++count;
    return true;
  });
  PutVarint64(&out, count);
  out.append(rows);
  return out;
}

Status RowStoreTable::RestoreSnapshot(Slice snapshot, Timestamp commit_ts) {
  S2_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&snapshot));
  const TxnId restore_txn = ~TxnId{0};
  for (uint64_t i = 0; i < count; ++i) {
    Row row;
    row.reserve(schema_.num_columns());
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      S2_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(&snapshot));
      row.push_back(std::move(v));
    }
    // The table is empty and no other transaction runs yet.
    S2_RETURN_NOT_OK(Insert(restore_txn, kTsMax, row, /*fresh_pk=*/true));
  }
  CommitTxn(restore_txn, commit_ts);
  return Status::OK();
}

}  // namespace s2
