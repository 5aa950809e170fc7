#include "storage/unified_table.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/coding.h"
#include "common/hash.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "common/profile.h"
#include "index/inverted_index.h"
#include "index/postings.h"

namespace s2 {

namespace {

constexpr char kFlagSystemRows = 1;

}  // namespace

UnifiedTable::UnifiedTable(std::string name, TableOptions options,
                           PartitionLog* log, DataFileStore* files,
                           TxnManager* txns)
    : name_(std::move(name)),
      options_(std::move(options)),
      log_(log),
      files_(files),
      txns_(txns) {
  // Rowstore schema: user columns + hidden $rowid primary key.
  std::vector<ColumnDef> cols = options_.schema.columns();
  cols.push_back(ColumnDef{"$rowid", DataType::kInt64});
  rowstore_schema_ = Schema(cols);
  int rowid_col = static_cast<int>(options_.schema.num_columns());
  rowstore_ = std::make_unique<RowStoreTable>(
      rowstore_schema_, std::vector<int>{rowid_col}, txns_->locks(),
      txns_->gc_horizon());

  // Column-level indexes: one per distinct indexed column (secondary
  // indexes and the unique key share per-column structures, Section
  // 4.1.1); then tuple-level ones for multi-column indexes and the unique
  // key.
  int num_tuple_indexes = 0;
  auto add_index = [&](const std::vector<int>& cols) {
    for (const IndexState& index : indexes_) {
      if (index.cols == cols) return;
    }
    IndexState state;
    state.cols = cols;
    state.block = cols.size() == 1
                      ? InvertedIndexBuilder::BlockName(cols[0])
                      : "tup." + std::to_string(num_tuple_indexes++);
    state.global = std::make_unique<GlobalIndex>();
    indexes_.push_back(std::move(state));
  };
  for (const auto& index : options_.indexes) {
    for (int c : index) add_index({c});
  }
  for (int c : options_.unique_key) add_index({c});
  for (const auto& index : options_.indexes) {
    if (index.size() >= 2) add_index(index);
  }
  if (options_.unique_key.size() >= 2) add_index(options_.unique_key);

  // Rowstore-side secondary indexes mirror the declared indexes and the
  // unique key, so point reads seek in level 0 too.
  for (const auto& index : options_.indexes) {
    rowstore_->AddSecondaryIndex(index);
  }
  if (!options_.unique_key.empty()) {
    rowstore_->AddSecondaryIndex(options_.unique_key);
  }
}

UnifiedTable::~UnifiedTable() = default;

Row UnifiedTable::WithRowId(const Row& row, int64_t rowid) const {
  Row out = row;
  out.push_back(Value(rowid));
  return out;
}

Result<std::shared_ptr<Segment>> UnifiedTable::OpenSegmentLocked(
    SegmentEntry* entry) {
  if (entry->segment == nullptr) {
    S2_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> file,
                        files_->Read(entry->meta.file_name));
    S2_ASSIGN_OR_RETURN(entry->segment, Segment::Open(file));
  }
  if (!entry->indexed) {
    // Replicas may install segment metadata before the data file arrives
    // (async upload / streaming); register index entries at first open.
    (void)AddSegmentToIndexes(entry->meta.id, entry->segment);
    entry->indexed = true;
  }
  return entry->segment;
}

std::shared_ptr<const BitVector> UnifiedTable::DeletesAt(
    const SegmentEntry& entry, Timestamp ts) const {
  for (auto it = entry.delete_history.rbegin();
       it != entry.delete_history.rend(); ++it) {
    if (it->first <= ts) return it->second;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

Result<size_t> UnifiedTable::InsertRows(TxnId txn, Timestamp read_ts,
                                        const std::vector<Row>& rows,
                                        DupPolicy policy) {
  for (const Row& row : rows) {
    if (row.size() != options_.schema.num_columns()) {
      return Status::InvalidArgument("row arity mismatch for " + name_);
    }
  }
  const bool unique = !options_.unique_key.empty();
  if (unique) {
    // Section 4.1.2 step 1: lock the unique key values for the whole batch
    // so concurrent inserts of the same value serialize; in sorted lock-id
    // order, so two batches never wait on each other in a cycle.
    std::vector<uint64_t> lock_ids;
    lock_ids.reserve(rows.size());
    std::string key;
    for (const Row& row : rows) {
      key.clear();
      for (int c : options_.unique_key) row[c].EncodeTo(&key);
      lock_ids.push_back(Hash64(key, reinterpret_cast<uintptr_t>(this)));
    }
    std::sort(lock_ids.begin(), lock_ids.end());
    for (uint64_t lock_id : lock_ids) {
      S2_RETURN_NOT_OK(txns_->locks()->Lock(txn, lock_id));
    }
  }

  size_t applied = 0;
  std::string payload_rows;
  uint64_t payload_count = 0;
  for (const Row& row : rows) {
    if (unique) {
      Row key_values;
      for (int c : options_.unique_key) key_values.push_back(row[c]);
      RowLocation dup;
      S2_ASSIGN_OR_RETURN(bool found, FindDuplicate(txn, key_values, &dup));
      if (found) {
        switch (policy) {
          case DupPolicy::kError:
            return Status::AlreadyExists("duplicate unique key in " + name_);
          case DupPolicy::kSkip:
            continue;
          case DupPolicy::kUpdate:
            S2_RETURN_NOT_OK(UpdateLocated(txn, read_ts, dup, row));
            ++applied;
            continue;
          case DupPolicy::kReplace:
            S2_RETURN_NOT_OK(DeleteLocated(txn, read_ts, dup));
            break;  // fall through to the insert below
        }
      }
    }
    Row full = WithRowId(row, NextRowId());
    S2_RETURN_NOT_OK(rowstore_->Insert(txn, read_ts, full, /*fresh_pk=*/true));
    for (const Value& v : full) v.EncodeTo(&payload_rows);
    ++payload_count;
    ++applied;
    stats_.rows_inserted.fetch_add(1);
  }

  if (payload_count > 0) {
    LogRecord rec;
    rec.txn_id = txn;
    rec.type = LogRecordType::kInsertRows;
    PutLengthPrefixed(&rec.payload, name_);
    rec.payload.push_back(0);  // flags: user rows
    PutVarint64(&rec.payload, payload_count);
    rec.payload.append(payload_rows);
    log_->Append(rec);
  }
  return applied;
}

Result<bool> UnifiedTable::FindDuplicate(TxnId txn, const Row& key_values,
                                         RowLocation* loc) {
  // Level 0 at latest, through the unique key's rowstore index.
  bool found = false;
  S2_RETURN_NOT_OK(rowstore_->Lookup(txn, kTsMax, options_.unique_key,
                                     key_values, [&](const Row& row) {
                                       loc->in_rowstore = true;
                                       loc->rowid = row.back().as_int();
                                       found = true;
                                       return false;
                                     }));
  if (found) return true;

  // Columnstore: probe the global indexes. In the typical no-duplicate
  // case only the in-memory hash tables are touched (Section 4.1.2); a
  // duplicate costs one postings list per candidate segment and no row
  // read, since only its location is needed.
  return LookupSegmentsByCols(options_.unique_key, key_values, kTsMax,
                              [&](const Segment&, uint64_t segment_id,
                                  uint32_t offset) {
                                loc->in_rowstore = false;
                                loc->segment_id = segment_id;
                                loc->row_offset = offset;
                                return false;
                              });
}

Status UnifiedTable::MoveRows(uint64_t segment_id,
                              const std::vector<uint32_t>& offsets) {
  // Autonomous "move transaction" (Section 4.2): copies the rows into the
  // rowstore and marks them deleted in segment metadata, committing
  // immediately since logical table content is unchanged.
  TxnManager::TxnHandle h = txns_->Begin();

  std::shared_ptr<Segment> segment;
  std::shared_ptr<const BitVector> latest;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = segments_.find(segment_id);
    if (it == segments_.end() || it->second.dropped_ts != kTsMax) {
      return AbortOwnTxn(h.id, Status::Aborted("segment merged away; retry"));
    }
    auto opened = OpenSegmentLocked(&it->second);
    if (!opened.ok()) return AbortOwnTxn(h.id, opened.status());
    segment = *opened;
    latest = it->second.meta.deletes;
  }

  std::vector<uint32_t> to_move;
  for (uint32_t off : offsets) {
    if (latest == nullptr || !latest->Get(off)) to_move.push_back(off);
  }
  if (to_move.empty()) {
    // Everything already moved by concurrent movers; their copies carry
    // the rows now.
    return AbortOwnTxn(h.id, Status::OK());
  }

  auto rows = segment->ReadRows(to_move);
  if (!rows.ok()) return AbortOwnTxn(h.id, rows.status());
  std::string payload_rows;
  uint64_t moved_count = 0;
  std::vector<uint32_t> actually_moved;
  for (size_t i = 0; i < to_move.size(); ++i) {
    uint32_t off = to_move[i];
    Row full = WithRowId((*rows)[i], MovedRowId(segment_id, off));
    Status st = rowstore_->InsertMoved(h.id, full);
    if (st.IsAlreadyExists()) continue;  // raced with another mover
    if (!st.ok()) return AbortOwnTxn(h.id, st);
    for (const Value& v : full) v.EncodeTo(&payload_rows);
    ++moved_count;
    actually_moved.push_back(off);
    stats_.rows_moved.fetch_add(1);
  }
  if (moved_count == 0) return AbortOwnTxn(h.id, Status::OK());

  // Install + log under the metadata lock so the logged bit vector matches
  // the installed one even with concurrent movers.
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = segments_.find(segment_id);
    if (it == segments_.end() || it->second.dropped_ts != kTsMax) {
      return AbortOwnTxn(h.id,
                         Status::Aborted("segment merged during move; retry"));
    }
    SegmentEntry& entry = it->second;
    BitVector bv = entry.meta.deletes != nullptr
                       ? *entry.meta.deletes
                       : BitVector(entry.meta.num_rows);
    for (uint32_t off : actually_moved) bv.Set(off);
    SegmentChange change;
    change.kind = SegmentChange::kDeletes;
    change.segment_id = segment_id;
    change.deletes = std::make_shared<const BitVector>(std::move(bv));

    LogRecord rows_rec;
    rows_rec.txn_id = h.id;
    rows_rec.type = LogRecordType::kInsertRows;
    PutLengthPrefixed(&rows_rec.payload, name_);
    rows_rec.payload.push_back(kFlagSystemRows);
    PutVarint64(&rows_rec.payload, moved_count);
    rows_rec.payload.append(payload_rows);
    log_->Append(rows_rec);

    LogRecord meta_rec;
    meta_rec.txn_id = h.id;
    meta_rec.type = LogRecordType::kMetadataUpdate;
    PutLengthPrefixed(&meta_rec.payload, name_);
    PutVarint64(&meta_rec.payload, segment_id);
    change.deletes->EncodeTo(&meta_rec.payload);
    log_->Append(meta_rec);

    Status cs = log_->Commit(h.id);
    if (!cs.ok()) return AbortOwnTxn(h.id, cs);
    Timestamp cts = txns_->PrepareCommit(h.id);
    rowstore_->CommitTxn(h.id, cts);
    InstallDeletesLocked(change, cts);
    txns_->FinishCommit(h.id, cts);
  }
  return Status::OK();
}

Status UnifiedTable::AbortOwnTxn(TxnId txn, Status status) {
  rowstore_->AbortTxn(txn);  // before its row locks go
  txns_->Abort(txn);
  return status;
}

Status UnifiedTable::DeleteLocated(TxnId txn, Timestamp read_ts,
                                   const RowLocation& loc) {
  return WriteLocated(txn, read_ts, loc, nullptr);
}

Status UnifiedTable::UpdateLocated(TxnId txn, Timestamp read_ts,
                                   const RowLocation& loc,
                                   const Row& new_row) {
  if (new_row.size() != options_.schema.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for " + name_);
  }
  return WriteLocated(txn, read_ts, loc, &new_row);
}

Status UnifiedTable::WriteLocated(TxnId txn, Timestamp read_ts,
                                  const RowLocation& loc, const Row* new_row) {
  int64_t rowid = loc.rowid;
  if (!loc.in_rowstore) {
    S2_RETURN_NOT_OK(MoveRows(loc.segment_id, {loc.row_offset}));
    rowid = MovedRowId(loc.segment_id, loc.row_offset);
  }
  Row full;
  if (new_row != nullptr) full = WithRowId(*new_row, rowid);
  Status st = new_row == nullptr
                  ? rowstore_->Delete(txn, read_ts, {Value(rowid)})
                  : rowstore_->Update(txn, read_ts, {Value(rowid)}, full);
  if (st.IsNotFound()) {
    // The caller located this row at its snapshot; it vanished at latest,
    // so a concurrent transaction deleted it: surface as a conflict.
    return Status::Aborted("row concurrently deleted");
  }
  S2_RETURN_NOT_OK(st);
  // An update logs as a delete and an insert of the same rowid.
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kDeleteRows;
  PutLengthPrefixed(&rec.payload, name_);
  PutVarint64(&rec.payload, 1);
  PutVarint64(&rec.payload, ZigZagEncode(rowid));
  log_->Append(rec);
  if (new_row == nullptr) {
    stats_.rows_deleted.fetch_add(1);
    return Status::OK();
  }
  LogRecord ins;
  ins.txn_id = txn;
  ins.type = LogRecordType::kInsertRows;
  PutLengthPrefixed(&ins.payload, name_);
  ins.payload.push_back(0);
  PutVarint64(&ins.payload, 1);
  for (const Value& v : full) v.EncodeTo(&ins.payload);
  log_->Append(ins);
  stats_.rows_updated.fetch_add(1);
  return Status::OK();
}

Status UnifiedTable::DeleteByKey(TxnId txn, Timestamp read_ts,
                                 const Row& key) {
  RowLocation loc;
  S2_ASSIGN_OR_RETURN(bool found, FindDuplicate(txn, key, &loc));
  if (!found) return Status::NotFound("no row with key in " + name_);
  return DeleteLocated(txn, read_ts, loc);
}

Status UnifiedTable::UpdateByKey(TxnId txn, Timestamp read_ts, const Row& key,
                                 const Row& new_row) {
  RowLocation loc;
  S2_ASSIGN_OR_RETURN(bool found, FindDuplicate(txn, key, &loc));
  if (!found) return Status::NotFound("no row with key in " + name_);
  return UpdateLocated(txn, read_ts, loc, new_row);
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

void UnifiedTable::ScanRowstore(
    TxnId txn, Timestamp read_ts,
    const std::function<bool(const Row&, const RowLocation&)>& cb) const {
  rowstore_->Scan(txn, read_ts, [&](const Row& full) {
    Row user(full.begin(), full.end() - 1);
    RowLocation loc;
    loc.in_rowstore = true;
    loc.rowid = full.back().as_int();
    return cb(user, loc);
  });
}

Result<std::vector<SegmentSnapshot>> UnifiedTable::GetSegments(
    Timestamp read_ts) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  std::vector<SegmentSnapshot> out;
  for (auto& [id, entry] : segments_) {
    if (!VisibleAt(entry, read_ts)) continue;
    S2_ASSIGN_OR_RETURN(std::shared_ptr<Segment> segment,
                        OpenSegmentLocked(&entry));
    out.push_back(SegmentSnapshot{id, segment, DeletesAt(entry, read_ts)});
  }
  return out;
}

const UnifiedTable::IndexState* UnifiedTable::FindIndex(
    std::span<const int> cols) const {
  for (const IndexState& index : indexes_) {
    if (std::equal(index.cols.begin(), index.cols.end(), cols.begin(),
                   cols.end())) {
      return &index;
    }
  }
  return nullptr;
}

size_t UnifiedTable::IndexProbeTables(int col) const {
  const IndexState* index = FindIndex({&col, 1});
  return index == nullptr ? 0 : index->global->num_tables();
}

Result<bool> UnifiedTable::LookupSegmentsByCols(
    const std::vector<int>& cols, const Row& values, Timestamp read_ts,
    const std::function<bool(const Segment&, uint64_t, uint32_t)>& cb) {
  // One probe per global index consulted: the index on exactly `cols` (a
  // column's own, or the tuple entry of a multi-column index or unique
  // key) when there is one, else one per column. A probe's term is its
  // columns' value encodings concatenated, as InvertedIndexBuilder builds
  // them.
  struct Probe {
    const IndexState* index;
    std::string term;
  };
  std::vector<Probe> probes;
  if (const IndexState* exact = FindIndex(cols)) {
    probes.push_back(Probe{exact, {}});
    for (const Value& value : values) value.EncodeTo(&probes[0].term);
  } else {
    for (size_t i = 0; i < cols.size(); ++i) {
      const IndexState* index = FindIndex({&cols[i], 1});
      if (index == nullptr) {
        return Status::InvalidArgument("column has no secondary index");
      }
      probes.push_back(Probe{index, {}});
      values[i].EncodeTo(&probes.back().term);
    }
  }
  // A row with a NULL in an indexed column has no entry to find.
  if (probes.empty() ||
      std::any_of(values.begin(), values.end(),
                  [](const Value& value) { return value.is_null(); })) {
    return false;
  }

  // matches[k] lists probe k's (segment, entry offset) pairs. Once the
  // probes are done, every list holds the same segments in the same order,
  // so position j of each is one candidate segment.
  using Match = std::pair<uint64_t, uint32_t>;
  std::vector<std::vector<Match>> matches(probes.size());
  std::vector<SegmentSnapshot> snapshots;
  {
    // The probes and the catalog filter share one meta_mu_ hold: installs
    // add and drop segments under it, so a lookup sees one whole or not at
    // all. Postings are read after it is released.
    std::lock_guard<std::mutex> lock(meta_mu_);
    for (size_t k = 0; k < probes.size(); ++k) {
      probes[k].index->global->Lookup(
          TermHash(probes[k].term), [&](const IndexEntry& e) {
            matches[k].emplace_back(e.segment_id, e.postings_offset);
          });
    }
    if (probes.size() > 1) {
      // Keep the segments every probe names, aligned across the lists.
      for (auto& list : matches) std::sort(list.begin(), list.end());
      std::vector<size_t> pos(probes.size(), 0);
      size_t kept = 0;
      for (const Match& first : matches[0]) {
        bool in_all = true;
        for (size_t k = 1; k < probes.size() && in_all; ++k) {
          const std::vector<Match>& list = matches[k];
          while (pos[k] < list.size() && list[pos[k]].first < first.first) {
            ++pos[k];
          }
          in_all = pos[k] < list.size() && list[pos[k]].first == first.first;
        }
        if (!in_all) continue;
        matches[0][kept] = first;
        for (size_t k = 1; k < probes.size(); ++k) {
          matches[k][kept] = matches[k][pos[k]++];
        }
        ++kept;
      }
      for (auto& list : matches) list.resize(kept);
    }
    // Keep the candidates the catalog shows at read_ts.
    size_t kept = 0;
    for (size_t j = 0; j < matches[0].size(); ++j) {
      auto seg = segments_.find(matches[0][j].first);
      if (seg == segments_.end() || !VisibleAt(seg->second, read_ts)) {
        continue;
      }
      S2_ASSIGN_OR_RETURN(std::shared_ptr<Segment> segment,
                          OpenSegmentLocked(&seg->second));
      snapshots.push_back(SegmentSnapshot{seg->first, std::move(segment),
                                          DeletesAt(seg->second, read_ts)});
      for (auto& list : matches) list[kept] = list[j];
      ++kept;
    }
  }

  bool found_any = false;
  std::vector<PostingsIterator> its;
  std::vector<uint32_t> rows;
  for (size_t j = 0; j < snapshots.size(); ++j) {
    const SegmentSnapshot& snap = snapshots[j];
    // Each probe's postings list, read straight at its global-index offset
    // (hash collisions rejected by the term check inside PostingsAt), then
    // intersected when there are several.
    its.clear();
    for (size_t k = 0; k < probes.size(); ++k) {
      auto block = snap.segment->aux_block(probes[k].index->block);
      if (!block.ok()) break;
      S2_ASSIGN_OR_RETURN(PostingsIterator it,
                          InvertedIndexReader::PostingsAt(
                              *block, matches[k][j].second, probes[k].term));
      if (!it.Valid()) break;
      its.push_back(std::move(it));
    }
    if (its.size() < probes.size()) continue;
    rows.clear();
    S2_RETURN_NOT_OK(IntersectPostings(std::move(its), &rows));
    for (uint32_t off : rows) {
      if (snap.deletes != nullptr && snap.deletes->Get(off)) continue;
      found_any = true;
      if (!cb(*snap.segment, snap.id, off)) return true;
    }
  }
  return found_any;
}

Status UnifiedTable::LookupByIndex(
    TxnId txn, Timestamp read_ts, const std::vector<int>& index_cols,
    const Row& values,
    const std::function<bool(const Row&, const RowLocation&)>& cb) {
  // Level 0 first (it checks the key's arity).
  bool stopped = false;
  S2_RETURN_NOT_OK(rowstore_->Lookup(
      txn, read_ts, index_cols, values, [&](const Row& full) {
        Row user(full.begin(), full.end() - 1);
        RowLocation loc;
        loc.in_rowstore = true;
        loc.rowid = full.back().as_int();
        stopped = !cb(user, loc);
        return !stopped;
      }));
  if (stopped) return Status::OK();

  // Columnstore via the two-level index; only the rows handed to cb are
  // materialized.
  Status read_status;
  S2_RETURN_NOT_OK(
      LookupSegmentsByCols(index_cols, values, read_ts,
                           [&](const Segment& segment, uint64_t segment_id,
                               uint32_t offset) {
                             auto row = segment.ReadRow(offset);
                             if (!row.ok()) {
                               read_status = row.status();
                               return false;
                             }
                             RowLocation loc;
                             loc.in_rowstore = false;
                             loc.segment_id = segment_id;
                             loc.row_offset = offset;
                             return cb(*row, loc);
                           })
          .status());
  return read_status;
}

uint64_t UnifiedTable::ApproxRowCount() const {
  uint64_t count = rowstore_->num_nodes();
  std::lock_guard<std::mutex> lock(meta_mu_);
  for (const auto& [id, entry] : segments_) {
    if (entry.dropped_ts == kTsMax) count += entry.meta.live_rows();
  }
  return count;
}

size_t UnifiedTable::NumSegments() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  size_t n = 0;
  for (const auto& [id, entry] : segments_) {
    if (entry.dropped_ts == kTsMax) ++n;
  }
  return n;
}

std::vector<UnifiedTable::SegmentDebugInfo> UnifiedTable::DebugSegments()
    const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  std::vector<SegmentDebugInfo> out;
  out.reserve(segments_.size());
  for (const auto& [id, entry] : segments_) {
    SegmentDebugInfo info;
    info.id = id;
    info.file_name = entry.meta.file_name;
    info.num_rows = entry.meta.num_rows;
    info.deleted_rows = entry.meta.num_rows - entry.meta.live_rows();
    info.live = entry.dropped_ts == kTsMax;
    info.created_ts = entry.created_ts;
    for (size_t c = 0; c < entry.meta.stats.size(); ++c) {
      if (c > 0) info.min_max += ';';
      const ColumnStats& s = entry.meta.stats[c];
      info.min_max += s.min.ToString() + ".." + s.max.ToString();
    }
    if (entry.segment != nullptr) {
      for (size_t c = 0; c < entry.segment->num_columns(); ++c) {
        Result<const ColumnReader*> reader = entry.segment->column(c);
        if (!reader.ok()) continue;
        if (!info.encodings.empty()) info.encodings += ',';
        info.encodings += EncodingName((*reader)->encoding());
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<UnifiedTable::RunDebugInfo> UnifiedTable::DebugRuns() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  std::vector<RunDebugInfo> out;
  out.reserve(runs_.size());
  for (const SortedRun& run : runs_) {
    out.push_back({run.segment_ids.size(), run.total_rows});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Result<std::pair<SegmentMeta, std::shared_ptr<Segment>>>
UnifiedTable::BuildSegment(const std::vector<Row>& rows, uint64_t segment_id,
                           Lsn lsn) {
  SegmentBuilder builder(options_.schema);
  for (const Row& row : rows) builder.AddRow(row);

  // Per-segment inverted indexes, one per column and per column tuple
  // (built once at segment creation; the segment is immutable afterwards).
  std::vector<const ColumnVector*> columns;
  for (const IndexState& index : indexes_) {
    columns.clear();
    for (int c : index.cols) columns.push_back(&builder.column_data(c));
    builder.AddAuxBlock(index.block, InvertedIndexBuilder::Build(columns));
  }

  S2_ASSIGN_OR_RETURN(std::string bytes, builder.Finish());
  auto file = std::make_shared<const std::string>(std::move(bytes));
  SegmentMeta meta;
  meta.id = segment_id;
  meta.file_name = SegmentFileName(name_, lsn, segment_id);
  meta.num_rows = static_cast<uint32_t>(rows.size());
  S2_RETURN_NOT_OK(files_->Write(meta.file_name, file));
  auto opened = Segment::Open(std::move(file));
  if (!opened.ok()) {
    (void)files_->Remove(meta.file_name);
    return opened.status();
  }
  // Stats are parsed back from the footer; also keep them in metadata for
  // elimination without opening the file.
  for (size_t c = 0; c < options_.schema.num_columns(); ++c) {
    meta.stats.push_back((*opened)->stats(c));
  }
  return std::make_pair(std::move(meta), std::move(*opened));
}

Status UnifiedTable::AddSegmentToIndexes(
    uint64_t segment_id, const std::shared_ptr<Segment>& segment) {
  std::vector<IndexEntry> entries;
  for (IndexState& index : indexes_) {
    auto block = segment->aux_block(index.block);
    if (!block.ok()) continue;
    S2_ASSIGN_OR_RETURN(InvertedIndexReader reader,
                        InvertedIndexReader::Open(*block));
    entries.clear();
    entries.reserve(reader.num_terms());
    S2_RETURN_NOT_OK(reader.ForEachTerm([&](Slice term, uint32_t offset) {
      entries.push_back(IndexEntry{TermHash(term), segment_id, offset});
    }));
    index.global->AddSegment(segment_id, entries);
  }
  return Status::OK();
}

void UnifiedTable::AddSegmentLocked(SegmentMeta meta, Timestamp created_ts,
                                    std::shared_ptr<Segment> opened) {
  uint64_t id = meta.id;
  SegmentEntry entry;
  entry.created_ts = created_ts;
  entry.delete_history.emplace_back(created_ts, meta.deletes);
  entry.indexed = opened != nullptr && AddSegmentToIndexes(id, opened).ok();
  entry.segment = std::move(opened);
  entry.meta = std::move(meta);
  segments_[id] = std::move(entry);
  stats_.segments_created.fetch_add(1);
  // Keep id allocation ahead of replayed/restored segments.
  uint64_t next = next_segment_id_.load();
  while (id >= next &&
         !next_segment_id_.compare_exchange_weak(next, id + 1)) {
  }
}

void UnifiedTable::InstallSegmentsLocked(SegmentChange change,
                                         Timestamp commit_ts) {
  // Old segments drop and new ones appear at commit_ts in one meta_mu_
  // hold; the old ones keep their index entries until Vacuum removes them.
  std::unordered_set<uint64_t> old_set(change.old_ids.begin(),
                                       change.old_ids.end());
  for (uint64_t id : old_set) {
    auto it = segments_.find(id);
    if (it != segments_.end()) it->second.dropped_ts = commit_ts;
  }
  SortedRun run;
  for (size_t i = 0; i < change.metas.size(); ++i) {
    run.segment_ids.push_back(change.metas[i].id);
    run.total_rows += change.metas[i].live_rows();
    AddSegmentLocked(std::move(change.metas[i]), commit_ts,
                     std::move(change.opened[i]));
  }
  auto holds_old = [&](const SortedRun& r) {
    for (uint64_t id : r.segment_ids) {
      if (old_set.count(id) > 0) return true;
    }
    return false;
  };
  runs_.erase(std::remove_if(runs_.begin(), runs_.end(), holds_old),
              runs_.end());
  if (!run.segment_ids.empty()) runs_.push_back(std::move(run));
}

void UnifiedTable::InstallDeletesLocked(const SegmentChange& change,
                                        Timestamp commit_ts) {
  auto it = segments_.find(change.segment_id);
  if (it == segments_.end()) return;
  it->second.meta.deletes = change.deletes;
  it->second.delete_history.emplace_back(commit_ts, change.deletes);
}

Result<size_t> UnifiedTable::FlushRowstore() {
  if (options_.flush_threshold == std::numeric_limits<uint32_t>::max()) {
    // Rowstore-only table (the CDB baseline profile): data never converts
    // to columnstore segments.
    return size_t{0};
  }
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  ProfileSpan flush_span("flush");
  if (flush_span.active()) flush_span.SetDetail("table=" + name_);
  // Records into s2_flush_ns only on a successful flush (see the commit
  // tail); aborted/no-op flushes are not latency samples.
  ScopedTimer flush_timer(nullptr);
  TxnManager::TxnHandle h = txns_->Begin();

  // Collect committed rows visible at the flush snapshot.
  std::vector<std::pair<int64_t, Row>> candidates;
  rowstore_->Scan(h.id, h.read_ts, [&](const Row& full) {
    candidates.emplace_back(full.back().as_int(),
                            Row(full.begin(), full.end() - 1));
    return candidates.size() < options_.segment_rows;
  });
  if (candidates.empty()) {
    (void)AbortOwnTxn(h.id, Status::OK());
    return size_t{0};
  }

  // Delete each row from level 0 in the flush transaction. A row that a
  // concurrent writer holds is waited for, up to LockTable::kTimeoutMs; it
  // is skipped (and stays for the next flush) only if a writer changed
  // it after the flush's snapshot, or if the wait ends in a timeout or a
  // deadlock.
  std::vector<Row> rows;
  std::vector<int64_t> rowids;
  for (auto& [rowid, row] : candidates) {
    Status st = rowstore_->Delete(h.id, h.read_ts, {Value(rowid)});
    if (!st.ok()) continue;
    rows.push_back(std::move(row));
    rowids.push_back(rowid);
  }
  if (rows.empty()) {
    (void)AbortOwnTxn(h.id, Status::OK());
    return size_t{0};
  }

  // Sort by the sort key; ties keep arrival order.
  if (!options_.sort_key.empty()) {
    std::vector<size_t> order(rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (int c : options_.sort_key) {
        int cmp = rows[a][c].Compare(rows[b][c]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
    std::vector<Row> sorted;
    sorted.reserve(rows.size());
    for (size_t i : order) sorted.push_back(std::move(rows[i]));
    rows = std::move(sorted);
  }

  // From here on any failure must abort the flush transaction: it holds
  // row locks (via Delete) that would otherwise leak forever, making
  // every later write to those rows time out.
  uint64_t segment_id = next_segment_id_.fetch_add(1);
  Lsn lsn = log_->next_lsn();
  auto built = BuildSegment(rows, segment_id, lsn);
  if (!built.ok()) return AbortOwnTxn(h.id, built.status());
  auto& [meta, opened] = *built;
  const size_t bytes = opened->file_size();

  LogRecord rec;
  rec.txn_id = h.id;
  rec.type = LogRecordType::kSegmentFlush;
  PutLengthPrefixed(&rec.payload, name_);
  meta.EncodeTo(&rec.payload);
  PutVarint64(&rec.payload, rowids.size());
  for (int64_t rowid : rowids) PutVarint64(&rec.payload, ZigZagEncode(rowid));
  log_->Append(rec);

  Status cs = log_->Commit(h.id);
  if (!cs.ok()) {
    (void)files_->Remove(meta.file_name);
    return AbortOwnTxn(h.id, cs);
  }
  SegmentChange change;
  change.metas.push_back(std::move(meta));
  change.opened.push_back(std::move(opened));
  // The segment goes in before the rows leave level 0, so a latest-state
  // reader finds each flushed row at least once (twice in between).
  Timestamp cts = txns_->PrepareCommit(h.id);
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    InstallSegmentsLocked(std::move(change), cts);
  }
  rowstore_->CommitTxn(h.id, cts);
  txns_->FinishCommit(h.id, cts);
  stats_.flushes.Add();
  S2_COUNTER("s2_flush_rows_total").Add(rows.size());
  S2_COUNTER("s2_flush_bytes_total").Add(bytes);
  S2_JOURNAL("storage", "flush",
             "table=" + name_ + " rows=" + std::to_string(rows.size()) +
                 " bytes=" + std::to_string(bytes));
  S2_HISTOGRAM("s2_flush_ns").Record(flush_timer.ElapsedNs());
  flush_span.Count("rows", static_cast<int64_t>(rows.size()));
  flush_span.Count("bytes", static_cast<int64_t>(bytes));
  // Reclaim the flushed nodes once no active snapshot can still see them;
  // this is what keeps the write-optimized level 0 small.
  rowstore_->Purge(txns_->oldest_active());
  return rows.size();
}

Result<bool> UnifiedTable::MaybeMergeRuns() {
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  ProfileSpan merge_span("merge");
  if (merge_span.active()) merge_span.SetDetail("table=" + name_);
  ScopedTimer merge_timer(nullptr);  // records only when a merge happened

  // Pick the merge inputs and snapshot their delete vectors.
  SegmentChange change;
  std::vector<MergeInput> inputs;
  std::vector<std::shared_ptr<const BitVector>> scanned_deletes;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    std::vector<size_t> picked =
        PickRunsToMerge(runs_, options_.max_sorted_runs);
    if (picked.empty()) return false;
    for (size_t r : picked) {
      for (uint64_t id : runs_[r].segment_ids) {
        auto it = segments_.find(id);
        if (it == segments_.end()) continue;
        S2_ASSIGN_OR_RETURN(std::shared_ptr<Segment> segment,
                            OpenSegmentLocked(&it->second));
        change.old_ids.push_back(id);
        inputs.push_back(MergeInput{segment, it->second.meta.deletes});
        scanned_deletes.push_back(it->second.meta.deletes);
      }
    }
  }
  if (inputs.empty()) return false;

  // The heavy merge runs without any table lock (paper Section 4.2: merges
  // must not block concurrent updates; moves landing meanwhile are
  // reconciled below via the row mapping).
  SegmentMerger merger(options_.schema, options_.sort_key,
                       options_.segment_rows);
  RowMapping mapping;
  S2_ASSIGN_OR_RETURN(std::vector<std::vector<Row>> chunks,
                      merger.MergeRows(inputs, &mapping));

  TxnManager::TxnHandle h = txns_->Begin();
  Lsn lsn = log_->next_lsn();
  // A failure while materializing the merged segments must abort the merge
  // transaction (a leaked active txn pins vacuum/purge forever) and remove
  // the files already written.
  auto abort_merge = [&](const Status& s) -> Status {
    txns_->Abort(h.id);
    for (const SegmentMeta& meta : change.metas) {
      (void)files_->Remove(meta.file_name);
    }
    return s;
  };
  for (const std::vector<Row>& chunk : chunks) {
    uint64_t segment_id = next_segment_id_.fetch_add(1);
    auto built = BuildSegment(chunk, segment_id, lsn);
    if (!built.ok()) return abort_merge(built.status());
    change.metas.push_back(std::move(built->first));
    change.opened.push_back(std::move(built->second));
  }
  const size_t segments_in = change.old_ids.size();
  const size_t segments_out = change.metas.size();

  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    // Reconcile deletes that landed after our scan: map each newly set bit
    // through the row mapping onto the new segments (Section 4.2's "apply
    // all segment merges between the scan timestamp and the commit
    // timestamp to the deleted bits" — seen from the merge's side).
    std::vector<BitVector> new_deletes;
    new_deletes.reserve(change.metas.size());
    for (const SegmentMeta& meta : change.metas) {
      new_deletes.emplace_back(meta.num_rows);
    }
    bool any_new_delete = false;
    for (size_t i = 0; i < change.old_ids.size(); ++i) {
      auto it = segments_.find(change.old_ids[i]);
      if (it == segments_.end()) continue;
      const auto& current = it->second.meta.deletes;
      if (current == scanned_deletes[i] || current == nullptr) continue;
      for (uint32_t off = 0; off < current->size(); ++off) {
        bool now = current->Get(off);
        bool before =
            scanned_deletes[i] != nullptr && scanned_deletes[i]->Get(off);
        if (now && !before) {
          auto [seg_idx, new_off] = mapping.where[i][off];
          if (seg_idx != RowMapping::kDropped) {
            new_deletes[seg_idx].Set(new_off);
            any_new_delete = true;
          }
        }
      }
    }
    for (size_t s = 0; s < change.metas.size(); ++s) {
      if (any_new_delete && !new_deletes[s].NoneSet()) {
        change.metas[s].deletes =
            std::make_shared<const BitVector>(std::move(new_deletes[s]));
      }
    }

    LogRecord rec;
    rec.txn_id = h.id;
    rec.type = LogRecordType::kSegmentMerge;
    PutLengthPrefixed(&rec.payload, name_);
    PutVarint64(&rec.payload, change.old_ids.size());
    for (uint64_t id : change.old_ids) PutVarint64(&rec.payload, id);
    PutVarint64(&rec.payload, change.metas.size());
    for (const SegmentMeta& meta : change.metas) meta.EncodeTo(&rec.payload);
    log_->Append(rec);
    Status cs = log_->Commit(h.id);
    if (!cs.ok()) return abort_merge(cs);
    Timestamp cts = txns_->PrepareCommit(h.id);
    InstallSegmentsLocked(std::move(change), cts);
    txns_->FinishCommit(h.id, cts);
  }
  stats_.merges.Add();
  S2_HISTOGRAM("s2_merge_ns").Record(merge_timer.ElapsedNs());
  S2_JOURNAL("storage", "merge",
             "table=" + name_ + " segments_in=" + std::to_string(segments_in) +
                 " segments_out=" + std::to_string(segments_out));
  merge_span.Count("segments_in", static_cast<int64_t>(segments_in));
  merge_span.Count("segments_out", static_cast<int64_t>(segments_out));
  return true;
}

void UnifiedTable::Vacuum(Timestamp oldest_active) {
  rowstore_->Purge(oldest_active);
  std::vector<uint64_t> removed;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    for (auto it = segments_.begin(); it != segments_.end();) {
      SegmentEntry& entry = it->second;
      // Trim delete-vector history no snapshot can read anymore (keep the
      // newest version at or below the horizon).
      while (entry.delete_history.size() > 1 &&
             entry.delete_history[1].first <= oldest_active) {
        entry.delete_history.erase(entry.delete_history.begin());
      }
      if (entry.dropped_ts <= oldest_active) {
        (void)files_->Remove(entry.meta.file_name);
        removed.push_back(it->first);
        it = segments_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (removed.empty()) return;
  for (IndexState& index : indexes_) index.global->RemoveSegments(removed);
}

// ---------------------------------------------------------------------------
// Commit integration
// ---------------------------------------------------------------------------

void UnifiedTable::StampCommit(TxnId txn, Timestamp commit_ts) {
  std::vector<SegmentChange> staged;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = staged_.find(txn);
    if (it != staged_.end()) {
      staged = std::move(it->second);
      staged_.erase(it);
    }
  }
  if (staged.empty()) {
    rowstore_->CommitTxn(txn, commit_ts);
    return;
  }
  // Open the new segment files first, outside meta_mu_. A file that has
  // not arrived yet (replicas) stays null and opens at first read.
  for (SegmentChange& change : staged) {
    for (const SegmentMeta& meta : change.metas) {
      std::shared_ptr<Segment> opened;
      auto file = files_->Read(meta.file_name);
      if (file.ok()) {
        auto seg = Segment::Open(*file);
        if (seg.ok()) opened = *seg;
      }
      change.opened.push_back(std::move(opened));
    }
  }
  // Install staged replay changes at the commit ts, through the code and in
  // the order the master used, so a latest-state reader finds every row at
  // least once: a flush's segment goes in before its rows leave level 0,
  // and a move's delete vector after its row copies are stamped.
  auto install = [&](SegmentChange::Kind kind) {
    std::lock_guard<std::mutex> lock(meta_mu_);
    for (SegmentChange& change : staged) {
      if (change.kind != kind) continue;
      if (kind == SegmentChange::kDeletes) {
        InstallDeletesLocked(change, commit_ts);
      } else {
        InstallSegmentsLocked(std::move(change), commit_ts);
      }
    }
  };
  install(SegmentChange::kSegments);
  rowstore_->CommitTxn(txn, commit_ts);
  install(SegmentChange::kDeletes);
}

void UnifiedTable::AbortTxn(TxnId txn) {
  rowstore_->AbortTxn(txn);
  std::lock_guard<std::mutex> lock(meta_mu_);
  staged_.erase(txn);
}

// ---------------------------------------------------------------------------
// Snapshot & replay
// ---------------------------------------------------------------------------

void UnifiedTable::SerializeState(std::string* dst) const {
  options_.EncodeTo(dst);
  PutVarint64(dst, static_cast<uint64_t>(next_rowid_.load()));
  PutVarint64(dst, next_segment_id_.load());
  // A registered snapshot: GC never frees a version it can read.
  TxnManager::TxnHandle h = txns_->Begin();
  std::string rowstore_snap = rowstore_->SerializeSnapshot(h.read_ts);
  txns_->EndRead(h.id);
  PutLengthPrefixed(dst, rowstore_snap);
  std::lock_guard<std::mutex> lock(meta_mu_);
  uint64_t live = 0;
  for (const auto& [id, entry] : segments_) {
    if (entry.dropped_ts == kTsMax) ++live;
  }
  PutVarint64(dst, live);
  for (const auto& [id, entry] : segments_) {
    if (entry.dropped_ts == kTsMax) entry.meta.EncodeTo(dst);
  }
  PutVarint64(dst, runs_.size());
  for (const SortedRun& run : runs_) {
    PutVarint64(dst, run.segment_ids.size());
    for (uint64_t id : run.segment_ids) PutVarint64(dst, id);
    PutVarint64(dst, run.total_rows);
  }
}

Status UnifiedTable::RestoreState(Slice* input) {
  // `options_` was already decoded by the caller to construct the table;
  // skip past it.
  S2_RETURN_NOT_OK(TableOptions::DecodeFrom(input).status());
  S2_ASSIGN_OR_RETURN(uint64_t next_rowid, GetVarint64(input));
  S2_ASSIGN_OR_RETURN(uint64_t next_segment, GetVarint64(input));
  next_rowid_.store(static_cast<int64_t>(next_rowid));
  next_segment_id_.store(next_segment);
  S2_ASSIGN_OR_RETURN(Slice rowstore_snap, GetLengthPrefixed(input));
  S2_RETURN_NOT_OK(rowstore_->RestoreSnapshot(rowstore_snap, 1));
  S2_ASSIGN_OR_RETURN(uint64_t num_segments, GetVarint64(input));
  std::lock_guard<std::mutex> lock(meta_mu_);
  for (uint64_t s = 0; s < num_segments; ++s) {
    S2_ASSIGN_OR_RETURN(SegmentMeta meta, SegmentMeta::DecodeFrom(input));
    S2_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> file,
                        files_->Read(meta.file_name));
    S2_ASSIGN_OR_RETURN(std::shared_ptr<Segment> opened, Segment::Open(file));
    AddSegmentLocked(std::move(meta), /*created_ts=*/0, std::move(opened));
  }
  S2_ASSIGN_OR_RETURN(uint64_t num_runs, GetVarint64(input));
  for (uint64_t r = 0; r < num_runs; ++r) {
    SortedRun run;
    S2_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(input));
    for (uint64_t i = 0; i < n; ++i) {
      S2_ASSIGN_OR_RETURN(uint64_t id, GetVarint64(input));
      run.segment_ids.push_back(id);
    }
    S2_ASSIGN_OR_RETURN(run.total_rows, GetVarint64(input));
    runs_.push_back(std::move(run));
  }
  return Status::OK();
}

Status UnifiedTable::ReplayInsert(TxnId txn, Slice payload) {
  if (payload.empty()) return Status::Corruption("empty insert payload");
  bool system = (payload[0] & kFlagSystemRows) != 0;
  payload.RemovePrefix(1);
  S2_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&payload));
  for (uint64_t i = 0; i < count; ++i) {
    Row row;
    row.reserve(rowstore_schema_.num_columns());
    for (size_t c = 0; c < rowstore_schema_.num_columns(); ++c) {
      S2_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(&payload));
      row.push_back(std::move(v));
    }
    int64_t rowid = row.back().as_int();
    uint64_t next = static_cast<uint64_t>(next_rowid_.load());
    if (rowid >= 0 && static_cast<uint64_t>(rowid) >= next &&
        static_cast<uint64_t>(rowid) < (uint64_t{1} << 62)) {
      next_rowid_.store(rowid + 1);
    }
    Status st = system ? rowstore_->InsertMoved(txn, row)
                       : rowstore_->Insert(txn, kTsMax, row);
    if (st.IsAlreadyExists() && system) continue;
    S2_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Status UnifiedTable::ReplayDelete(TxnId txn, Slice payload) {
  S2_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&payload));
  for (uint64_t i = 0; i < count; ++i) {
    S2_ASSIGN_OR_RETURN(uint64_t z, GetVarint64(&payload));
    int64_t rowid = ZigZagDecode(z);
    S2_RETURN_NOT_OK(rowstore_->Delete(txn, kTsMax, {Value(rowid)}));
  }
  return Status::OK();
}

Status UnifiedTable::ReplaySegmentFlush(TxnId txn, Slice payload) {
  SegmentChange change;
  S2_ASSIGN_OR_RETURN(SegmentMeta meta, SegmentMeta::DecodeFrom(&payload));
  change.metas.push_back(std::move(meta));
  // The flushed rowids follow the meta, laid out as a delete record's.
  S2_RETURN_NOT_OK(ReplayDelete(txn, payload));
  std::lock_guard<std::mutex> lock(meta_mu_);
  staged_[txn].push_back(std::move(change));
  return Status::OK();
}

Status UnifiedTable::ReplayMetadataUpdate(TxnId txn, Slice payload) {
  SegmentChange change;
  change.kind = SegmentChange::kDeletes;
  S2_ASSIGN_OR_RETURN(change.segment_id, GetVarint64(&payload));
  S2_ASSIGN_OR_RETURN(BitVector bv, BitVector::DecodeFrom(&payload));
  change.deletes = std::make_shared<const BitVector>(std::move(bv));
  std::lock_guard<std::mutex> lock(meta_mu_);
  staged_[txn].push_back(std::move(change));
  return Status::OK();
}

Status UnifiedTable::ReplaySegmentMerge(TxnId txn, Slice payload) {
  SegmentChange change;
  S2_ASSIGN_OR_RETURN(uint64_t num_old, GetVarint64(&payload));
  for (uint64_t i = 0; i < num_old; ++i) {
    S2_ASSIGN_OR_RETURN(uint64_t id, GetVarint64(&payload));
    change.old_ids.push_back(id);
  }
  S2_ASSIGN_OR_RETURN(uint64_t num_new, GetVarint64(&payload));
  for (uint64_t i = 0; i < num_new; ++i) {
    S2_ASSIGN_OR_RETURN(SegmentMeta meta, SegmentMeta::DecodeFrom(&payload));
    change.metas.push_back(std::move(meta));
  }
  std::lock_guard<std::mutex> lock(meta_mu_);
  staged_[txn].push_back(std::move(change));
  return Status::OK();
}

}  // namespace s2
