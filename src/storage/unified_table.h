#ifndef S2_STORAGE_UNIFIED_TABLE_H_
#define S2_STORAGE_UNIFIED_TABLE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "blob/data_file_store.h"
#include "columnstore/merger.h"
#include "columnstore/segment.h"
#include "columnstore/segment_meta.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/types.h"
#include "index/global_index.h"
#include "log/partition_log.h"
#include "rowstore/rowstore_table.h"
#include "storage/table_options.h"
#include "txn/txn_manager.h"

namespace s2 {

/// A consistent view of one columnstore segment at a snapshot: the opened
/// immutable file plus the delete bit-vector version visible at the
/// snapshot timestamp.
struct SegmentSnapshot {
  uint64_t id = 0;
  std::shared_ptr<Segment> segment;
  std::shared_ptr<const BitVector> deletes;  // null == nothing deleted
};

/// Running counters for benchmarks and tests. The StatCounter fields also
/// feed their registry counters.
struct TableStats {
  std::atomic<uint64_t> rows_inserted{0};
  std::atomic<uint64_t> rows_deleted{0};
  std::atomic<uint64_t> rows_updated{0};
  std::atomic<uint64_t> rows_moved{0};       // move-transaction copies
  StatCounter flushes{"s2_flush_total"};
  StatCounter merges{"s2_merge_total"};
  std::atomic<uint64_t> segments_created{0};
};

/// Unified table storage (paper Section 4): a columnstore LSM whose level 0
/// is the in-memory MVCC rowstore, with delete bit-vectors instead of
/// tombstones, two-level secondary indexes, uniqueness enforcement, and
/// row-level locking via move transactions.
///
/// The table does not own transactions: callers begin/commit through the
/// Partition, which stamps rowstore versions across all its tables and
/// writes the log commit record. Everything the table logs is replayable
/// (see Partition recovery).
class UnifiedTable {
 public:
  UnifiedTable(std::string name, TableOptions options, PartitionLog* log,
               DataFileStore* files, TxnManager* txns);
  ~UnifiedTable();

  UnifiedTable(const UnifiedTable&) = delete;
  UnifiedTable& operator=(const UnifiedTable&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return options_.schema; }
  const TableOptions& options() const { return options_; }
  const TableStats& stats() const { return stats_; }

  // ------------------------------------------------------------------
  // Writes (called within a Partition transaction)
  // ------------------------------------------------------------------

  /// Inserts a batch. With a unique key, performs the Section 4.1.2
  /// procedure: lock key values, probe the indexes for duplicates, then
  /// apply `policy` to conflicting rows. Returns the number of rows
  /// actually inserted/updated.
  Result<size_t> InsertRows(TxnId txn, Timestamp read_ts,
                            const std::vector<Row>& rows,
                            DupPolicy policy = DupPolicy::kError);

  /// Deletes/updates one located row. Rows in segments are first moved to
  /// the rowstore by an autonomous move transaction (Section 4.2), whose
  /// copy does not conflict with the caller's snapshot.
  Status DeleteLocated(TxnId txn, Timestamp read_ts, const RowLocation& loc);
  Status UpdateLocated(TxnId txn, Timestamp read_ts, const RowLocation& loc,
                       const Row& new_row);

  /// Convenience: locate by unique key (latest state) then delete/update.
  Status DeleteByKey(TxnId txn, Timestamp read_ts, const Row& key);
  Status UpdateByKey(TxnId txn, Timestamp read_ts, const Row& key,
                     const Row& new_row);

  // ------------------------------------------------------------------
  // Reads
  // ------------------------------------------------------------------

  /// Point/seek read through the secondary index machinery: level 0's
  /// RowStoreTable::Lookup (which picks its index, or scans) + global index
  /// -> per-segment postings. Segments consult the tuple index on exactly
  /// `index_cols` when there is one, else each column's index. cb returns
  /// false to stop.
  Status LookupByIndex(TxnId txn, Timestamp read_ts,
                       const std::vector<int>& index_cols, const Row& values,
                       const std::function<bool(const Row&,
                                                const RowLocation&)>& cb);

  /// Scans the level-0 rowstore (visible rows), yielding user rows and
  /// their locations.
  void ScanRowstore(TxnId txn, Timestamp read_ts,
                    const std::function<bool(const Row&, const RowLocation&)>&
                        cb) const;

  /// Segment set visible at the snapshot, with per-segment delete vectors.
  Result<std::vector<SegmentSnapshot>> GetSegments(Timestamp read_ts);

  /// Number of distinct hash-table probes a point lookup on `col` costs
  /// right now (the O(log N) the paper contrasts with O(N) per-segment
  /// checks).
  size_t IndexProbeTables(int col) const;

  /// Approximate total live rows (rowstore + segments) at latest.
  uint64_t ApproxRowCount() const;

  size_t NumSegments() const;
  size_t RowstoreRows() const { return rowstore_->num_nodes(); }

  // ------------------------------------------------------------------
  // Introspection (the engine's SystemTables layer renders these)
  // ------------------------------------------------------------------

  /// One catalog row per known segment (live and recently merged-away):
  /// metadata the zone maps use plus, when the segment file is open, its
  /// per-column encodings.
  struct SegmentDebugInfo {
    uint64_t id = 0;
    std::string file_name;
    uint32_t num_rows = 0;
    uint32_t deleted_rows = 0;
    bool live = true;  // false once merged away (awaiting vacuum)
    Timestamp created_ts = 0;
    std::string min_max;    // per-column "min..max" joined with ';'
    std::string encodings;  // per-column encodings when open, else empty
  };
  std::vector<SegmentDebugInfo> DebugSegments() const;

  /// Shape of the sorted-run tree (LSM state above level 0).
  struct RunDebugInfo {
    size_t num_segments = 0;
    uint64_t total_rows = 0;
  };
  std::vector<RunDebugInfo> DebugRuns() const;

  // ------------------------------------------------------------------
  // Maintenance (autonomous transactions)
  // ------------------------------------------------------------------

  /// Converts up to segment_rows committed rowstore rows into a segment.
  /// Returns the number of rows flushed (0 when nothing to flush).
  Result<size_t> FlushRowstore();

  /// Whether a flush is warranted per the flush threshold.
  bool NeedsFlush() const {
    return rowstore_->num_nodes() >= options_.flush_threshold;
  }

  /// Runs one round of LSM merging if the run count exceeds the budget.
  /// Returns true if a merge happened.
  Result<bool> MaybeMergeRuns();

  /// Version GC below `oldest_active`: purges level 0, trims delete-vector
  /// history, and drops merged-away segments (files and global-index
  /// entries) once no snapshot can read them.
  void Vacuum(Timestamp oldest_active);

  // ------------------------------------------------------------------
  // Commit integration (called by Partition)
  // ------------------------------------------------------------------

  void StampCommit(TxnId txn, Timestamp commit_ts);
  void AbortTxn(TxnId txn);

  // ------------------------------------------------------------------
  // Snapshot & replay (called by Partition recovery)
  // ------------------------------------------------------------------

  void SerializeState(std::string* dst) const;
  Status RestoreState(Slice* input);

  Status ReplayInsert(TxnId txn, Slice payload);
  Status ReplayDelete(TxnId txn, Slice payload);
  Status ReplaySegmentFlush(TxnId txn, Slice payload);
  Status ReplayMetadataUpdate(TxnId txn, Slice payload);
  Status ReplaySegmentMerge(TxnId txn, Slice payload);

 private:
  struct SegmentEntry {
    SegmentMeta meta;  // meta.deletes mirrors the latest delete version
    Timestamp created_ts = 0;
    Timestamp dropped_ts = kTsMax;
    std::shared_ptr<Segment> segment;  // lazily opened
    /// Whether global-index entries were registered (replicas may install
    /// metadata before the data file arrives; indexing then happens at
    /// first open).
    bool indexed = false;
    // Delete vector history, ascending commit ts (for snapshot reads).
    std::vector<std::pair<Timestamp, std::shared_ptr<const BitVector>>>
        delete_history;
  };

  /// A global index and the aux block its entries point into: one per
  /// indexed column, and one per multi-column index or unique key (the
  /// tuple entry, whose term is the tuple's value encodings concatenated).
  struct IndexState {
    std::vector<int> cols;  // single column, or a tuple for multi-col
    std::string block;      // aux-block name of the per-segment index
    std::unique_ptr<GlobalIndex> global;
  };

  // Hidden rowid construction. Fresh inserts get sequential ids; moved
  // rows get a deterministic id derived from their segment location, so
  // concurrent movers of the same row collide on the same rowstore key
  // (the rowstore primary key acts as the row-lock manager, Section 4.2).
  int64_t NextRowId() { return next_rowid_.fetch_add(1); }
  static int64_t MovedRowId(uint64_t segment_id, uint32_t offset) {
    return static_cast<int64_t>((uint64_t{1} << 62) | (segment_id << 24) |
                                offset);
  }

  Row WithRowId(const Row& row, int64_t rowid) const;

  /// Whether a reader at ts sees the segment (see segments_).
  static bool VisibleAt(const SegmentEntry& entry, Timestamp ts) {
    return entry.created_ts <= ts &&
           (entry.dropped_ts == kTsMax || ts < entry.dropped_ts);
  }
  /// The index on exactly `cols` (one column, or a tuple), or null when
  /// there is none.
  const IndexState* FindIndex(std::span<const int> cols) const;

  Result<std::shared_ptr<Segment>> OpenSegmentLocked(SegmentEntry* entry);
  std::shared_ptr<const BitVector> DeletesAt(const SegmentEntry& entry,
                                             Timestamp ts) const;

  /// Latest-state duplicate probe for uniqueness enforcement.
  Result<bool> FindDuplicate(TxnId txn, const Row& key_values,
                             RowLocation* loc);

  /// Ends one of the table's own (move or flush) transactions without
  /// commit: rolls back its rowstore versions, then releases its locks and
  /// snapshot. Returns `status`.
  Status AbortOwnTxn(TxnId txn, Status status);

  /// DeleteLocated (`new_row` null) and UpdateLocated after their checks:
  /// moves a segment row to level 0, writes it there and logs the write.
  Status WriteLocated(TxnId txn, Timestamp read_ts, const RowLocation& loc,
                      const Row* new_row);

  /// Moves segment rows (ascending `offsets`) into the rowstore in an
  /// autonomous transaction that commits immediately (logical table content
  /// unchanged). The caller then mutates the moved copies under their own
  /// row locks. A row that fails to read aborts the move with its status.
  Status MoveRows(uint64_t segment_id,
                  const std::vector<uint32_t>& offsets);

  /// Index-driven segment-row lookup shared by LookupByIndex and
  /// uniqueness checks: per-column global index probes narrowed by the
  /// tuple index and by the catalog at read_ts (all under one meta_mu_
  /// hold, so an install is seen whole or not at all), then postings
  /// intersection and delete-bit check. Reads no row: cb gets each match's
  /// (segment, segment_id, offset) and returns false to stop; returns
  /// whether any row was found.
  Result<bool> LookupSegmentsByCols(
      const std::vector<int>& cols, const Row& values, Timestamp read_ts,
      const std::function<bool(const Segment&, uint64_t, uint32_t)>& cb);

  /// One committed segment-metadata change, as the master's flush, move
  /// or merge builds it and as replay stages it until the commit record.
  /// kSegments: new segments (a flush's one, a merge's outputs) become one
  /// sorted run that replaces every run holding an old id (a flush has
  /// none). kDeletes: a move transaction's new delete vector.
  struct SegmentChange {
    enum Kind { kSegments, kDeletes } kind = kSegments;
    std::vector<uint64_t> old_ids;           // kSegments
    std::vector<SegmentMeta> metas;          // kSegments
    /// kSegments, one per meta when installed; a null segment opens (and
    /// indexes) at first read.
    std::vector<std::shared_ptr<Segment>> opened;
    uint64_t segment_id = 0;                   // kDeletes
    std::shared_ptr<const BitVector> deletes;  // kDeletes
  };

  /// Install a change committed at commit_ts, one function per kind. The
  /// master calls them between PrepareCommit and FinishCommit, replay from
  /// StampCommit; they cannot fail. Expect meta_mu_ held.
  void InstallSegmentsLocked(SegmentChange change, Timestamp commit_ts);
  void InstallDeletesLocked(const SegmentChange& change,
                            Timestamp commit_ts);

  /// Adds one segment, already live, to the catalog with its global-index
  /// entries when opened (a segment whose entries fail to register stays
  /// unindexed and retries at first open). Expects meta_mu_ held.
  void AddSegmentLocked(SegmentMeta meta, Timestamp created_ts,
                        std::shared_ptr<Segment> opened);

  /// Builds the segment of `rows` (already sorted) with its aux index
  /// blocks, writes its data file and opens it. Returns the meta and the
  /// open segment, which shares the written bytes. Leaves no file behind
  /// on failure.
  Result<std::pair<SegmentMeta, std::shared_ptr<Segment>>> BuildSegment(
      const std::vector<Row>& rows, uint64_t segment_id, Lsn lsn);

  /// Rebuilds global-index entries for a segment from its aux blocks.
  Status AddSegmentToIndexes(uint64_t segment_id,
                             const std::shared_ptr<Segment>& segment);

  std::string name_;
  TableOptions options_;
  PartitionLog* log_;
  DataFileStore* files_;
  TxnManager* txns_;

  Schema rowstore_schema_;  // user schema + hidden $rowid column
  std::unique_ptr<RowStoreTable> rowstore_;

  /// The catalog: a reader at ts sees the segments with created_ts <= ts <
  /// dropped_ts. Scans and index lookups both decide by it under meta_mu_.
  mutable std::mutex meta_mu_;
  std::map<uint64_t, SegmentEntry> segments_;
  std::vector<SortedRun> runs_;
  std::atomic<int64_t> next_rowid_{1};
  std::atomic<uint64_t> next_segment_id_{1};

  std::vector<IndexState> indexes_;  // columns first, then tuples

  /// Replayed segment changes staged per transaction; installed with the
  /// commit timestamp in StampCommit.
  std::map<TxnId, std::vector<SegmentChange>> staged_;  // guarded by meta_mu_

  std::mutex maintenance_mu_;  // serializes flush/merge
  TableStats stats_;
};

}  // namespace s2

#endif  // S2_STORAGE_UNIFIED_TABLE_H_
