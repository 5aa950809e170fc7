#ifndef S2_EXEC_TABLE_SCANNER_H_
#define S2_EXEC_TABLE_SCANNER_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "exec/filter.h"
#include "storage/unified_table.h"

namespace s2 {

/// Feature toggles and tuning for adaptive scans. The ablation benchmarks
/// flip these to quantify each Section 5 mechanism.
struct ScanOptions {
  /// Columns to materialize; empty = all columns.
  std::vector<int> projection;
  /// Filter condition; null = no filter.
  const FilterNode* filter = nullptr;

  bool use_zone_maps = true;         // min/max segment elimination
  bool use_secondary_index = true;   // postings-driven row selection
  bool use_encoded_filters = true;   // evaluate on dictionary codes
  bool use_group_filter = true;      // whole-condition eval on wide passes
  bool adaptive_reorder = true;      // (1-P)/cost clause ordering

  /// An index clause is disabled when it needs more key probes than this
  /// fraction of the segment's rows (Section 5.1: IN-lists with too many
  /// keys fall back to scanning).
  double max_index_key_fraction = 0.05;

  /// Rows per vectorized block; selectivity feedback flows block to block.
  size_t block_rows = 4096;

  /// When set (and sized > 1 thread), segments are scanned in parallel
  /// morsels on this executor; batches are still delivered to the callback
  /// in segment order by a sequencer, so results are byte-identical to the
  /// serial scan. Null = serial scan on the calling thread.
  Executor* executor = nullptr;
  /// Checked between segments and row blocks; a tripped token aborts the
  /// scan with Status::Aborted (query fan-out cancels siblings on error).
  const CancelToken* cancel = nullptr;
};

/// Per-scan counters. A value type so parallel scans can accumulate one
/// instance per worker and Merge() them once at the end instead of sharing
/// hot atomics across morsel workers.
struct ScanStats {
  uint64_t segments_total = 0;
  uint64_t segments_skipped_zone = 0;
  uint64_t segments_skipped_index = 0;
  uint64_t rows_considered = 0;
  uint64_t rows_output = 0;
  uint64_t index_filter_uses = 0;
  uint64_t encoded_filter_uses = 0;
  uint64_t group_filter_uses = 0;
  uint64_t regular_filter_uses = 0;
  /// Times the residual-clause order was recomputed (the sort runs only
  /// when clause estimates move materially, not per row block).
  uint64_t reorder_sorts = 0;

  /// Adds every counter of `other`.
  void Merge(const ScanStats& other);
};

/// One emitted batch: the projected columns (aligned) plus each row's
/// storage location (for UPDATE/DELETE driving).
struct ScanBatch {
  std::vector<ColumnVector> columns;   // size == projection size
  std::vector<RowLocation> locations;  // aligned with rows
  size_t num_rows = 0;
};

/// Adaptive vectorized scan over one unified table at a snapshot (paper
/// Section 5): segment skipping via secondary indexes then zone maps,
/// per-segment filter-strategy selection (regular / encoded / group /
/// index), and dynamic clause reordering by (1 - P) / cost with
/// selectivity estimates fed back from previous blocks.
class TableScanner {
 public:
  TableScanner(UnifiedTable* table, ScanOptions options);

  /// Runs the scan. `cb` is invoked per batch — always from one thread at
  /// a time and in deterministic segment order, even when segments are
  /// scanned in parallel — and returns false to stop early (LIMIT).
  /// Thread-compatible: create one scanner per thread.
  Status Scan(TxnId txn, Timestamp read_ts,
              const std::function<bool(const ScanBatch&)>& cb);

  const ScanStats& stats() const { return stats_; }

 private:
  /// Running per-clause estimates (selectivity and per-row cost) shared
  /// across segments and blocks of one scan.
  struct ClauseStats {
    uint64_t rows_in = 0;
    uint64_t rows_out = 0;
    double cost_ns_per_row = 50.0;  // prior
    double selectivity() const {
      return rows_in == 0 ? 0.5
                          : static_cast<double>(rows_out) /
                                static_cast<double>(rows_in);
    }
  };

  /// Mutable scan state owned by one worker: its counters plus its
  /// adaptive clause estimates. Parallel scans give each morsel worker its
  /// own WorkerState (reordering adapts within the worker's morsel); the
  /// stats halves are merged when the scan completes.
  struct WorkerState {
    ScanStats stats;
    std::unordered_map<const FilterNode*, ClauseStats> clause_stats;

    ClauseStats& StatsFor(const FilterNode* node) {
      return clause_stats[node];
    }
  };

  /// Internal emission: batches are moved to the sink (the serial path
  /// forwards to the user callback; the parallel path buffers them for
  /// in-order delivery).
  using BatchSink = std::function<bool(ScanBatch&&)>;

  Status ScanSegment(WorkerState& ws, const SegmentSnapshot& snap,
                     const BatchSink& sink, bool* stop);

  Status ScanSegmentsParallel(const std::vector<SegmentSnapshot>& segments,
                              const std::function<bool(const ScanBatch&)>& cb,
                              WorkerState& root);

  /// Evaluates `node` over `rows` (ascending offsets within the segment),
  /// returning the surviving offsets.
  Result<std::vector<uint32_t>> EvalNode(WorkerState& ws,
                                         const FilterNode* node,
                                         const Segment& segment,
                                         std::vector<uint32_t> rows);

  Result<std::vector<uint32_t>> EvalLeaf(WorkerState& ws,
                                         const FilterNode* leaf,
                                         const Segment& segment,
                                         std::vector<uint32_t> rows);

  bool ZoneMapPasses(const FilterNode* conjunct, const Segment& segment);

  /// Index-driven base selection for the segment; returns true when an
  /// index was applied (and fills *rows), false to scan all rows.
  Result<bool> IndexBaseSelection(WorkerState& ws, const Segment& segment,
                                  const std::vector<const FilterNode*>&
                                      conjuncts,
                                  std::vector<const FilterNode*>* consumed,
                                  std::vector<uint32_t>* rows);

  Status EmitRows(WorkerState& ws, const SegmentSnapshot& snap,
                  const std::vector<uint32_t>& rows, const BatchSink& sink,
                  bool* stop);

  /// Folds one scan's counters into stats_ and the process-wide registry.
  void FinishScan(const ScanStats& scan_stats);

  bool Cancelled() const {
    return options_.cancel != nullptr && options_.cancel->cancelled();
  }

  UnifiedTable* table_;
  ScanOptions options_;
  std::vector<int> projection_;
  ScanStats stats_;
};

}  // namespace s2

#endif  // S2_EXEC_TABLE_SCANNER_H_
