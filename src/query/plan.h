#ifndef S2_QUERY_PLAN_H_
#define S2_QUERY_PLAN_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/table_scanner.h"
#include "query/expr.h"
#include "storage/partition.h"

namespace s2 {

/// Execution context: the partition to read and the snapshot to read at.
/// The cluster module fans a plan out across partitions and unions the
/// results (shared-nothing execution, paper Section 2).
struct QueryContext {
  Partition* partition = nullptr;
  TxnId txn = 0;
  Timestamp read_ts = 0;
  /// Adaptive-execution toggles applied to every scan in the plan.
  ScanOptions scan_options;
};

/// The unit operators exchange: `num_rows()` rows of `width()` values
/// each, row-major in one vector, so row i is the values
/// [i * width, (i + 1) * width). A batch costs one allocation however many
/// rows it holds. Every batch one operator emits has the same width.
///
/// A sink owns the batch it receives: it may keep it, or move values out
/// of its rows. A moved-from batch keeps its row count, so it must be
/// reassigned before it is used again. RunPlan is the only place rows
/// become `Row`s.
class RowBatch {
 public:
  explicit RowBatch(size_t width = 0) : width_(width) {}

  size_t width() const { return width_; }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  std::span<const Value> row(size_t i) const {
    return {values_.data() + i * width_, width_};
  }
  std::span<Value> row(size_t i) {
    return {values_.data() + i * width_, width_};
  }

  void Reserve(size_t rows) { values_.reserve(rows * width_); }

  /// Keeps the first `rows` rows, or appends rows of NULLs up to `rows`.
  void Resize(size_t rows) {
    values_.resize(rows * width_);
    num_rows_ = rows;
  }

  /// Appends a row of NULLs for the caller to fill. The span is valid
  /// until the batch next grows.
  std::span<Value> AddRow() {
    Resize(num_rows_ + 1);
    return row(num_rows_ - 1);
  }

 private:
  size_t width_;
  size_t num_rows_ = 0;
  std::vector<Value> values_;
};

/// Rows per batch for operators that build their own output (joins,
/// aggregation, sort). Scans pass on the scanner's batches, and filters,
/// projections and limits keep their input's batches.
inline constexpr size_t kBatchRows = 1024;

/// Receives batches of output rows (never an empty one); returns false to
/// stop (LIMIT).
using BatchSink = std::function<bool(RowBatch&&)>;

/// A push-model physical operator. Scans and filters below it are
/// vectorized over columns (exec module); operators above the scan
/// exchange RowBatches and evaluate expressions row by row over them.
class PlanNode {
 public:
  virtual ~PlanNode() = default;
  virtual Status Execute(QueryContext* ctx, const BatchSink& sink) = 0;
};

using PlanPtr = std::unique_ptr<PlanNode>;

/// Materializes a plan's full result, one `Row` per batch row.
Result<std::vector<Row>> RunPlan(PlanNode* plan, QueryContext* ctx);

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// Vectorized adaptive table scan (wraps exec::TableScanner). `filter` is
/// the pushed-down condition tree; `post_filter` handles residual
/// predicates the tree cannot express (e.g. column-vs-column comparisons),
/// evaluated against the projected row. Emits one RowBatch per scanner
/// batch, written straight from its columns.
class ScanOp : public PlanNode {
 public:
  ScanOp(std::string table, std::vector<int> projection,
         std::unique_ptr<FilterNode> filter = nullptr,
         ExprPtr post_filter = nullptr);
  Status Execute(QueryContext* ctx, const BatchSink& sink) override;

  const ScanStats& stats() const { return stats_; }

 private:
  std::string table_;
  std::vector<int> projection_;
  std::unique_ptr<FilterNode> filter_;
  ExprPtr post_filter_;
  ScanStats stats_;
};

/// Row filter on arbitrary expressions.
class FilterOp : public PlanNode {
 public:
  FilterOp(PlanPtr child, ExprPtr predicate);
  Status Execute(QueryContext* ctx, const BatchSink& sink) override;

 private:
  PlanPtr child_;
  ExprPtr predicate_;
};

/// Expression projection.
class ProjectOp : public PlanNode {
 public:
  ProjectOp(PlanPtr child, std::vector<ExprPtr> exprs);
  Status Execute(QueryContext* ctx, const BatchSink& sink) override;

 private:
  PlanPtr child_;
  std::vector<ExprPtr> exprs_;
};

enum class JoinType { kInner, kLeft, kSemi, kAnti };

/// Hash join: builds on the right child (keeping its batches as they
/// arrive), streams the left. Output schema:
/// left columns ++ right columns (inner/left; right padded with NULLs for
/// unmatched left rows) or left columns only (semi/anti).
///
/// Keys match when every column has the same type and the same bits (see
/// KeyEqual in query/hash_index.h): int 1 does not match double 1.0, and a
/// NULL key matches nothing. Output follows the left rows in arrival
/// order; the matches of one left row follow the right rows' arrival
/// order.
class HashJoinOp : public PlanNode {
 public:
  /// `right_width` is the arity of right-child rows (needed to pad NULLs
  /// when the build side is empty).
  HashJoinOp(PlanPtr left, PlanPtr right, std::vector<ExprPtr> left_keys,
             std::vector<ExprPtr> right_keys, JoinType type,
             size_t right_width);
  Status Execute(QueryContext* ctx, const BatchSink& sink) override;

 private:
  PlanPtr left_;
  PlanPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  JoinType type_;
  size_t right_width_;
};

/// The paper's "join index filter" (Section 5.1): joins a small build side
/// against a large indexed table by probing the table's secondary index per
/// distinct build key — no false positives, no full scan. Dynamically
/// disabled (falls back to a hash join over a full scan) when the build
/// side has too many distinct keys relative to the table size.
///
/// Output schema: table projection columns ++ build-side columns.
class IndexJoinOp : public PlanNode {
 public:
  struct Stats {
    bool used_index = false;
    size_t distinct_keys = 0;
    size_t index_probes = 0;
  };

  IndexJoinOp(std::string table, std::vector<int> projection, int probe_col,
              PlanPtr build, ExprPtr build_key,
              std::unique_ptr<FilterNode> table_filter = nullptr,
              double max_key_fraction = 0.05);
  Status Execute(QueryContext* ctx, const BatchSink& sink) override;

  const Stats& stats() const { return stats_; }

 private:
  std::string table_;
  std::vector<int> projection_;
  int probe_col_;
  PlanPtr build_;
  ExprPtr build_key_;
  std::unique_ptr<FilterNode> table_filter_;
  double max_key_fraction_;
  Stats stats_;
};

enum class AggKind { kCount, kCountDistinct, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggKind kind;
  ExprPtr expr;  // null for COUNT(*)
};

/// Hash aggregation. Output: group expressions then aggregate results, in
/// declaration order. Groups are keyed like HashJoinOp's keys (same type
/// and same bits; all NULL keys form one group) and come out in the order
/// of each group's first input row, so a caller that needs another order
/// must sort. With no GROUP BY there is exactly one output row, even for
/// empty input.
class AggregateOp : public PlanNode {
 public:
  AggregateOp(PlanPtr child, std::vector<ExprPtr> group_by,
              std::vector<AggSpec> aggs);
  Status Execute(QueryContext* ctx, const BatchSink& sink) override;

 private:
  PlanPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> aggs_;
};

struct SortKey {
  ExprPtr expr;
  bool descending = false;
};

/// Full, stable sort. Keeps the child's batches, evaluates each key once
/// per row, then gathers the rows in sorted order into new batches; rows
/// with equal keys keep their input order.
class SortOp : public PlanNode {
 public:
  SortOp(PlanPtr child, std::vector<SortKey> keys);
  Status Execute(QueryContext* ctx, const BatchSink& sink) override;

 private:
  PlanPtr child_;
  std::vector<SortKey> keys_;
};

class LimitOp : public PlanNode {
 public:
  LimitOp(PlanPtr child, size_t limit);
  Status Execute(QueryContext* ctx, const BatchSink& sink) override;

 private:
  PlanPtr child_;
  size_t limit_;
};

/// Re-emits a pre-materialized rowset (for scalar-subquery composition).
/// Rows of unequal width make Execute fail with InvalidArgument: a batch
/// has one width.
class ValuesOp : public PlanNode {
 public:
  explicit ValuesOp(std::vector<Row> rows);
  Status Execute(QueryContext* ctx, const BatchSink& sink) override;

 private:
  RowBatch rows_;
  Status status_;
};

}  // namespace s2

#endif  // S2_QUERY_PLAN_H_
