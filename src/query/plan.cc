#include "query/plan.h"

#include <algorithm>
#include <iterator>

#include "query/hash_index.h"

namespace s2 {

namespace {

// A predicate passes a row when its value is neither NULL nor 0.
bool Passes(const Value& v) { return !v.is_null() && v.as_int() != 0; }

// Drops the rows of `batch` that `predicate` does not pass, moving the
// kept rows down in place.
void KeepPassing(const Expr& predicate, RowBatch* batch) {
  size_t kept = 0;
  for (size_t i = 0; i < batch->num_rows(); ++i) {
    if (!Passes(predicate.Eval(batch->row(i)))) continue;
    if (kept != i) std::ranges::move(batch->row(i), batch->row(kept).begin());
    ++kept;
  }
  batch->Resize(kept);
}

// Collects an operator's output rows and hands them to the sink in batches
// of kBatchRows.
class BatchBuilder {
 public:
  explicit BatchBuilder(const BatchSink& sink) : sink_(sink) {}

  // Appends a row of `width` NULLs (the operator's output width) for the
  // caller to fill; valid until the next AddRow or Flush.
  std::span<Value> AddRow(size_t width) {
    if (batch_.empty()) {
      batch_ = RowBatch(width);
      batch_.Reserve(kBatchRows);
    }
    return batch_.AddRow();
  }

  // Flushes once the batch holds kBatchRows rows. False when the sink
  // stopped.
  bool FlushIfFull() { return batch_.num_rows() < kBatchRows || Flush(); }

  // Hands the rows added so far to the sink. False when the sink stopped.
  bool Flush() {
    if (batch_.empty()) return true;
    bool keep_going = sink_(std::move(batch_));
    batch_ = RowBatch();
    return keep_going;
  }

 private:
  const BatchSink& sink_;
  RowBatch batch_;
};

}  // namespace

Result<std::vector<Row>> RunPlan(PlanNode* plan, QueryContext* ctx) {
  std::vector<Row> out;
  S2_RETURN_NOT_OK(plan->Execute(ctx, [&](RowBatch&& batch) {
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      std::span<Value> row = batch.row(i);
      out.emplace_back(std::make_move_iterator(row.begin()),
                       std::make_move_iterator(row.end()));
    }
    return true;
  }));
  return out;
}

// --- ScanOp ---

ScanOp::ScanOp(std::string table, std::vector<int> projection,
               std::unique_ptr<FilterNode> filter, ExprPtr post_filter)
    : table_(std::move(table)),
      projection_(std::move(projection)),
      filter_(std::move(filter)),
      post_filter_(std::move(post_filter)) {}

namespace {

// Writes `col` into cell `c` of every row of `out` (one row per column
// value); NULL cells stay as AddRow/Resize left them.
void CopyColumn(const ColumnVector& col, size_t c, RowBatch* out) {
  auto fill = [&](auto value_at) {
    for (size_t i = 0; i < out->num_rows(); ++i) {
      if (!col.IsNull(i)) out->row(i)[c] = value_at(i);
    }
  };
  switch (col.type()) {
    case DataType::kInt64:
      fill([&](size_t i) { return Value(col.IntAt(i)); });
      break;
    case DataType::kDouble:
      fill([&](size_t i) { return Value(col.DoubleAt(i)); });
      break;
    case DataType::kString:
      fill([&](size_t i) { return Value(col.StringAt(i)); });
      break;
  }
}

}  // namespace

Status ScanOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  S2_ASSIGN_OR_RETURN(UnifiedTable * table, ctx->partition->GetTable(table_));
  ScanOptions options = ctx->scan_options;
  options.projection = projection_;
  options.filter = filter_.get();
  TableScanner scanner(table, options);
  Status s = scanner.Scan(ctx->txn, ctx->read_ts, [&](const ScanBatch& batch) {
    RowBatch rows(batch.columns.size());
    rows.Resize(batch.num_rows);
    for (size_t c = 0; c < batch.columns.size(); ++c) {
      CopyColumn(batch.columns[c], c, &rows);
    }
    if (post_filter_ != nullptr) KeepPassing(*post_filter_, &rows);
    if (rows.empty()) return true;
    return sink(std::move(rows));
  });
  stats_ = scanner.stats();
  return s;
}

// --- FilterOp ---

FilterOp::FilterOp(PlanPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  return child_->Execute(ctx, [&](RowBatch&& batch) {
    KeepPassing(*predicate_, &batch);
    if (batch.empty()) return true;
    return sink(std::move(batch));
  });
}

// --- ProjectOp ---

ProjectOp::ProjectOp(PlanPtr child, std::vector<ExprPtr> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {}

Status ProjectOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  return child_->Execute(ctx, [&](RowBatch&& batch) {
    RowBatch out(exprs_.size());
    out.Resize(batch.num_rows());
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      std::span<const Value> row = batch.row(i);
      std::span<Value> projected = out.row(i);
      for (size_t e = 0; e < exprs_.size(); ++e) {
        projected[e] = exprs_[e]->Eval(row);
      }
    }
    return sink(std::move(out));
  });
}

// --- Hash-table helpers ---

namespace {

constexpr uint32_t kNone = HashIndex::kNone;

// A column reference is read from the row in place; any other expression
// is evaluated into `*scratch`.
const Value& Resolve(const Expr& e, std::span<const Value> row,
                     Value* scratch) {
  if (e.kind == Expr::Kind::kColumn) return row[e.column];
  *scratch = e.Eval(row);
  return *scratch;
}

// Reads a tuple of key expressions from rows. The KeyRef it returns points
// into the row or into scratch values reused from row to row, so it is
// valid until the next Read or until the row's values move.
class KeyReader {
 public:
  explicit KeyReader(const std::vector<ExprPtr>& exprs)
      : exprs_(exprs), scratch_(exprs.size()), values_(exprs.size()) {}

  KeyRef Read(std::span<const Value> row) {
    for (size_t i = 0; i < exprs_.size(); ++i) {
      values_[i] = &Resolve(*exprs_[i], row, &scratch_[i]);
    }
    return values_;
  }

 private:
  const std::vector<ExprPtr>& exprs_;
  std::vector<Value> scratch_;
  std::vector<const Value*> values_;
};

bool HasNull(KeyRef key) {
  return std::any_of(key.begin(), key.end(),
                     [](const Value* v) { return v->is_null(); });
}

// Received batches, kept as they arrived so their rows never move or
// regrow: row r (counted from 0 in arrival order) is a span into its
// batch.
class BatchStore {
 public:
  // `width` is the row width until the first batch arrives.
  explicit BatchStore(size_t width) : width_(width) {}

  // Keeps `batch`; its rows take the next ids.
  void Add(RowBatch&& batch) {
    width_ = batch.width();
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      rows_.push_back(batch.row(i).data());
    }
    batches_.push_back(std::move(batch));  // moving keeps the row storage
  }

  size_t size() const { return rows_.size(); }
  size_t width() const { return width_; }
  std::span<Value> row(size_t r) const { return {rows_[r], width_}; }

 private:
  size_t width_;
  std::vector<Value*> rows_;
  std::vector<RowBatch> batches_;
};

// Build side of a hash join: the build rows in arrival order, one index
// entry per distinct key (keys stored flat beside it, in first-arrival
// order), and the rows of each key chained in arrival order. Rows whose
// key has a NULL are kept but never match.
class JoinTable {
 public:
  // `width` is the build row width when no batch arrives.
  JoinTable(const std::vector<ExprPtr>& key_exprs, size_t width)
      : key_width_(key_exprs.size()), reader_(key_exprs), rows_(width) {}

  // Keeps the rows of `batch`, each after the rows already under its key.
  void Add(RowBatch&& batch) {
    uint32_t r = static_cast<uint32_t>(rows_.size());
    rows_.Add(std::move(batch));
    for (; r < rows_.size(); ++r) {
      next_.push_back(kNone);
      KeyRef key = reader_.Read(rows_.row(r));
      if (HasNull(key)) continue;
      auto matches = [&](uint32_t id) {
        return KeyEqual(key, stored_key(id));
      };
      auto [k, inserted] = index_.FindOrInsert(HashKey(key), matches);
      if (inserted) {
        for (const Value* v : key) keys_.push_back(*v);
        first_.push_back(r);
        last_.push_back(r);
      } else {
        next_[last_[k]] = r;
        last_[k] = r;
      }
    }
  }

  // First row under `key`, or kNone.
  uint32_t Find(KeyRef key) const {
    auto matches = [&](uint32_t id) { return KeyEqual(key, stored_key(id)); };
    uint32_t k = index_.Find(HashKey(key), matches);
    return k == kNone ? kNone : first_[k];
  }

  // Row after `r` under the same key, or kNone.
  uint32_t Next(uint32_t r) const { return next_[r]; }
  std::span<const Value> row(uint32_t r) const { return rows_.row(r); }
  size_t row_width() const { return rows_.width(); }

  // Distinct keys k = 0 .. num_keys() - 1, in first-arrival order.
  size_t num_keys() const { return first_.size(); }
  const Value* stored_key(uint32_t k) const { return &keys_[k * key_width_]; }
  uint32_t first(uint32_t k) const { return first_[k]; }

 private:
  size_t key_width_;
  KeyReader reader_;
  HashIndex index_;
  std::vector<Value> keys_;      // key_width_ values per key
  std::vector<uint32_t> first_;  // per key: first row
  std::vector<uint32_t> last_;   // per key: last row
  BatchStore rows_;
  std::vector<uint32_t> next_;   // per row: next row of its key
};

}  // namespace

// --- HashJoinOp ---

HashJoinOp::HashJoinOp(PlanPtr left, PlanPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys, JoinType type,
                       size_t right_width)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      type_(type),
      right_width_(right_width) {}

Status HashJoinOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  // Build phase on the right child.
  JoinTable table(right_keys_, right_width_);
  S2_RETURN_NOT_OK(right_->Execute(ctx, [&](RowBatch&& batch) {
    table.Add(std::move(batch));
    return true;
  }));

  // Probe phase on the left child.
  const bool filter_only =
      type_ == JoinType::kSemi || type_ == JoinType::kAnti;
  const size_t right_width = filter_only ? 0 : table.row_width();
  KeyReader probe_keys(left_keys_);
  BatchBuilder out(sink);
  S2_RETURN_NOT_OK(left_->Execute(ctx, [&](RowBatch&& batch) {
    const size_t left_width = batch.width();
    const size_t width = left_width + right_width;
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      std::span<Value> row = batch.row(i);
      KeyRef key = probe_keys.Read(row);
      uint32_t match = HasNull(key) ? kNone : table.Find(key);
      if (filter_only) {
        if ((match != kNone) == (type_ == JoinType::kSemi)) {
          std::ranges::move(row, out.AddRow(width).begin());
        }
      } else if (match != kNone) {
        // Copy the probe row for every match but the last, which takes
        // the probe row's values.
        for (uint32_t next = table.Next(match); next != kNone;
             match = next, next = table.Next(next)) {
          std::span<Value> joined = out.AddRow(width);
          std::ranges::copy(row, joined.begin());
          std::ranges::copy(table.row(match), joined.begin() + left_width);
          if (!out.FlushIfFull()) return false;
        }
        std::span<Value> joined = out.AddRow(width);
        std::ranges::move(row, joined.begin());
        std::ranges::copy(table.row(match), joined.begin() + left_width);
      } else if (type_ == JoinType::kLeft) {
        // The right columns stay NULL.
        std::ranges::move(row, out.AddRow(width).begin());
      }
      if (!out.FlushIfFull()) return false;
    }
    return true;
  }));
  out.Flush();  // a no-op once the sink has stopped: nothing is pending
  return Status::OK();
}

// --- IndexJoinOp ---

IndexJoinOp::IndexJoinOp(std::string table, std::vector<int> projection,
                         int probe_col, PlanPtr build, ExprPtr build_key,
                         std::unique_ptr<FilterNode> table_filter,
                         double max_key_fraction)
    : table_(std::move(table)),
      projection_(std::move(projection)),
      probe_col_(probe_col),
      build_(std::move(build)),
      build_key_(std::move(build_key)),
      table_filter_(std::move(table_filter)),
      max_key_fraction_(max_key_fraction) {}

Status IndexJoinOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  S2_ASSIGN_OR_RETURN(UnifiedTable * table, ctx->partition->GetTable(table_));

  // Keep the build side, grouped by key.
  const std::vector<ExprPtr> build_keys = {build_key_};
  JoinTable build_rows(build_keys, 0);
  S2_RETURN_NOT_OK(build_->Execute(ctx, [&](RowBatch&& batch) {
    build_rows.Add(std::move(batch));
    return true;
  }));
  stats_.distinct_keys = build_rows.num_keys();

  uint64_t table_rows = table->ApproxRowCount();
  bool use_index =
      static_cast<double>(build_rows.num_keys()) <=
      max_key_fraction_ * static_cast<double>(table_rows);
  stats_.used_index = use_index;

  const size_t table_width = projection_.size();
  const size_t width = table_width + build_rows.row_width();
  BatchBuilder out(sink);
  // The projected table row of the current match, reused row to row.
  Row projected(table_width);
  // Joins `projected` with the build rows chained from `match`.
  auto emit = [&](uint32_t match) -> bool {
    for (; match != kNone; match = build_rows.Next(match)) {
      std::span<Value> joined = out.AddRow(width);
      std::ranges::copy(projected, joined.begin());
      std::ranges::copy(build_rows.row(match), joined.begin() + table_width);
      if (!out.FlushIfFull()) return false;
    }
    return true;
  };

  if (use_index) {
    // Probe the secondary index once per distinct build key: the join
    // index filter, with zero false positives (unlike a bloom filter).
    for (uint32_t k = 0; k < build_rows.num_keys(); ++k) {
      ++stats_.index_probes;
      bool stopped = false;
      S2_RETURN_NOT_OK(table->LookupByIndex(
          ctx->txn, ctx->read_ts, {probe_col_}, {*build_rows.stored_key(k)},
          [&](const Row& row, const RowLocation&) {
            if (table_filter_ != nullptr && !table_filter_->EvalRow(row)) {
              return true;
            }
            for (size_t j = 0; j < table_width; ++j) {
              projected[j] = row[projection_[j]];
            }
            if (!emit(build_rows.first(k))) {
              stopped = true;
              return false;
            }
            return true;
          }));
      if (stopped) return Status::OK();
    }
  } else {
    // Fallback: full scan of the table, hash probe per row on the probe
    // column; only rows with a match are materialized.
    ScanOptions options = ctx->scan_options;
    options.filter = table_filter_.get();
    TableScanner scanner(table, options);  // full-row projection for filter
    Value key;
    const Value* key_ref = &key;
    S2_RETURN_NOT_OK(scanner.Scan(
        ctx->txn, ctx->read_ts, [&](const ScanBatch& batch) {
          const ColumnVector& probe = batch.columns[probe_col_];
          for (size_t i = 0; i < batch.num_rows; ++i) {
            if (probe.IsNull(i)) continue;
            key = probe.GetValue(i);
            uint32_t match = build_rows.Find(KeyRef(&key_ref, 1));
            if (match == kNone) continue;
            for (size_t j = 0; j < table_width; ++j) {
              projected[j] = batch.columns[projection_[j]].GetValue(i);
            }
            if (!emit(match)) return false;
          }
          return true;
        }));
  }
  out.Flush();
  return Status::OK();
}

// --- AggregateOp ---

AggregateOp::AggregateOp(PlanPtr child, std::vector<ExprPtr> group_by,
                         std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {}

namespace {

// One aggregate's state, in flat arrays indexed by group id.
class AggColumn {
 public:
  explicit AggColumn(AggKind kind) : kind_(kind) {}

  void AddGroup() {
    counts_.push_back(0);
    if (kind_ == AggKind::kSum || kind_ == AggKind::kAvg) sums_.push_back(0);
    if (kind_ == AggKind::kMin || kind_ == AggKind::kMax) {
      extremes_.emplace_back();
    }
  }

  // Folds a non-NULL input value into group `g`.
  void Update(uint32_t g, const Value& v) {
    switch (kind_) {
      case AggKind::kCount:
        ++counts_[g];
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        ++counts_[g];
        sums_[g] += v.AsNumeric();
        break;
      case AggKind::kMin:
        if (extremes_[g].is_null() || v.Compare(extremes_[g]) < 0) {
          extremes_[g] = v;
        }
        break;
      case AggKind::kMax:
        if (extremes_[g].is_null() || v.Compare(extremes_[g]) > 0) {
          extremes_[g] = v;
        }
        break;
      case AggKind::kCountDistinct: {
        // One index over (group, value) pairs; counts_ holds the number
        // of distinct values per group.
        auto [id, inserted] = distinct_.FindOrInsert(
            HashCombine(MixHash64(g), v.Hash()), [&](uint32_t id) {
              return distinct_groups_[id] == g &&
                     KeyEqual(distinct_values_[id], v);
            });
        if (inserted) {
          distinct_groups_.push_back(g);
          distinct_values_.push_back(v);
          ++counts_[g];
        }
        break;
      }
    }
  }

  // The aggregate's result for group `g`, once per group (MIN/MAX values
  // are moved out); `rows` is the group's row count, for COUNT(*).
  Value Finish(uint32_t g, uint64_t rows, bool count_star) {
    switch (kind_) {
      case AggKind::kCount:
        return Value(static_cast<int64_t>(count_star ? rows : counts_[g]));
      case AggKind::kCountDistinct:
        return Value(static_cast<int64_t>(counts_[g]));
      case AggKind::kSum:
        return counts_[g] == 0 ? Value::Null() : Value(sums_[g]);
      case AggKind::kAvg:
        return counts_[g] == 0
                   ? Value::Null()
                   : Value(sums_[g] / static_cast<double>(counts_[g]));
      case AggKind::kMin:
      case AggKind::kMax:
        return std::move(extremes_[g]);
    }
    return Value::Null();
  }

 private:
  AggKind kind_;
  std::vector<uint64_t> counts_;  // non-NULL inputs, or distinct values
  std::vector<double> sums_;      // SUM / AVG
  std::vector<Value> extremes_;   // MIN / MAX
  HashIndex distinct_;            // COUNT(DISTINCT)
  std::vector<uint32_t> distinct_groups_;
  std::vector<Value> distinct_values_;
};

}  // namespace

Status AggregateOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  const size_t width = group_by_.size();
  HashIndex groups;
  std::vector<Value> group_keys;      // width values per group
  std::vector<uint64_t> group_rows;   // rows per group
  std::vector<AggColumn> columns;
  columns.reserve(aggs_.size());
  for (const AggSpec& spec : aggs_) columns.emplace_back(spec.kind);
  auto add_group = [&] {
    group_rows.push_back(0);
    for (AggColumn& column : columns) column.AddGroup();
  };
  // With no GROUP BY, SQL semantics produce one row even for empty input.
  if (width == 0) add_group();

  KeyReader group_reader(group_by_);
  std::vector<Value> scratch(aggs_.size());
  S2_RETURN_NOT_OK(child_->Execute(ctx, [&](RowBatch&& batch) {
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      std::span<const Value> row = batch.row(i);
      uint32_t g = 0;
      if (width > 0) {
        KeyRef key = group_reader.Read(row);
        auto [id, inserted] =
            groups.FindOrInsert(HashKey(key), [&](uint32_t other) {
              return KeyEqual(key, &group_keys[other * width]);
            });
        if (inserted) {
          for (const Value* v : key) group_keys.push_back(*v);
          add_group();
        }
        g = id;
      }
      ++group_rows[g];
      for (size_t a = 0; a < aggs_.size(); ++a) {
        if (aggs_[a].expr == nullptr) continue;  // COUNT(*)
        const Value& v = Resolve(*aggs_[a].expr, row, &scratch[a]);
        if (!v.is_null()) columns[a].Update(g, v);
      }
    }
    return true;
  }));

  BatchBuilder out(sink);
  for (uint32_t g = 0; g < group_rows.size(); ++g) {
    std::span<Value> row = out.AddRow(width + aggs_.size());
    auto keys = group_keys.begin() + g * width;
    std::move(keys, keys + width, row.begin());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      row[width + a] =
          columns[a].Finish(g, group_rows[g], aggs_[a].expr == nullptr);
    }
    if (!out.FlushIfFull()) return Status::OK();
  }
  out.Flush();
  return Status::OK();
}

// --- SortOp ---

SortOp::SortOp(PlanPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {}

Status SortOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  BatchStore rows(0);
  S2_RETURN_NOT_OK(child_->Execute(ctx, [&](RowBatch&& batch) {
    rows.Add(std::move(batch));
    return true;
  }));
  // Evaluate every sort key once per row: column references point into
  // the row, other keys into a per-key array. Then sort row positions.
  const size_t n = rows.size();
  const size_t width = keys_.size();
  std::vector<std::vector<Value>> computed(width);
  std::vector<const Value*> key_values(n * width);
  for (size_t k = 0; k < width; ++k) {
    const Expr& e = *keys_[k].expr;
    if (e.kind != Expr::Kind::kColumn) {
      computed[k].reserve(n);
      for (size_t i = 0; i < n; ++i) computed[k].push_back(e.Eval(rows.row(i)));
    }
    for (size_t i = 0; i < n; ++i) {
      key_values[i * width + k] = e.kind == Expr::Kind::kColumn
                                      ? &rows.row(i)[e.column]
                                      : &computed[k][i];
    }
  }
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const Value* const* ka = &key_values[a * width];
    const Value* const* kb = &key_values[b * width];
    for (size_t k = 0; k < width; ++k) {
      int cmp = ka[k]->Compare(*kb[k]);
      if (cmp != 0) return keys_[k].descending ? cmp > 0 : cmp < 0;
    }
    return false;
  });
  // Gather the rows in sorted order, moving their values out.
  BatchBuilder out(sink);
  for (uint32_t i : order) {
    std::ranges::move(rows.row(i), out.AddRow(rows.width()).begin());
    if (!out.FlushIfFull()) return Status::OK();
  }
  out.Flush();
  return Status::OK();
}

// --- LimitOp ---

LimitOp::LimitOp(PlanPtr child, size_t limit)
    : child_(std::move(child)), limit_(limit) {}

Status LimitOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  size_t emitted = 0;
  return child_->Execute(ctx, [&](RowBatch&& batch) {
    if (emitted >= limit_) return false;
    if (emitted + batch.num_rows() > limit_) batch.Resize(limit_ - emitted);
    emitted += batch.num_rows();
    bool keep_going = sink(std::move(batch));
    return keep_going && emitted < limit_;
  });
}

// --- ValuesOp ---

ValuesOp::ValuesOp(std::vector<Row> rows)
    : rows_(rows.empty() ? 0 : rows.front().size()) {
  rows_.Reserve(rows.size());
  for (Row& row : rows) {
    if (row.size() != rows_.width()) {
      status_ = Status::InvalidArgument("ValuesOp rows differ in width");
      return;
    }
    std::ranges::move(row, rows_.AddRow().begin());
  }
}

Status ValuesOp::Execute(QueryContext* /*ctx*/, const BatchSink& sink) {
  S2_RETURN_NOT_OK(status_);
  if (!rows_.empty()) sink(RowBatch(rows_));  // the sink may move values out
  return Status::OK();
}

}  // namespace s2
