#include "query/plan.h"

#include <algorithm>
#include <iterator>

#include "query/hash_index.h"

namespace s2 {

namespace {
constexpr size_t kBatchRows = 1024;
}  // namespace

Result<std::vector<Row>> RunPlan(PlanNode* plan, QueryContext* ctx) {
  std::vector<Row> out;
  S2_RETURN_NOT_OK(plan->Execute(ctx, [&](std::vector<Row>&& batch) {
    for (Row& row : batch) out.push_back(std::move(row));
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

Status ScanOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  S2_ASSIGN_OR_RETURN(UnifiedTable * table, ctx->partition->GetTable(table_));
  ScanOptions options = ctx->scan_options;
  options.projection = projection_;
  options.filter = filter_.get();
  TableScanner scanner(table, options);
  bool keep_going = true;
  Status s = scanner.Scan(ctx->txn, ctx->read_ts, [&](const ScanBatch& batch) {
    std::vector<Row> rows;
    rows.reserve(batch.num_rows);
    for (size_t i = 0; i < batch.num_rows; ++i) {
      Row row;
      row.reserve(batch.columns.size());
      for (const ColumnVector& col : batch.columns) {
        row.push_back(col.GetValue(i));
      }
      if (post_filter_ != nullptr) {
        Value pass = post_filter_->Eval(row);
        if (pass.is_null() || pass.as_int() == 0) continue;
      }
      rows.push_back(std::move(row));
    }
    if (rows.empty()) return true;
    keep_going = sink(std::move(rows));
    return keep_going;
  });
  stats_ = scanner.stats();
  return s;
}

// --- FilterOp ---

FilterOp::FilterOp(PlanPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  return child_->Execute(ctx, [&](std::vector<Row>&& batch) {
    std::vector<Row> out;
    out.reserve(batch.size());
    for (Row& row : batch) {
      Value pass = predicate_->Eval(row);
      if (!pass.is_null() && pass.as_int() != 0) out.push_back(std::move(row));
    }
    if (out.empty()) return true;
    return sink(std::move(out));
  });
}

// --- ProjectOp ---

ProjectOp::ProjectOp(PlanPtr child, std::vector<ExprPtr> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {}

Status ProjectOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  return child_->Execute(ctx, [&](std::vector<Row>&& batch) {
    std::vector<Row> out;
    out.reserve(batch.size());
    for (const Row& row : batch) {
      Row projected;
      projected.reserve(exprs_.size());
      for (const ExprPtr& e : exprs_) projected.push_back(e->Eval(row));
      out.push_back(std::move(projected));
    }
    return sink(std::move(out));
  });
}

// --- Hash-table helpers ---

namespace {

constexpr uint32_t kNone = HashIndex::kNone;

// A column reference is read from the row in place; any other expression
// is evaluated into `*scratch`.
const Value& Resolve(const Expr& e, const Row& row, Value* scratch) {
  if (e.kind == Expr::Kind::kColumn) return row[e.column];
  *scratch = e.Eval(row);
  return *scratch;
}

// Reads a tuple of key expressions from rows. The KeyRef it returns points
// into the row or into scratch values reused from row to row, so it is
// valid until the next Read or until the row moves.
class KeyReader {
 public:
  explicit KeyReader(const std::vector<ExprPtr>& exprs)
      : exprs_(exprs), scratch_(exprs.size()), values_(exprs.size()) {}

  KeyRef Read(const Row& row) {
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

// Build side of a hash join: rows in arrival order, one index entry per
// distinct key (keys stored flat beside it, in first-arrival order), and
// the rows of each key chained in arrival order.
class JoinTable {
 public:
  explicit JoinTable(size_t key_width) : width_(key_width) {}

  // Adds `row` after the rows already under `key` (which may point into
  // `row`).
  void Add(KeyRef key, Row&& row) {
    uint32_t r = static_cast<uint32_t>(rows_.size());
    auto matches = [&](uint32_t id) { return KeyEqual(key, stored_key(id)); };
    auto [k, inserted] = index_.FindOrInsert(HashKey(key), matches);
    if (inserted) {
      for (const Value* v : key) keys_.push_back(*v);
      first_.push_back(r);
      last_.push_back(r);
    } else {
      next_[last_[k]] = r;
      last_[k] = r;
    }
    next_.push_back(kNone);
    rows_.push_back(std::move(row));
  }

  // First row under `key`, or kNone.
  uint32_t Find(KeyRef key) const {
    auto matches = [&](uint32_t id) { return KeyEqual(key, stored_key(id)); };
    uint32_t k = index_.Find(HashKey(key), matches);
    return k == kNone ? kNone : first_[k];
  }

  // Row after `r` under the same key, or kNone.
  uint32_t Next(uint32_t r) const { return next_[r]; }
  const Row& row(uint32_t r) const { return rows_[r]; }

  // Distinct keys k = 0 .. num_keys() - 1, in first-arrival order.
  size_t num_keys() const { return first_.size(); }
  const Value* stored_key(uint32_t k) const { return &keys_[k * width_]; }
  uint32_t first(uint32_t k) const { return first_[k]; }

 private:
  size_t width_;
  HashIndex index_;
  std::vector<Value> keys_;      // width_ values per key
  std::vector<uint32_t> first_;  // per key: first row
  std::vector<uint32_t> last_;   // per key: last row
  std::vector<Row> rows_;
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
  JoinTable table(right_keys_.size());
  KeyReader build_keys(right_keys_);
  S2_RETURN_NOT_OK(right_->Execute(ctx, [&](std::vector<Row>&& batch) {
    for (Row& row : batch) {
      KeyRef key = build_keys.Read(row);
      if (HasNull(key)) continue;  // NULL keys never match
      table.Add(key, std::move(row));
    }
    return true;
  }));

  // Probe phase on the left child.
  KeyReader probe_keys(left_keys_);
  std::vector<Row> out;
  bool keep_going = true;
  Status s = left_->Execute(ctx, [&](std::vector<Row>&& batch) {
    for (Row& row : batch) {
      KeyRef key = probe_keys.Read(row);
      uint32_t match = HasNull(key) ? kNone : table.Find(key);
      switch (type_) {
        case JoinType::kSemi:
          if (match != kNone) out.push_back(std::move(row));
          break;
        case JoinType::kAnti:
          if (match == kNone) out.push_back(std::move(row));
          break;
        case JoinType::kInner:
        case JoinType::kLeft:
          if (match != kNone) {
            // Copy the probe row for every match but the last, which
            // takes the probe row itself.
            for (uint32_t next = table.Next(match); next != kNone;
                 match = next, next = table.Next(next)) {
              const Row& right_row = table.row(match);
              Row joined;
              joined.reserve(row.size() + right_row.size());
              joined.insert(joined.end(), row.begin(), row.end());
              joined.insert(joined.end(), right_row.begin(), right_row.end());
              out.push_back(std::move(joined));
            }
            const Row& last = table.row(match);
            row.reserve(row.size() + last.size());
            row.insert(row.end(), last.begin(), last.end());
            out.push_back(std::move(row));
          } else if (type_ == JoinType::kLeft) {
            row.resize(row.size() + right_width_);  // NULL padding
            out.push_back(std::move(row));
          }
          break;
      }
      if (out.size() >= kBatchRows) {
        keep_going = sink(std::move(out));
        out.clear();
        if (!keep_going) return false;
      }
    }
    return true;
  });
  S2_RETURN_NOT_OK(s);
  if (keep_going && !out.empty()) sink(std::move(out));
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

  // Materialize the build side, grouped by key.
  JoinTable build_rows(1);
  Value scratch;
  S2_RETURN_NOT_OK(build_->Execute(ctx, [&](std::vector<Row>&& batch) {
    for (Row& row : batch) {
      const Value* key = &Resolve(*build_key_, row, &scratch);
      if (key->is_null()) continue;
      build_rows.Add(KeyRef(&key, 1), std::move(row));
    }
    return true;
  }));
  stats_.distinct_keys = build_rows.num_keys();

  uint64_t table_rows = table->ApproxRowCount();
  bool use_index =
      static_cast<double>(build_rows.num_keys()) <=
      max_key_fraction_ * static_cast<double>(table_rows);
  stats_.used_index = use_index;

  std::vector<Row> out;
  bool keep_going = true;
  // Joins `table_row` with the build rows chained from `match`.
  auto emit = [&](const Row& table_row, uint32_t match) -> bool {
    for (; match != kNone; match = build_rows.Next(match)) {
      const Row& build_row = build_rows.row(match);
      Row joined;
      joined.reserve(projection_.size() + build_row.size());
      for (int c : projection_) joined.push_back(table_row[c]);
      joined.insert(joined.end(), build_row.begin(), build_row.end());
      out.push_back(std::move(joined));
    }
    if (out.size() >= kBatchRows) {
      keep_going = sink(std::move(out));
      out.clear();
    }
    return keep_going;
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
            if (!emit(row, build_rows.first(k))) {
              stopped = true;
              return false;
            }
            return true;
          }));
      if (stopped) return Status::OK();
    }
  } else {
    // Fallback: full scan of the table, hash probe per row.
    ScanOptions options = ctx->scan_options;
    options.filter = table_filter_.get();
    TableScanner scanner(table, options);  // full-row projection for filter
    Status s = scanner.Scan(
        ctx->txn, ctx->read_ts, [&](const ScanBatch& batch) {
          for (size_t i = 0; i < batch.num_rows; ++i) {
            Row row;
            row.reserve(batch.columns.size());
            for (const ColumnVector& col : batch.columns) {
              row.push_back(col.GetValue(i));
            }
            const Value* key = &row[probe_col_];
            if (key->is_null()) continue;
            uint32_t match = build_rows.Find(KeyRef(&key, 1));
            if (match == kNone) continue;
            if (!emit(row, match)) return false;
          }
          return true;
        });
    S2_RETURN_NOT_OK(s);
  }
  if (keep_going && !out.empty()) sink(std::move(out));
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
  S2_RETURN_NOT_OK(child_->Execute(ctx, [&](std::vector<Row>&& batch) {
    for (const Row& row : batch) {
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

  std::vector<Row> out;
  for (uint32_t g = 0; g < group_rows.size(); ++g) {
    Row row;
    row.reserve(width + aggs_.size());
    auto keys = group_keys.begin() + g * width;
    row.insert(row.end(), std::make_move_iterator(keys),
               std::make_move_iterator(keys + width));
    for (size_t a = 0; a < aggs_.size(); ++a) {
      row.push_back(
          columns[a].Finish(g, group_rows[g], aggs_[a].expr == nullptr));
    }
    out.push_back(std::move(row));
    if (out.size() >= kBatchRows) {
      if (!sink(std::move(out))) return Status::OK();
      out.clear();
    }
  }
  if (!out.empty()) sink(std::move(out));
  return Status::OK();
}

// --- SortOp ---

SortOp::SortOp(PlanPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {}

Status SortOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  std::vector<Row> rows;
  S2_RETURN_NOT_OK(child_->Execute(ctx, [&](std::vector<Row>&& batch) {
    for (Row& row : batch) rows.push_back(std::move(row));
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
      for (const Row& row : rows) computed[k].push_back(e.Eval(row));
    }
    for (size_t i = 0; i < n; ++i) {
      key_values[i * width + k] = e.kind == Expr::Kind::kColumn
                                      ? &rows[i][e.column]
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
  std::vector<Row> sorted;
  sorted.reserve(n);
  for (uint32_t i : order) sorted.push_back(std::move(rows[i]));
  sink(std::move(sorted));
  return Status::OK();
}

// --- LimitOp ---

LimitOp::LimitOp(PlanPtr child, size_t limit)
    : child_(std::move(child)), limit_(limit) {}

Status LimitOp::Execute(QueryContext* ctx, const BatchSink& sink) {
  size_t emitted = 0;
  return child_->Execute(ctx, [&](std::vector<Row>&& batch) {
    if (emitted >= limit_) return false;
    if (emitted + batch.size() > limit_) batch.resize(limit_ - emitted);
    emitted += batch.size();
    bool keep_going = sink(std::move(batch));
    return keep_going && emitted < limit_;
  });
}

// --- ValuesOp ---

ValuesOp::ValuesOp(std::vector<Row> rows) : rows_(std::move(rows)) {}

Status ValuesOp::Execute(QueryContext* /*ctx*/, const BatchSink& sink) {
  std::vector<Row> copy = rows_;
  sink(std::move(copy));
  return Status::OK();
}

}  // namespace s2
