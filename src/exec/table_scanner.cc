#include "exec/table_scanner.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <iterator>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/profile.h"
#include "index/inverted_index.h"
#include "index/postings.h"

namespace s2 {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Lower clamp for measured clause cost in the (1 - P) / cost ordering.
/// Vectorized clauses routinely cost well under 1 ns/row; clamping at 1.0
/// (the old behaviour) collapsed every such clause to the same cost and
/// made the ordering selectivity-only. A small epsilon keeps the division
/// safe without erasing real sub-nanosecond cost differences.
constexpr double kMinCostNsPerRow = 1e-3;

/// Relative change in a clause's (1 - P) / cost ratio that triggers
/// re-sorting the residual clause order. Below this the previous order is
/// kept, so the sort no longer runs once per row block.
constexpr double kResortThreshold = 0.3;

/// Every ScanStats counter, declared once: Merge, the registry publish and
/// the profile attribution each loop over this table.
struct ScanCounter {
  uint64_t ScanStats::*field;
  const char* metric;       // registry counter (process total)
  const char* profile_key;  // counter on the ambient profile span
};
constexpr ScanCounter kScanCounters[] = {
    {&ScanStats::segments_total, "s2_scan_segments_total", "segments"},
    {&ScanStats::segments_skipped_zone, "s2_scan_segments_skipped_zone_total",
     "segments_skipped_zone"},
    {&ScanStats::segments_skipped_index,
     "s2_scan_segments_skipped_index_total", "segments_skipped_index"},
    {&ScanStats::rows_considered, "s2_scan_rows_considered_total",
     "rows_considered"},
    {&ScanStats::rows_output, "s2_scan_rows_output_total", "rows_output"},
    {&ScanStats::index_filter_uses, "s2_scan_index_filter_total",
     "index_filter_uses"},
    {&ScanStats::encoded_filter_uses, "s2_scan_encoded_filter_total",
     "encoded_filter_uses"},
    {&ScanStats::group_filter_uses, "s2_scan_group_filter_total",
     "group_filter_uses"},
    {&ScanStats::regular_filter_uses, "s2_scan_regular_filter_total",
     "regular_filter_uses"},
    {&ScanStats::reorder_sorts, "s2_scan_reorder_sorts_total",
     "reorder_sorts"},
};
constexpr size_t kNumScanCounters = std::size(kScanCounters);

/// The registry counters of kScanCounters, resolved once per process.
const std::array<Counter*, kNumScanCounters>& ScanCounterTotals() {
  static const std::array<Counter*, kNumScanCounters> totals = [] {
    std::array<Counter*, kNumScanCounters> t{};
    for (size_t i = 0; i < kNumScanCounters; ++i) {
      t[i] = MetricsRegistry::Global()->counter(kScanCounters[i].metric);
    }
    return t;
  }();
  return totals;
}

}  // namespace

void ScanStats::Merge(const ScanStats& other) {
  for (const ScanCounter& c : kScanCounters) this->*c.field += other.*c.field;
}

TableScanner::TableScanner(UnifiedTable* table, ScanOptions options)
    : table_(table), options_(std::move(options)) {
  if (options_.projection.empty()) {
    for (size_t c = 0; c < table_->schema().num_columns(); ++c) {
      projection_.push_back(static_cast<int>(c));
    }
  } else {
    projection_ = options_.projection;
  }
}

void TableScanner::FinishScan(const ScanStats& scan_stats) {
  stats_.Merge(scan_stats);
  // Publish to the registry, and attribute to the ambient profile span (the
  // scan span opened in Scan() is still the current node at every call
  // site).
  const bool profiled = ProfileCollector::Current().collector != nullptr;
  const auto& totals = ScanCounterTotals();
  for (size_t i = 0; i < kNumScanCounters; ++i) {
    const uint64_t v = scan_stats.*kScanCounters[i].field;
    totals[i]->Add(v);
    if (profiled) {
      ProfileCollector::CountHere(kScanCounters[i].profile_key,
                                  static_cast<int64_t>(v));
    }
  }
}

Status TableScanner::Scan(TxnId txn, Timestamp read_ts,
                          const std::function<bool(const ScanBatch&)>& cb) {
  S2_COUNTER("s2_scan_total").Add();
  S2_SCOPED_TIMER("s2_scan_ns");
  ProfileSpan scan_span("scan");
  if (scan_span.active()) scan_span.SetDetail("table=" + table_->name());
  bool stop = false;
  WorkerState root;

  // Level 0 rowstore: row-at-a-time filter (it is small by design). Always
  // scanned serially first so rowstore rows precede segment rows
  // deterministically.
  ScanBatch batch;
  for (int c : projection_) {
    batch.columns.emplace_back(table_->schema().column(c).type);
  }
  auto flush_batch = [&]() -> bool {
    if (batch.num_rows == 0) return true;
    root.stats.rows_output += batch.num_rows;
    bool keep_going = cb(batch);
    for (auto& col : batch.columns) col.Clear();
    batch.locations.clear();
    batch.num_rows = 0;
    return keep_going;
  };

  table_->ScanRowstore(txn, read_ts, [&](const Row& row,
                                         const RowLocation& loc) {
    ++root.stats.rows_considered;
    if (options_.filter != nullptr && !options_.filter->EvalRow(row)) {
      return true;
    }
    for (size_t i = 0; i < projection_.size(); ++i) {
      batch.columns[i].Append(row[projection_[i]]);
    }
    batch.locations.push_back(loc);
    ++batch.num_rows;
    if (batch.num_rows >= options_.block_rows) {
      if (!flush_batch()) {
        stop = true;
        return false;
      }
    }
    return true;
  });
  if (!stop && !flush_batch()) stop = true;
  if (Cancelled()) {
    FinishScan(root.stats);
    return Status::Aborted("scan cancelled");
  }
  if (stop) {
    FinishScan(root.stats);
    return Status::OK();
  }

  // Columnstore segments.
  S2_ASSIGN_OR_RETURN(std::vector<SegmentSnapshot> segments,
                      table_->GetSegments(read_ts));
  root.stats.segments_total += segments.size();

  bool parallel = options_.executor != nullptr &&
                  options_.executor->num_threads() > 1 && segments.size() > 1;
  if (parallel) {
    Status s = ScanSegmentsParallel(segments, cb, root);
    FinishScan(root.stats);
    return s;
  }

  BatchSink serial_sink = [&](ScanBatch&& b) { return cb(b); };
  for (const SegmentSnapshot& snap : segments) {
    if (Cancelled()) {
      FinishScan(root.stats);
      return Status::Aborted("scan cancelled");
    }
    Status s = ScanSegment(root, snap, serial_sink, &stop);
    if (!s.ok()) {
      FinishScan(root.stats);
      return s;
    }
    if (stop) break;
  }
  FinishScan(root.stats);
  return Status::OK();
}

Status TableScanner::ScanSegmentsParallel(
    const std::vector<SegmentSnapshot>& segments,
    const std::function<bool(const ScanBatch&)>& cb, WorkerState& root) {
  // Morsel-parallel scan: segments split into contiguous chunks, one per
  // worker; each worker scans its chunk with private adaptive state and
  // posts per-segment batch lists to a sequencer that delivers them to the
  // callback in segment order (single-threaded, deterministic).
  struct SegmentResult {
    std::vector<ScanBatch> batches;
    bool done = false;
  };
  const size_t num_segments = segments.size();
  size_t workers =
      std::min(options_.executor->num_threads(), num_segments);
  std::vector<WorkerState> states(workers);
  std::vector<SegmentResult> results(num_segments);
  std::mutex emit_mu;           // guards results/next_emit and the callback
  size_t next_emit = 0;
  std::atomic<bool> hard_stop{false};  // LIMIT hit or delivered error

  // Morsel workers run on pool threads; re-attach them to the scan span so
  // their per-segment profile nodes land under it.
  ProfileCollector::Attachment att = ProfileCollector::Current();
  Status s = options_.executor->ParallelFor(
      workers,
      [&](size_t w) -> Status {
        ProfileScope profile_scope(att.collector, att.node);
        WorkerState& ws = states[w];
        size_t begin = w * num_segments / workers;
        size_t end = (w + 1) * num_segments / workers;
        for (size_t i = begin; i < end; ++i) {
          if (hard_stop.load(std::memory_order_acquire)) return Status::OK();
          if (Cancelled()) return Status::Aborted("scan cancelled");
          std::vector<ScanBatch> local;
          bool seg_stop = false;
          Status seg_status = ScanSegment(
              ws, segments[i],
              [&](ScanBatch&& b) {
                local.push_back(std::move(b));
                // Keep producing unless the whole scan already stopped.
                return !hard_stop.load(std::memory_order_relaxed);
              },
              &seg_stop);
          // Sequencer: record this segment, then deliver every ready
          // segment in order. Errors surface at their in-order position so
          // the scan reports the same (first) error the serial scan would.
          std::lock_guard<std::mutex> lock(emit_mu);
          if (!seg_status.ok()) {
            hard_stop.store(true, std::memory_order_release);
            return seg_status;
          }
          results[i].batches = std::move(local);
          results[i].done = true;
          while (next_emit < num_segments && results[next_emit].done &&
                 !hard_stop.load(std::memory_order_acquire)) {
            for (ScanBatch& b : results[next_emit].batches) {
              if (!cb(b)) {
                hard_stop.store(true, std::memory_order_release);
                break;
              }
            }
            results[next_emit].batches.clear();
            ++next_emit;
          }
        }
        return Status::OK();
      },
      nullptr);
  for (const WorkerState& ws : states) root.stats.Merge(ws.stats);
  return s;
}

bool TableScanner::ZoneMapPasses(const FilterNode* conjunct,
                                 const Segment& segment) {
  if (conjunct->kind != FilterNode::Kind::kLeaf) return true;
  const ColumnStats& stats = segment.stats(conjunct->col);
  if (conjunct->is_in) {
    for (const Value& v : conjunct->in_list) {
      if (stats.MayContain(v)) return true;
    }
    return false;
  }
  if (conjunct->is_between) {
    return stats.MayOverlap(conjunct->value, conjunct->value2);
  }
  switch (conjunct->op) {
    case CmpOp::kEq:
      return stats.MayContain(conjunct->value);
    case CmpOp::kLt:
    case CmpOp::kLe:
      return stats.MayOverlap(Value::Null(), conjunct->value);
    case CmpOp::kGt:
    case CmpOp::kGe:
      return stats.MayOverlap(conjunct->value, Value::Null());
    case CmpOp::kNe:
      return true;
  }
  return true;
}

Result<bool> TableScanner::IndexBaseSelection(
    WorkerState& ws, const Segment& segment,
    const std::vector<const FilterNode*>& conjuncts,
    std::vector<const FilterNode*>* consumed, std::vector<uint32_t>* rows) {
  if (!options_.use_secondary_index) return false;
  // One sorted row-set per index-eligible conjunct; intersected at the end
  // (postings lists are sorted by construction; eq conjuncts could also
  // leapfrog via SeekTo, which LookupSegmentsByCols uses on the OLTP path).
  std::vector<std::vector<uint32_t>> sets;
  for (const FilterNode* leaf : conjuncts) {
    if (leaf->kind != FilterNode::Kind::kLeaf) continue;
    bool eligible =
        leaf->is_in || (!leaf->is_between && leaf->op == CmpOp::kEq);
    if (!eligible) continue;
    size_t num_keys = leaf->is_in ? leaf->in_list.size() : 1;
    // Section 5.1: too many keys relative to the data size makes index
    // probing a loss; dynamically disable the index for this clause.
    if (static_cast<double>(num_keys) >
        options_.max_index_key_fraction * segment.num_rows() + 1) {
      continue;
    }
    auto block = segment.aux_block(InvertedIndexBuilder::BlockName(leaf->col));
    if (!block.ok()) continue;
    S2_ASSIGN_OR_RETURN(InvertedIndexReader reader,
                        InvertedIndexReader::Open(*block));
    std::vector<uint32_t> matched;
    if (leaf->is_in) {
      std::vector<PostingsIterator> per_key;
      for (const Value& v : leaf->in_list) {
        S2_ASSIGN_OR_RETURN(PostingsIterator it, reader.Lookup(v));
        if (it.Valid()) per_key.push_back(std::move(it));
      }
      S2_RETURN_NOT_OK(UnionPostings(std::move(per_key), &matched));
    } else {
      S2_ASSIGN_OR_RETURN(PostingsIterator it, reader.Lookup(leaf->value));
      while (it.Valid()) {
        matched.push_back(it.row());
        it.Next();
      }
    }
    consumed->push_back(leaf);
    sets.push_back(std::move(matched));
    if (sets.back().empty()) break;  // empty intersection; stop probing
  }
  if (sets.empty()) return false;
  *rows = std::move(sets[0]);
  for (size_t i = 1; i < sets.size(); ++i) {
    std::vector<uint32_t> merged;
    std::set_intersection(rows->begin(), rows->end(), sets[i].begin(),
                          sets[i].end(), std::back_inserter(merged));
    *rows = std::move(merged);
  }
  ++ws.stats.index_filter_uses;
  return true;
}

Status TableScanner::ScanSegment(WorkerState& ws, const SegmentSnapshot& snap,
                                 const BatchSink& sink, bool* stop) {
  const Segment& segment = *snap.segment;
  const ScanStats seg_before = ws.stats;  // for the per-segment detail diff
  // The per-segment profile node's detail records the strategy decision;
  // the string is only built while a profile is attached.
  ProfileSpan seg_span("segment");
  const bool annotate = seg_span.active();
  std::vector<const FilterNode*> conjuncts;
  CollectTopLevelConjuncts(options_.filter, &conjuncts);

  // Step 1 (Section 5.1): segment skipping — zone maps on the conjuncts.
  if (options_.use_zone_maps) {
    for (const FilterNode* conjunct : conjuncts) {
      if (!ZoneMapPasses(conjunct, segment)) {
        ++ws.stats.segments_skipped_zone;
        if (annotate) {
          seg_span.SetDetail("seg=" + std::to_string(snap.id) +
                             " strategy=skip_zone");
        }
        return Status::OK();
      }
    }
  }

  // Step 2: base row selection via the per-segment inverted indexes.
  std::vector<uint32_t> rows;
  std::vector<const FilterNode*> consumed;
  S2_ASSIGN_OR_RETURN(
      bool used_index,
      IndexBaseSelection(ws, segment, conjuncts, &consumed, &rows));
  if (used_index && rows.empty()) {
    ++ws.stats.segments_skipped_index;
    if (annotate) {
      seg_span.SetDetail("seg=" + std::to_string(snap.id) +
                         " strategy=skip_index");
    }
    return Status::OK();
  }
  if (!used_index) {
    rows.resize(segment.num_rows());
    for (uint32_t r = 0; r < segment.num_rows(); ++r) rows[r] = r;
  }
  ws.stats.rows_considered += rows.size();

  // Step 3: drop deleted rows (cheap bit check, never merge-based).
  if (snap.deletes != nullptr) {
    std::vector<uint32_t> live;
    live.reserve(rows.size());
    for (uint32_t r : rows) {
      if (!snap.deletes->Get(r)) live.push_back(r);
    }
    rows = std::move(live);
  }

  // Step 4: residual filter clauses, blockwise with adaptive ordering.
  const FilterNode* filter = options_.filter;
  std::vector<const FilterNode*> residual;
  for (const FilterNode* conjunct : conjuncts) {
    if (std::find(consumed.begin(), consumed.end(), conjunct) ==
        consumed.end()) {
      residual.push_back(conjunct);
    }
  }
  if (filter != nullptr && !residual.empty()) {
    // "Costing is skipped if the filter condition is a conjunction with a
    // selective index filter" — just run the residuals in order.
    bool skip_costing =
        used_index && rows.size() * 20 < segment.num_rows();
    // Order conjuncts by (1 - P) / cost, descending (Section 5.2). The
    // ratios are snapshotted at each sort; the sort re-runs only when a
    // clause's ratio drifts materially from its snapshot, not every block.
    auto ratio_of = [&ws](const FilterNode* n) {
      const ClauseStats& s = ws.StatsFor(n);
      return (1.0 - s.selectivity()) /
             std::max(kMinCostNsPerRow, s.cost_ns_per_row);
    };
    std::vector<double> sorted_ratios;
    auto resort_residual = [&] {
      std::stable_sort(residual.begin(), residual.end(),
                       [&](const FilterNode* a, const FilterNode* b) {
                         return ratio_of(a) > ratio_of(b);
                       });
      sorted_ratios.clear();
      for (const FilterNode* n : residual) {
        sorted_ratios.push_back(ratio_of(n));
      }
      ++ws.stats.reorder_sorts;
    };
    std::vector<uint32_t> selected;
    size_t block = options_.block_rows;
    for (size_t begin = 0; begin < rows.size() && !*stop; begin += block) {
      if (Cancelled()) return Status::Aborted("scan cancelled");
      size_t end = std::min(rows.size(), begin + block);
      std::vector<uint32_t> block_rows(rows.begin() + begin,
                                       rows.begin() + end);
      if (!skip_costing && options_.adaptive_reorder) {
        if (sorted_ratios.empty()) {
          resort_residual();
        } else {
          for (size_t i = 0; i < residual.size(); ++i) {
            double now = ratio_of(residual[i]);
            double ref = std::max(std::abs(sorted_ratios[i]), 1e-12);
            if (std::abs(now - sorted_ratios[i]) / ref > kResortThreshold) {
              resort_residual();
              break;
            }
          }
        }
      }
      // Group filter: when every residual clause is barely selective,
      // evaluating the whole condition at once avoids per-clause overhead.
      bool all_wide = options_.use_group_filter && residual.size() > 1;
      for (const FilterNode* clause : residual) {
        if (ws.StatsFor(clause).rows_in < 512 ||
            ws.StatsFor(clause).selectivity() < 0.75) {
          all_wide = false;
        }
      }
      if (all_wide) {
        ++ws.stats.group_filter_uses;
        std::vector<int> cols_needed;
        for (const FilterNode* clause : residual) {
          std::vector<const FilterNode*> leaves;
          CollectTopLevelConjuncts(clause, &leaves);
          for (const FilterNode* leaf : leaves) {
            if (leaf->kind == FilterNode::Kind::kLeaf) {
              cols_needed.push_back(leaf->col);
            }
          }
        }
        std::sort(cols_needed.begin(), cols_needed.end());
        cols_needed.erase(
            std::unique(cols_needed.begin(), cols_needed.end()),
            cols_needed.end());
        std::unordered_map<int, ColumnVector> decoded;
        for (int c : cols_needed) {
          S2_ASSIGN_OR_RETURN(const ColumnReader* reader, segment.column(c));
          ColumnVector out(table_->schema().column(c).type);
          S2_RETURN_NOT_OK(reader->DecodeRows(block_rows, &out));
          decoded.emplace(c, std::move(out));
        }
        Row probe(table_->schema().num_columns());
        for (size_t i = 0; i < block_rows.size(); ++i) {
          for (int c : cols_needed) probe[c] = decoded.at(c).GetValue(i);
          bool pass = true;
          for (const FilterNode* clause : residual) {
            if (!clause->EvalRow(probe)) {
              pass = false;
              break;
            }
          }
          if (pass) selected.push_back(block_rows[i]);
        }
        continue;
      }
      std::vector<uint32_t> current = std::move(block_rows);
      for (const FilterNode* clause : residual) {
        if (current.empty()) break;
        S2_ASSIGN_OR_RETURN(
            current, EvalNode(ws, clause, segment, std::move(current)));
      }
      selected.insert(selected.end(), current.begin(), current.end());
    }
    rows = std::move(selected);
  }

  // One decision record per scanned segment reconstructs the strategy
  // choices (filter flavors used, reorder sorts) segment by segment on the
  // segment's profile node.
  if (annotate) {
    seg_span.SetDetail(
        "seg=" + std::to_string(snap.id) + " rows_out=" +
        std::to_string(rows.size()) + " index=" + (used_index ? "1" : "0") +
        " encoded=" +
        std::to_string(ws.stats.encoded_filter_uses -
                       seg_before.encoded_filter_uses) +
        " group=" +
        std::to_string(ws.stats.group_filter_uses -
                       seg_before.group_filter_uses) +
        " regular=" +
        std::to_string(ws.stats.regular_filter_uses -
                       seg_before.regular_filter_uses) +
        " sorts=" +
        std::to_string(ws.stats.reorder_sorts - seg_before.reorder_sorts));
  }
  seg_span.Count("rows_out", static_cast<int64_t>(rows.size()));
  return EmitRows(ws, snap, rows, sink, stop);
}

Result<std::vector<uint32_t>> TableScanner::EvalNode(
    WorkerState& ws, const FilterNode* node, const Segment& segment,
    std::vector<uint32_t> rows) {
  switch (node->kind) {
    case FilterNode::Kind::kLeaf:
      return EvalLeaf(ws, node, segment, std::move(rows));
    case FilterNode::Kind::kAnd: {
      std::vector<const FilterNode*> order;
      for (const auto& child : node->children) order.push_back(child.get());
      if (options_.adaptive_reorder) {
        std::stable_sort(order.begin(), order.end(),
                         [&](const FilterNode* a, const FilterNode* b) {
                           const ClauseStats& sa = ws.StatsFor(a);
                           const ClauseStats& sb = ws.StatsFor(b);
                           return (1.0 - sa.selectivity()) /
                                      std::max(kMinCostNsPerRow,
                                               sa.cost_ns_per_row) >
                                  (1.0 - sb.selectivity()) /
                                      std::max(kMinCostNsPerRow,
                                               sb.cost_ns_per_row);
                         });
      }
      for (const FilterNode* child : order) {
        if (rows.empty()) break;
        S2_ASSIGN_OR_RETURN(rows,
                            EvalNode(ws, child, segment, std::move(rows)));
      }
      return rows;
    }
    case FilterNode::Kind::kOr: {
      std::vector<const FilterNode*> order;
      for (const auto& child : node->children) order.push_back(child.get());
      if (options_.adaptive_reorder) {
        // For OR, evaluate the clause that accepts the most rows per unit
        // cost first: accepted rows skip all later clauses.
        std::stable_sort(order.begin(), order.end(),
                         [&](const FilterNode* a, const FilterNode* b) {
                           const ClauseStats& sa = ws.StatsFor(a);
                           const ClauseStats& sb = ws.StatsFor(b);
                           return sa.selectivity() /
                                      std::max(kMinCostNsPerRow,
                                               sa.cost_ns_per_row) >
                                  sb.selectivity() /
                                      std::max(kMinCostNsPerRow,
                                               sb.cost_ns_per_row);
                         });
      }
      std::vector<uint32_t> accepted;
      std::vector<uint32_t> remaining = std::move(rows);
      for (const FilterNode* child : order) {
        if (remaining.empty()) break;
        S2_ASSIGN_OR_RETURN(std::vector<uint32_t> pass,
                            EvalNode(ws, child, segment, remaining));
        std::vector<uint32_t> next_remaining;
        std::set_difference(remaining.begin(), remaining.end(), pass.begin(),
                            pass.end(), std::back_inserter(next_remaining));
        accepted.insert(accepted.end(), pass.begin(), pass.end());
        remaining = std::move(next_remaining);
      }
      std::sort(accepted.begin(), accepted.end());
      return accepted;
    }
  }
  return rows;
}

Result<std::vector<uint32_t>> TableScanner::EvalLeaf(
    WorkerState& ws, const FilterNode* leaf, const Segment& segment,
    std::vector<uint32_t> rows) {
  S2_ASSIGN_OR_RETURN(const ColumnReader* reader, segment.column(leaf->col));
  ClauseStats& stats = ws.StatsFor(leaf);
  uint64_t start_ns = NowNs();
  std::vector<uint32_t> out;
  out.reserve(rows.size());

  const ColumnVector* dict = reader->dictionary();
  bool encoded = options_.use_encoded_filters && dict != nullptr &&
                 dict->size() < rows.size();
  if (encoded) {
    // Encoded filter (Section 5.2): evaluate once per dictionary entry,
    // then test rows via their codes without decoding.
    ++ws.stats.encoded_filter_uses;
    std::vector<char> pass(dict->size());
    for (size_t d = 0; d < dict->size(); ++d) {
      pass[d] = leaf->EvalValue(dict->GetValue(d)) ? 1 : 0;
    }
    for (uint32_t r : rows) {
      if (reader->IsNull(r)) continue;
      uint32_t code = reader->CodeAt(r);
      if (code >= pass.size()) {
        return Status::Corruption("dict code out of range");
      }
      if (pass[code]) out.push_back(r);
    }
  } else {
    // Regular filter: selectively decode only the candidate rows (late
    // materialization) and evaluate.
    ++ws.stats.regular_filter_uses;
    ColumnVector values(reader->type());
    S2_RETURN_NOT_OK(reader->DecodeRows(rows, &values));
    for (size_t i = 0; i < rows.size(); ++i) {
      if (leaf->EvalValue(values.GetValue(i))) out.push_back(rows[i]);
    }
  }

  uint64_t elapsed = NowNs() - start_ns;
  stats.rows_in += rows.size();
  stats.rows_out += out.size();
  if (!rows.empty()) {
    double per_row = static_cast<double>(elapsed) /
                     static_cast<double>(rows.size());
    // Exponential moving average keeps the estimate per-segment adaptive.
    stats.cost_ns_per_row = 0.7 * stats.cost_ns_per_row + 0.3 * per_row;
  }
  return out;
}

Status TableScanner::EmitRows(WorkerState& ws, const SegmentSnapshot& snap,
                              const std::vector<uint32_t>& rows,
                              const BatchSink& sink, bool* stop) {
  if (rows.empty()) return Status::OK();
  size_t block = options_.block_rows;
  for (size_t begin = 0; begin < rows.size() && !*stop; begin += block) {
    size_t end = std::min(rows.size(), begin + block);
    std::vector<uint32_t> batch_rows(rows.begin() + begin, rows.begin() + end);
    ScanBatch batch;
    batch.num_rows = batch_rows.size();
    for (int c : projection_) {
      S2_ASSIGN_OR_RETURN(const ColumnReader* reader, snap.segment->column(c));
      ColumnVector out(table_->schema().column(c).type);
      S2_RETURN_NOT_OK(reader->DecodeRows(batch_rows, &out));
      batch.columns.push_back(std::move(out));
    }
    batch.locations.reserve(batch_rows.size());
    for (uint32_t r : batch_rows) {
      RowLocation loc;
      loc.in_rowstore = false;
      loc.segment_id = snap.id;
      loc.row_offset = r;
      batch.locations.push_back(loc);
    }
    ws.stats.rows_output += batch.num_rows;
    if (!sink(std::move(batch))) *stop = true;
  }
  return Status::OK();
}

}  // namespace s2
