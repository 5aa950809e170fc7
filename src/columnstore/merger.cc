#include "columnstore/merger.h"

#include <algorithm>
#include <queue>

namespace s2 {

namespace {

/// Decoded input segment: all columns materialized for the merge.
struct DecodedInput {
  std::vector<ColumnVector> columns;
  const BitVector* deletes;
  uint32_t num_rows;
};

int CompareRowsAt(const std::vector<DecodedInput>& inputs,
                  const std::vector<int>& sort_cols,
                  std::pair<size_t, uint32_t> a,
                  std::pair<size_t, uint32_t> b) {
  for (int c : sort_cols) {
    Value va = inputs[a.first].columns[c].GetValue(a.second);
    Value vb = inputs[b.first].columns[c].GetValue(b.second);
    int cmp = va.Compare(vb);
    if (cmp != 0) return cmp;
  }
  // Tie-break by input index for a stable merge.
  if (a.first != b.first) return a.first < b.first ? -1 : 1;
  return 0;
}

}  // namespace

SegmentMerger::SegmentMerger(Schema schema, std::vector<int> sort_cols,
                             uint32_t max_rows_per_segment)
    : schema_(std::move(schema)),
      sort_cols_(std::move(sort_cols)),
      max_rows_(max_rows_per_segment == 0 ? 1 : max_rows_per_segment) {}

Result<std::vector<std::string>> SegmentMerger::Merge(
    const std::vector<MergeInput>& inputs, RowMapping* mapping) const {
  S2_ASSIGN_OR_RETURN(std::vector<std::vector<Row>> chunks,
                      MergeRows(inputs, mapping));
  std::vector<std::string> out_files;
  out_files.reserve(chunks.size());
  for (const std::vector<Row>& chunk : chunks) {
    SegmentBuilder builder(schema_);
    for (const Row& row : chunk) builder.AddRow(row);
    S2_ASSIGN_OR_RETURN(std::string file, builder.Finish());
    out_files.push_back(std::move(file));
  }
  return out_files;
}

Result<std::vector<std::vector<Row>>> SegmentMerger::MergeRows(
    const std::vector<MergeInput>& inputs, RowMapping* mapping) const {
  // Decode every input column once.
  std::vector<DecodedInput> decoded;
  decoded.reserve(inputs.size());
  for (const MergeInput& input : inputs) {
    DecodedInput d;
    d.num_rows = input.segment->num_rows();
    d.deletes = input.deletes.get();
    d.columns.reserve(schema_.num_columns());
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      S2_ASSIGN_OR_RETURN(const ColumnReader* reader, input.segment->column(c));
      ColumnVector col(schema_.column(c).type);
      S2_RETURN_NOT_OK(reader->DecodeAll(&col));
      d.columns.push_back(std::move(col));
    }
    decoded.push_back(std::move(d));
  }

  if (mapping != nullptr) {
    mapping->where.clear();
    for (const DecodedInput& d : decoded) {
      mapping->where.emplace_back(
          d.num_rows,
          std::make_pair(RowMapping::kDropped, RowMapping::kDropped));
    }
  }

  std::vector<std::vector<Row>> chunks;
  auto emit = [&](size_t input_idx, uint32_t row) -> Status {
    if (chunks.empty() || chunks.back().size() >= max_rows_) {
      chunks.emplace_back();
    }
    Row r;
    r.reserve(schema_.num_columns());
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      r.push_back(decoded[input_idx].columns[c].GetValue(row));
    }
    if (mapping != nullptr) {
      mapping->where[input_idx][row] = {
          static_cast<uint32_t>(chunks.size() - 1),
          static_cast<uint32_t>(chunks.back().size())};
    }
    chunks.back().push_back(std::move(r));
    return Status::OK();
  };

  auto is_deleted = [&](size_t input_idx, uint32_t row) {
    const BitVector* deletes = decoded[input_idx].deletes;
    return deletes != nullptr && deletes->Get(row);
  };

  if (sort_cols_.empty()) {
    // No sort key: concatenate inputs, dropping deleted rows.
    for (size_t i = 0; i < decoded.size(); ++i) {
      for (uint32_t r = 0; r < decoded[i].num_rows; ++r) {
        if (is_deleted(i, r)) continue;
        S2_RETURN_NOT_OK(emit(i, r));
      }
    }
  } else {
    // K-way heap merge by sort key.
    using Cursor = std::pair<size_t, uint32_t>;  // (input, row)
    auto greater = [&](const Cursor& a, const Cursor& b) {
      return CompareRowsAt(decoded, sort_cols_, a, b) > 0;
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
        greater);
    auto push_next = [&](size_t input_idx, uint32_t from_row) {
      for (uint32_t r = from_row; r < decoded[input_idx].num_rows; ++r) {
        if (!is_deleted(input_idx, r)) {
          heap.push({input_idx, r});
          return;
        }
      }
    };
    for (size_t i = 0; i < decoded.size(); ++i) push_next(i, 0);
    while (!heap.empty()) {
      auto [input_idx, row] = heap.top();
      heap.pop();
      S2_RETURN_NOT_OK(emit(input_idx, row));
      push_next(input_idx, row + 1);
    }
  }

  return chunks;
}

}  // namespace s2
