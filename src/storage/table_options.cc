#include "storage/table_options.h"

#include "common/coding.h"

namespace s2 {

namespace {

void EncodeIntVector(const std::vector<int>& v, std::string* dst) {
  PutVarint64(dst, v.size());
  for (int x : v) PutVarint64(dst, static_cast<uint64_t>(x));
}

Result<std::vector<int>> DecodeIntVector(Slice* input) {
  S2_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(input));
  std::vector<int> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    S2_ASSIGN_OR_RETURN(uint64_t x, GetVarint64(input));
    v.push_back(static_cast<int>(x));
  }
  return v;
}

}  // namespace

void TableOptions::EncodeTo(std::string* dst) const {
  PutVarint64(dst, schema.num_columns());
  for (const ColumnDef& col : schema.columns()) {
    PutLengthPrefixed(dst, col.name);
    dst->push_back(static_cast<char>(col.type));
  }
  EncodeIntVector(sort_key, dst);
  PutVarint64(dst, indexes.size());
  for (const auto& index : indexes) EncodeIntVector(index, dst);
  EncodeIntVector(unique_key, dst);
  EncodeIntVector(shard_key, dst);
  PutVarint64(dst, segment_rows);
  PutVarint64(dst, flush_threshold);
  PutVarint64(dst, max_sorted_runs);
}

Result<TableOptions> TableOptions::DecodeFrom(Slice* input) {
  TableOptions opts;
  S2_ASSIGN_OR_RETURN(uint64_t num_cols, GetVarint64(input));
  std::vector<ColumnDef> cols;
  cols.reserve(num_cols);
  for (uint64_t i = 0; i < num_cols; ++i) {
    S2_ASSIGN_OR_RETURN(Slice name, GetLengthPrefixed(input));
    if (input->empty()) return Status::Corruption("truncated table options");
    DataType type = static_cast<DataType>((*input)[0]);
    input->RemovePrefix(1);
    cols.push_back(ColumnDef{name.ToString(), type});
  }
  opts.schema = Schema(std::move(cols));
  S2_ASSIGN_OR_RETURN(opts.sort_key, DecodeIntVector(input));
  S2_ASSIGN_OR_RETURN(uint64_t num_indexes, GetVarint64(input));
  for (uint64_t i = 0; i < num_indexes; ++i) {
    S2_ASSIGN_OR_RETURN(std::vector<int> index, DecodeIntVector(input));
    opts.indexes.push_back(std::move(index));
  }
  S2_ASSIGN_OR_RETURN(opts.unique_key, DecodeIntVector(input));
  S2_ASSIGN_OR_RETURN(opts.shard_key, DecodeIntVector(input));
  S2_ASSIGN_OR_RETURN(uint64_t segment_rows, GetVarint64(input));
  S2_ASSIGN_OR_RETURN(uint64_t flush_threshold, GetVarint64(input));
  S2_ASSIGN_OR_RETURN(uint64_t max_runs, GetVarint64(input));
  opts.segment_rows = static_cast<uint32_t>(segment_rows);
  opts.flush_threshold = static_cast<uint32_t>(flush_threshold);
  opts.max_sorted_runs = static_cast<size_t>(max_runs);
  return opts;
}

}  // namespace s2
