#include "columnstore/segment_meta.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>

#include "common/coding.h"

namespace s2 {

void SegmentMeta::EncodeTo(std::string* dst) const {
  PutVarint64(dst, id);
  PutLengthPrefixed(dst, file_name);
  PutVarint64(dst, num_rows);
  PutVarint64(dst, stats.size());
  for (const ColumnStats& s : stats) s.EncodeTo(dst);
  if (deletes != nullptr) {
    dst->push_back(1);
    deletes->EncodeTo(dst);
  } else {
    dst->push_back(0);
  }
}

Result<SegmentMeta> SegmentMeta::DecodeFrom(Slice* input) {
  SegmentMeta meta;
  S2_ASSIGN_OR_RETURN(meta.id, GetVarint64(input));
  S2_ASSIGN_OR_RETURN(Slice name, GetLengthPrefixed(input));
  meta.file_name = name.ToString();
  S2_ASSIGN_OR_RETURN(uint64_t num_rows, GetVarint64(input));
  meta.num_rows = static_cast<uint32_t>(num_rows);
  S2_ASSIGN_OR_RETURN(uint64_t num_stats, GetVarint64(input));
  meta.stats.reserve(num_stats);
  for (uint64_t i = 0; i < num_stats; ++i) {
    S2_ASSIGN_OR_RETURN(ColumnStats s, ColumnStats::DecodeFrom(input));
    meta.stats.push_back(std::move(s));
  }
  if (input->empty()) return Status::Corruption("truncated segment meta");
  bool has_deletes = (*input)[0] != 0;
  input->RemovePrefix(1);
  if (has_deletes) {
    S2_ASSIGN_OR_RETURN(BitVector bv, BitVector::DecodeFrom(input));
    meta.deletes = std::make_shared<const BitVector>(std::move(bv));
  }
  return meta;
}

std::string SegmentFileName(const std::string& table, uint64_t lsn,
                            uint64_t segment_id) {
  char buf[64];
  snprintf(buf, sizeof(buf), "_%020" PRIu64 "_%" PRIu64, lsn, segment_id);
  return "seg_" + table + buf;
}

std::vector<size_t> PickRunsToMerge(const std::vector<SortedRun>& runs,
                                    size_t max_runs) {
  if (runs.size() <= max_runs) return {};
  // Merge the smallest half (at least 2): amortizes write amplification
  // while shrinking the run count geometrically.
  std::vector<size_t> order(runs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return runs[a].total_rows < runs[b].total_rows;
  });
  size_t take = std::max<size_t>(2, runs.size() - max_runs + 1);
  order.resize(std::min(order.size(), take));
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace s2
