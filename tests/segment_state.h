#ifndef S2_TESTS_SEGMENT_STATE_H_
#define S2_TESTS_SEGMENT_STATE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "storage/partition.h"
#include "storage/unified_table.h"

namespace s2 {

/// What a table's segment changes (flush, move, merge) leave behind: per
/// segment (id, rows, deleted rows, live), the sorted-run shape, and what a
/// unique-key probe returns per key. Tests compare a master's SegmentState
/// with one rebuilt by replaying its log.
struct SegmentState {
  std::vector<std::tuple<uint64_t, uint32_t, uint32_t, bool>> segments;
  std::vector<std::pair<size_t, uint64_t>> runs;
  std::map<int64_t, std::vector<std::string>> hits;
};

/// Reads `table`'s SegmentState at a fresh snapshot of `partition`,
/// probing column 0 for every key. With `live_only`, merged-away segments
/// awaiting vacuum are left out.
inline SegmentState CaptureSegmentState(Partition* partition,
                                        UnifiedTable* table,
                                        const std::vector<int64_t>& keys,
                                        bool live_only) {
  SegmentState state;
  for (const auto& s : table->DebugSegments()) {
    if (live_only && !s.live) continue;
    state.segments.emplace_back(s.id, s.num_rows, s.deleted_rows, s.live);
  }
  for (const auto& r : table->DebugRuns()) {
    state.runs.emplace_back(r.num_segments, r.total_rows);
  }
  auto h = partition->Begin();
  for (int64_t key : keys) {
    std::vector<std::string>& hits = state.hits[key];
    Status s = table->LookupByIndex(
        h.id, h.read_ts, {0}, {Value(key)},
        [&](const Row& row, const RowLocation& loc) {
          hits.push_back(
              (loc.in_rowstore ? "rowstore:" + std::to_string(loc.rowid)
                               : "segment:" + std::to_string(loc.segment_id) +
                                     "@" + std::to_string(loc.row_offset)) +
              " " + row[1].ToString());
          return true;
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  partition->EndRead(h.id);
  return state;
}

}  // namespace s2

#endif  // S2_TESTS_SEGMENT_STATE_H_
