#ifndef S2_COLUMNSTORE_SEGMENT_META_H_
#define S2_COLUMNSTORE_SEGMENT_META_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/result.h"
#include "common/types.h"
#include "columnstore/segment.h"

namespace s2 {

/// Mutable metadata for one immutable segment file. Lives in the durable
/// in-memory metadata store of the partition (changes are logged as
/// kMetadataUpdate / kSegmentFlush / kSegmentMerge records); the data file
/// itself never changes (paper Figure 1).
struct SegmentMeta {
  /// Monotonic segment id within the partition.
  uint64_t id = 0;
  /// Data file name; by convention "seg_<table>_<lsn>_<id>" so the file
  /// logically exists in the log stream at its creation LSN.
  std::string file_name;
  uint32_t num_rows = 0;
  /// Per-column min/max for segment elimination.
  std::vector<ColumnStats> stats;
  /// Current deleted-rows bit vector (copy-on-write: updates install a new
  /// vector; storage keeps older versions for snapshot reads).
  std::shared_ptr<const BitVector> deletes;

  uint32_t live_rows() const {
    return num_rows - (deletes ? deletes->Count() : 0);
  }

  /// Serialization for log records and snapshots (includes the current
  /// delete vector).
  void EncodeTo(std::string* dst) const;
  static Result<SegmentMeta> DecodeFrom(Slice* input);
};

/// Builds the data file name for a segment of `table` created at `lsn`.
/// Tables of one partition share its data-file store and flush in
/// parallel; `lsn` is read (not reserved) at flush time and segment ids are
/// per table, so only the table name keeps concurrent flushes apart.
std::string SegmentFileName(const std::string& table, uint64_t lsn,
                            uint64_t segment_id);

/// Tiered LSM run bookkeeping: each sorted run is a list of segment ids
/// whose rows are mutually sorted by the table's sort key. The flusher
/// appends single-segment runs; the background merger keeps the number of
/// runs logarithmic by merging the smallest runs together (paper Section
/// 2.1.2).
struct SortedRun {
  std::vector<uint64_t> segment_ids;
  uint64_t total_rows = 0;
};

/// Picks which runs to merge. Returns indices into `runs` (>= 2 of them),
/// or empty when the tree is healthy. Policy: when there are more than
/// `max_runs` runs, merge the ceil(half) smallest ones, which yields
/// O(log N) runs under steady insert load.
std::vector<size_t> PickRunsToMerge(const std::vector<SortedRun>& runs,
                                    size_t max_runs);

}  // namespace s2

#endif  // S2_COLUMNSTORE_SEGMENT_META_H_
