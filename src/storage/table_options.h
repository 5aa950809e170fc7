#ifndef S2_STORAGE_TABLE_OPTIONS_H_
#define S2_STORAGE_TABLE_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace s2 {

/// How InsertRows treats a row whose unique key already exists (paper
/// Section 4.1.2's user-specified unique-key handling options).
enum class DupPolicy {
  kError = 0,    // report an error (default)
  kSkip = 1,     // SKIP DUPLICATE KEY ERRORS
  kReplace = 2,  // REPLACE: delete then insert the new row
  kUpdate = 3,   // ON DUPLICATE KEY UPDATE: overwrite with the new row
};

/// Definition of one unified table (paper Section 4). All column index
/// vectors refer to positions in `schema`.
struct TableOptions {
  Schema schema;

  /// Sort key: rows within each segment are fully sorted by these columns
  /// and the LSM maintains sorted runs across segments. Empty = no sort
  /// key (insertion order).
  std::vector<int> sort_key;

  /// Secondary indexes. A single entry with several columns is a
  /// multi-column index: per-column inverted indexes plus a tuple-level
  /// global index (Section 4.1.1).
  std::vector<std::vector<int>> indexes;

  /// Unique key, enforced through the secondary index machinery (Section
  /// 4.1.2). Empty = no uniqueness.
  std::vector<int> unique_key;

  /// Cluster shard key: the columns whose values route a row to its
  /// partition. Empty = the whole row. Set by Cluster::CreateTable and
  /// persisted with the table, so a reopened cluster routes as before; a
  /// partition does not read it.
  std::vector<int> shard_key;

  /// Rows per columnstore segment (the paper's production default is ~1M;
  /// scaled down for laptop-scale experiments).
  uint32_t segment_rows = 64 * 1024;

  /// Rowstore row count that triggers a background flush into a segment.
  uint32_t flush_threshold = 64 * 1024;

  /// Maximum number of sorted runs before the merger kicks in.
  size_t max_sorted_runs = 8;

  void EncodeTo(std::string* dst) const;
  static Result<TableOptions> DecodeFrom(Slice* input);
};

/// Where one logical row currently lives: the level-0 rowstore (by hidden
/// rowid) or a columnstore segment (by id + offset).
struct RowLocation {
  bool in_rowstore = false;
  int64_t rowid = 0;       // valid when in_rowstore
  uint64_t segment_id = 0; // valid when !in_rowstore
  uint32_t row_offset = 0;
};

}  // namespace s2

#endif  // S2_STORAGE_TABLE_OPTIONS_H_
