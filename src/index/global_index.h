#ifndef S2_INDEX_GLOBAL_INDEX_H_
#define S2_INDEX_GLOBAL_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"

namespace s2 {

/// One entry of the global secondary index: a value hash mapped to the
/// segment containing the value and the starting offset of its postings
/// list inside that segment's inverted index. Only hashes are stored —
/// column values stay in the per-segment inverted indexes, which keeps LSM
/// merge write-amplification low for wide columns (paper Section 4.1).
struct IndexEntry {
  uint64_t hash = 0;
  uint64_t segment_id = 0;
  uint32_t postings_offset = 0;
};

/// Immutable open-addressing hash table over IndexEntry, the building block
/// of the global index LSM. Linear probing; duplicate hashes (same value in
/// several segments) occupy adjacent probe slots, so one probe chain visit
/// finds them all.
class ImmutableHashTable {
 public:
  /// Serializes `entries` into a table sized 2x entry count (power of two).
  /// `covered_segments` lists every segment id the table references.
  static std::string Build(const std::vector<IndexEntry>& entries,
                           std::vector<uint64_t> covered_segments);

  static Result<ImmutableHashTable> Open(
      std::shared_ptr<const std::string> data);

  /// Invokes cb for every entry whose hash equals `hash` (expected O(1)).
  void Lookup(uint64_t hash,
              const std::function<void(const IndexEntry&)>& cb) const;

  /// Iterates every entry (used by merges).
  void ForEach(const std::function<void(const IndexEntry&)>& cb) const;

  const std::vector<uint64_t>& covered_segments() const { return covered_; }
  size_t num_entries() const { return num_entries_; }

 private:
  std::shared_ptr<const std::string> data_;
  const char* slots_ = nullptr;
  uint64_t table_size_ = 0;
  size_t num_entries_ = 0;
  std::vector<uint64_t> covered_;
};

/// The global secondary index for one column (or column tuple): a special
/// LSM tree whose levels are immutable hash tables. A new single-segment
/// table is appended when a segment is created; background merging keeps
/// the number of tables logarithmic, so a point lookup probes O(log N)
/// tables instead of checking every segment (paper Section 4.1).
///
/// Segment removal is lazy: lookups skip a removed segment's entries at
/// once, merges drop them, and a table is rewritten without them once at
/// least half of its covered segments are removed.
class GlobalIndex {
 public:
  explicit GlobalIndex(size_t max_tables = 8);

  /// Registers the index entries of a newly created segment as a new
  /// level-0 table, then merges if the LSM is over its run budget.
  void AddSegment(uint64_t segment_id, const std::vector<IndexEntry>& entries);

  /// Removes the entries of segments that no reader can see any more. A
  /// table left with no entries is dropped.
  void RemoveSegments(const std::vector<uint64_t>& segment_ids);

  /// Invokes cb for every entry matching `hash` whose segment is not
  /// removed, across all tables.
  void Lookup(uint64_t hash,
              const std::function<void(const IndexEntry&)>& cb) const;

  size_t num_tables() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return tables_.size();
  }

  size_t total_entries() const;

 private:
  void MergeAllLocked();

  /// Forgets removed segments that no table covers any more.
  void ForgetUncoveredLocked();

  size_t max_tables_;
  mutable std::shared_mutex mu_;
  std::vector<ImmutableHashTable> tables_;  // newest last
  std::unordered_set<uint64_t> removed_;  // still covered by some table
};

}  // namespace s2

#endif  // S2_INDEX_GLOBAL_INDEX_H_
