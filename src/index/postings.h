#ifndef S2_INDEX_POSTINGS_H_
#define S2_INDEX_POSTINGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"

namespace s2 {

/// Encodes a strictly-increasing list of row offsets (a postings list) with
/// delta varints in groups of 64 plus a skip table, one entry per group
/// after the first. The skip table is what makes the format support
/// *forward seeking* (paper Section 4.1): during a multi-index merge,
/// sections of a long postings list are skipped when the other lists
/// guarantee no match there.
void EncodePostings(const std::vector<uint32_t>& rows, std::string* dst);

/// Streaming cursor over an encoded postings list.
class PostingsIterator {
 public:
  /// `data` must stay alive while the iterator is used.
  static Result<PostingsIterator> Open(Slice data);

  PostingsIterator() = default;

  bool Valid() const { return valid_; }
  uint32_t row() const { return current_; }
  uint32_t count() const { return count_; }

  /// Advances to the next posting.
  void Next();

  /// Advances to the first posting >= target (no-op when already there).
  /// Uses the skip table to jump whole groups.
  void SeekTo(uint32_t target);

  /// Bytes this list occupies (for slicing concatenated lists). Walks the
  /// last group, so a lookup that only drains the list never pays for it.
  size_t encoded_size() const;

 private:
  static constexpr uint32_t kGroupSize = 64;

  /// Byte offset of a group's first delta in deltas_.
  uint32_t GroupOffset(uint32_t group) const;
  void LoadGroup(uint32_t group);

  const char* start_ = nullptr;  // the list's first byte
  Slice deltas_;           // full delta region
  const char* skip_ = nullptr;  // skip table: (first_row, byte_offset) pairs
  uint32_t count_ = 0;
  uint32_t num_groups_ = 0;

  uint32_t group_ = 0;     // current group index
  uint32_t in_group_ = 0;  // position within group
  uint32_t index_ = 0;     // global position
  uint32_t current_ = 0;
  Slice cursor_;           // remaining deltas in current group
  bool valid_ = false;
};

/// Intersects iterators (logical AND across index filters), appending
/// matching rows to *out. Uses SeekTo leapfrogging.
Status IntersectPostings(std::vector<PostingsIterator> its,
                         std::vector<uint32_t>* out);

/// Unions iterators (logical OR), appending the sorted distinct rows.
Status UnionPostings(std::vector<PostingsIterator> its,
                     std::vector<uint32_t>* out);

}  // namespace s2

#endif  // S2_INDEX_POSTINGS_H_
