#ifndef S2_INDEX_INVERTED_INDEX_H_
#define S2_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "encoding/column_vector.h"
#include "index/postings.h"

namespace s2 {

/// Per-segment inverted index over one column (paper Section 4.1, the lower
/// level of the two-level secondary index). Maps each distinct value in the
/// segment to a postings list of row offsets. Built once when the segment
/// is created, stored as an immutable aux block inside the segment file.
///
/// The *column values* live here (not in the global index, which stores
/// only hashes): this keeps the global LSM merges cheap for wide columns.
class InvertedIndexBuilder {
 public:
  /// Indexes all rows of `column` (row offsets 0..n). Null values are not
  /// indexed.
  static std::string Build(const ColumnVector& column);

  /// Conventional aux-block name for the index on column `col`.
  static std::string BlockName(int col) {
    return "inv." + std::to_string(col);
  }

  /// Entries produced for the global index: one per distinct value.
  struct TermInfo {
    uint64_t hash;             // Value::Hash() of the term
    uint32_t postings_offset;  // offset of the term's entry in the block
    uint32_t doc_count;        // number of rows with this value
  };

  /// Builds the block and reports per-term info (for the global index).
  static std::string BuildWithTerms(const ColumnVector& column,
                                    std::vector<TermInfo>* terms);
};

/// Read-side view over an inverted-index aux block. The underlying bytes
/// (the segment file) must outlive the reader. Opening parses the term
/// directory; a read at a known postings offset needs none of it and goes
/// through the static PostingsAt.
class InvertedIndexReader {
 public:
  static Result<InvertedIndexReader> Open(Slice block);

  /// Opens the postings list at a known offset in `block` (the global-index
  /// path, paper Section 4.1: no directory parse or search). Verifies the
  /// stored term equals `expected` and returns an invalid iterator when it
  /// does not (a 64-bit hash collision); Corruption when the trailer or the
  /// offset falls outside the block.
  static Result<PostingsIterator> PostingsAt(Slice block, uint32_t offset,
                                             const Value& expected);

  /// Looks up a value; returns an invalid iterator when absent.
  Result<PostingsIterator> Lookup(const Value& value) const;

  size_t num_terms() const { return terms_.size(); }

  /// Iterates all terms (used to rebuild global-index entries during
  /// recovery: the per-segment index is the durable source of truth).
  void ForEachTerm(
      const std::function<void(const Value& value, uint32_t offset)>& cb)
      const;

 private:
  struct Term {
    Slice encoded_value;  // into the block's directory
    uint32_t offset;      // into the entries region
  };

  Slice block_;
  std::vector<Term> terms_;  // sorted by encoded_value
};

}  // namespace s2

#endif  // S2_INDEX_INVERTED_INDEX_H_
