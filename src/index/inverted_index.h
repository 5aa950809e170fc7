#ifndef S2_INDEX_INVERTED_INDEX_H_
#define S2_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/types.h"
#include "encoding/column_vector.h"
#include "index/postings.h"

namespace s2 {

/// The global index's key for an inverted-index term: a hash of the term's
/// bytes.
inline uint64_t TermHash(Slice term) { return Hash64(term); }

/// Per-segment inverted index over one column or a column tuple (paper
/// Section 4.1, the lower level of the two-level secondary index). Maps
/// each distinct term in the segment to a postings list of row offsets. A
/// row's term is its values' encodings (Value::EncodeTo) concatenated, one
/// per indexed column. Built once when the segment is created, stored as
/// an immutable aux block inside the segment file.
///
/// The *terms* live here (not in the global index, which stores only
/// hashes): this keeps the global LSM merges cheap for wide columns.
class InvertedIndexBuilder {
 public:
  /// Indexes rows 0..n of `columns` (all of one length). A row with a NULL
  /// in any of the columns is not indexed.
  static std::string Build(const std::vector<const ColumnVector*>& columns);

  /// Conventional aux-block name for the index on column `col`.
  static std::string BlockName(int col) {
    return "inv." + std::to_string(col);
  }

};

/// Read-side view over an inverted-index aux block. The underlying bytes
/// (the segment file) must outlive the reader. Opening checks the trailer
/// and the directory of entry offsets; a read at a known entry offset needs
/// neither and goes through the static PostingsAt.
class InvertedIndexReader {
 public:
  /// Corruption when the trailer or a directory offset falls outside the
  /// block's regions.
  static Result<InvertedIndexReader> Open(Slice block);

  /// Opens the postings list at a known entry offset in `block` (the
  /// global-index path, paper Section 4.1: no directory parse or search).
  /// Verifies the stored term equals `term` and returns an invalid
  /// iterator when it does not (a 64-bit hash collision); Corruption when
  /// the trailer or the offset falls outside the block.
  static Result<PostingsIterator> PostingsAt(Slice block, uint32_t offset,
                                             Slice term);

  /// Looks up a value; returns an invalid iterator when absent.
  Result<PostingsIterator> Lookup(const Value& value) const;

  size_t num_terms() const { return num_terms_; }

  /// Iterates all terms in directory order with their entry offsets (used
  /// to register global-index entries: the per-segment index is the durable
  /// source of truth). Corruption when an entry's term runs past the
  /// entries region.
  Status ForEachTerm(
      const std::function<void(Slice term, uint32_t offset)>& cb) const;

 private:
  /// The term stored at directory position t.
  Result<Slice> TermAt(size_t t) const;

  Slice block_;
  Slice entries_;
  const char* directory_ = nullptr;  // num_terms_ fixed32 entry offsets
  size_t num_terms_ = 0;
};

}  // namespace s2

#endif  // S2_INDEX_INVERTED_INDEX_H_
