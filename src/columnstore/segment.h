#ifndef S2_COLUMNSTORE_SEGMENT_H_
#define S2_COLUMNSTORE_SEGMENT_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "encoding/encoding.h"

namespace s2 {

/// Per-column min/max statistics kept in segment metadata; segment
/// elimination checks these before fetching data files (paper Section
/// 2.1.2: "storing min/max values allows segment elimination to be
/// performed using in-memory metadata").
struct ColumnStats {
  Value min;
  Value max;
  bool has_nulls = false;

  void EncodeTo(std::string* dst) const;
  static Result<ColumnStats> DecodeFrom(Slice* input);

  /// Whether a row with column value == v could exist in the segment.
  bool MayContain(const Value& v) const;
  /// Whether values in [lo, hi] could exist (null bounds = unbounded).
  bool MayOverlap(const Value& lo, const Value& hi) const;
};

/// An immutable columnstore segment file opened for reading. The file holds
/// one encoded block per column plus optional named auxiliary blocks (the
/// index module stores per-segment inverted indexes there) and a footer
/// with the directory and column statistics.
///
/// Deleted rows are NOT represented here: delete bit-vectors live in
/// mutable segment *metadata* (storage module), keeping the file immutable
/// so it can be uploaded to blob storage as-is.
class Segment {
 public:
  /// Parses a segment file. Cheap: columns are opened lazily on first use.
  static Result<std::shared_ptr<Segment>> Open(
      std::shared_ptr<const std::string> file);

  uint32_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Reader for column c (opened lazily, cached, thread-safe).
  Result<const ColumnReader*> column(size_t c) const;

  const ColumnStats& stats(size_t c) const { return stats_[c]; }

  /// Raw bytes of the named auxiliary block; NotFound if absent.
  Result<Slice> aux_block(const std::string& name) const;

  /// Materializes the full rows (all columns) at ascending offsets `rows`,
  /// one batch decode per column, and counts them in
  /// s2_segment_rows_read_total. A column body that fails to decode (a
  /// damaged LZ block, an out-of-range dictionary code) is Corruption,
  /// never a NULL field: the footer CRC does not cover column bodies.
  Result<std::vector<Row>> ReadRows(const std::vector<uint32_t>& rows) const;

  /// ReadRows of the one row `r`.
  Result<Row> ReadRow(uint32_t r) const;

  size_t file_size() const { return file_->size(); }

 private:
  struct ColumnEntry {
    uint64_t offset;
    uint64_t size;
    mutable std::unique_ptr<ColumnReader> reader;  // lazily opened
    mutable std::once_flag once;
  };

  Segment() = default;

  std::shared_ptr<const std::string> file_;
  uint32_t num_rows_ = 0;
  mutable std::vector<ColumnEntry> columns_;
  std::vector<ColumnStats> stats_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> aux_;  // name -> window
};

/// Builds a segment file from rows. Rows must be appended in final order
/// (the caller sorts by the sort key first). Encoding is chosen per column
/// per segment unless forced.
class SegmentBuilder {
 public:
  explicit SegmentBuilder(const Schema& schema);

  void AddRow(const Row& row);
  void AddColumnVector(size_t col, const ColumnVector& data);  // bulk path

  /// Attaches a named auxiliary block (e.g. an inverted index).
  void AddAuxBlock(const std::string& name, std::string bytes);

  uint32_t num_rows() const { return num_rows_; }
  const ColumnVector& column_data(size_t c) const { return columns_[c]; }

  /// Serializes the file. The builder is consumed.
  Result<std::string> Finish();

 private:
  Schema schema_;
  uint32_t num_rows_ = 0;
  std::vector<ColumnVector> columns_;
  std::vector<std::pair<std::string, std::string>> aux_;
};

}  // namespace s2

#endif  // S2_COLUMNSTORE_SEGMENT_H_
