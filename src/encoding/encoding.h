#ifndef S2_ENCODING_ENCODING_H_
#define S2_ENCODING_ENCODING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "encoding/column_vector.h"

namespace s2 {

/// Physical column encodings. Per the paper (Section 2.1.2) every encoding
/// is *seekable*: a value at a given row offset can be read without
/// decoding the whole column, which is what lets the columnstore serve
/// OLTP point reads.
enum class Encoding : uint8_t {
  kPlain = 0,    // fixed-width values / offset+bytes for strings
  kBitPack = 1,  // frame-of-reference + fixed-width bit packing (ints)
  kRle = 2,      // run-length encoding (ints)
  kDict = 3,     // dictionary + bit-packed codes (ints & strings)
  kLz = 4,       // s2lz block compression over plain string payload
};

const char* EncodingName(Encoding e);

/// Random-access reader over one encoded column block. Implementations own
/// (share) the underlying byte buffer, and concurrent reads are safe. The
/// only mutable state is the LZ reader's table of decoded blocks, filled on
/// first read and published atomically (see ValueAt).
class ColumnReader {
 public:
  virtual ~ColumnReader() = default;

  DataType type() const { return type_; }
  Encoding encoding() const { return encoding_; }
  uint32_t num_rows() const { return num_rows_; }

  bool IsNull(uint32_t row) const {
    return has_nulls_ && nulls_.Get(row);
  }

  /// Point read at a row offset ("seek"). O(1) for plain/bitpack/dict,
  /// O(log runs) for RLE, O(log blocks) plus the value's bytes for LZ: a
  /// reader decompresses each LZ block at most once in its life and keeps
  /// the decoded bytes until it is destroyed. Returns null for an LZ value
  /// whose block fails to decompress and for a dictionary code past the end
  /// of the dictionary.
  virtual Value ValueAt(uint32_t row) const = 0;

  /// Full decode, appending all rows to *out. Corruption when the column
  /// body fails to decode (a rejected LZ block, an out-of-range dictionary
  /// code); *out then holds a prefix of the rows.
  virtual Status DecodeAll(ColumnVector* out) const = 0;

  /// Selective decode of the given ascending row offsets, appending typed
  /// values to *out — late materialization after filters. LZ values read
  /// through the reader's decoded blocks (values straddling a block
  /// boundary are joined across blocks); RLE runs are walked with a forward
  /// cursor. Errors as DecodeAll.
  virtual Status DecodeRows(const std::vector<uint32_t>& rows,
                            ColumnVector* out) const = 0;

  /// Encoded-execution hook: for dictionary columns, returns the dictionary
  /// values; a filter can be evaluated once per dictionary entry and then
  /// mapped over codes. Returns nullptr when not dictionary-encoded.
  virtual const ColumnVector* dictionary() const { return nullptr; }

  /// Encoded-execution hook: dictionary code for a row (valid only when
  /// dictionary() != nullptr). A corrupt column can hold a code past the
  /// end of the dictionary; callers check.
  virtual uint32_t CodeAt(uint32_t /*row*/) const { return 0; }

 protected:
  ColumnReader(DataType type, Encoding encoding, uint32_t num_rows)
      : type_(type), encoding_(encoding), num_rows_(num_rows) {}

  DataType type_;
  Encoding encoding_;
  uint32_t num_rows_;
  BitVector nulls_;
  bool has_nulls_ = false;

  friend Result<std::unique_ptr<ColumnReader>> OpenColumnAt(
      std::shared_ptr<const std::string> file, size_t offset, size_t size);
};

/// Picks an encoding for the column by analyzing its data: low-cardinality
/// columns get kDict, long-run ints get kRle, narrow-range ints get
/// kBitPack, compressible strings get kLz, otherwise kPlain. Each segment
/// chooses independently (the paper: "the same column can use a different
/// encoding in each segment").
Encoding ChooseEncoding(const ColumnVector& col);

/// Serializes `col` with the requested encoding. The output block is
/// self-describing (header carries encoding, type, row count, null bitmap).
Result<std::string> EncodeColumn(const ColumnVector& col, Encoding encoding);

/// Opens an encoded block for reading. The reader shares ownership of the
/// buffer.
Result<std::unique_ptr<ColumnReader>> OpenColumn(
    std::shared_ptr<const std::string> data);

/// Opens an encoded block living inside a larger buffer (e.g. one column of
/// a segment file) without copying. The reader shares ownership of `file`.
Result<std::unique_ptr<ColumnReader>> OpenColumnAt(
    std::shared_ptr<const std::string> file, size_t offset, size_t size);

}  // namespace s2

#endif  // S2_ENCODING_ENCODING_H_
