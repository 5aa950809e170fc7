#include "encoding/encoding.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <ranges>
#include <unordered_map>

#include "common/coding.h"
#include "common/metrics.h"
#include "encoding/bitpack.h"
#include "encoding/lz.h"

namespace s2 {

namespace {

constexpr size_t kLzBlockSize = 16 * 1024;

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

// Shared base holding the buffer and the payload window into it. Each
// reader implements one batch `Decode(rows, out)` over an ascending row
// range; DecodeAll runs it over every row and DecodeRows over the given
// offsets, so both share one loop per encoding.
template <typename Reader>
class ReaderBase : public ColumnReader {
 public:
  ReaderBase(DataType type, Encoding enc, uint32_t num_rows,
             std::shared_ptr<const std::string> buf, const char* payload,
             size_t payload_size)
      : ColumnReader(type, enc, num_rows),
        buf_(std::move(buf)),
        payload_(payload),
        payload_size_(payload_size) {}

  Status DecodeAll(ColumnVector* out) const final {
    return self().Decode(std::views::iota(uint32_t{0}, num_rows_), out);
  }

  Status DecodeRows(const std::vector<uint32_t>& rows,
                    ColumnVector* out) const final {
    return self().Decode(rows, out);
  }

 protected:
  const Reader& self() const { return static_cast<const Reader&>(*this); }

  std::shared_ptr<const std::string> buf_;
  const char* payload_;
  size_t payload_size_;
};

class PlainIntReader : public ReaderBase<PlainIntReader> {
 public:
  using ReaderBase::ReaderBase;

  Value ValueAt(uint32_t row) const override {
    if (IsNull(row)) return Value::Null();
    if (type_ == DataType::kDouble) return Value(DoubleAt(row));
    return Value(IntAt(row));
  }

  template <typename Rows>
  Status Decode(const Rows& rows, ColumnVector* out) const {
    out->Reserve(out->size() + rows.size());
    for (uint32_t r : rows) {
      if (IsNull(r)) {
        out->AppendNull();
      } else if (type_ == DataType::kDouble) {
        out->AppendDouble(DoubleAt(r));
      } else {
        out->AppendInt(IntAt(r));
      }
    }
    return Status::OK();
  }

 private:
  int64_t IntAt(uint32_t row) const {
    return static_cast<int64_t>(DecodeFixed64(payload_ + row * size_t{8}));
  }
  double DoubleAt(uint32_t row) const {
    double d;
    memcpy(&d, payload_ + row * size_t{8}, sizeof(d));
    return d;
  }
};

class PlainStringReader : public ReaderBase<PlainStringReader> {
 public:
  PlainStringReader(DataType type, Encoding enc, uint32_t num_rows,
                    std::shared_ptr<const std::string> buf,
                    const char* payload, size_t payload_size)
      : ReaderBase(type, enc, num_rows, std::move(buf), payload,
                   payload_size) {
    offsets_ = payload_;
    bytes_ = payload_ + (num_rows + size_t{1}) * 4;
  }

  Value ValueAt(uint32_t row) const override {
    if (IsNull(row)) return Value::Null();
    return Value(StringAt(row));
  }

  template <typename Rows>
  Status Decode(const Rows& rows, ColumnVector* out) const {
    out->Reserve(out->size() + rows.size());
    for (uint32_t r : rows) {
      if (IsNull(r)) {
        out->AppendNull();
      } else {
        out->AppendString(StringAt(r));
      }
    }
    return Status::OK();
  }

 private:
  std::string StringAt(uint32_t row) const {
    uint32_t b = DecodeFixed32(offsets_ + row * size_t{4});
    uint32_t e = DecodeFixed32(offsets_ + (row + size_t{1}) * 4);
    return std::string(bytes_ + b, e - b);
  }

  const char* offsets_;
  const char* bytes_;
};

class BitPackIntReader : public ReaderBase<BitPackIntReader> {
 public:
  BitPackIntReader(DataType type, Encoding enc, uint32_t num_rows,
                   std::shared_ptr<const std::string> buf, const char* payload,
                   size_t payload_size, int64_t min, int width)
      : ReaderBase(type, enc, num_rows, std::move(buf), payload, payload_size),
        min_(min),
        width_(width) {}

  Value ValueAt(uint32_t row) const override {
    if (IsNull(row)) return Value::Null();
    return Value(IntAt(row));
  }

  template <typename Rows>
  Status Decode(const Rows& rows, ColumnVector* out) const {
    out->Reserve(out->size() + rows.size());
    for (uint32_t r : rows) {
      if (IsNull(r)) {
        out->AppendNull();
      } else {
        out->AppendInt(IntAt(r));
      }
    }
    return Status::OK();
  }

 private:
  // The encoder computes deltas as wrapping uint64 subtraction (the full
  // int64 range can exceed int64); decode must add them back the same way.
  int64_t IntAt(uint32_t row) const {
    return static_cast<int64_t>(static_cast<uint64_t>(min_) +
                                BitUnpackOne(payload_, row, width_));
  }

  int64_t min_;
  int width_;
};

class RleIntReader : public ReaderBase<RleIntReader> {
 public:
  RleIntReader(DataType type, Encoding enc, uint32_t num_rows,
               std::shared_ptr<const std::string> buf, const char* payload,
               size_t payload_size, std::vector<int64_t> run_values,
               std::vector<uint32_t> run_ends)
      : ReaderBase(type, enc, num_rows, std::move(buf), payload, payload_size),
        run_values_(std::move(run_values)),
        run_ends_(std::move(run_ends)) {}

  Value ValueAt(uint32_t row) const override {
    if (IsNull(row)) return Value::Null();
    return Value(run_values_[RunOf(row, 0)]);
  }

  // Rows ascend, so the run cursor only moves forward: a dense row list
  // steps run by run, a sparse one searches the runs ahead of the cursor.
  template <typename Rows>
  Status Decode(const Rows& rows, ColumnVector* out) const {
    out->Reserve(out->size() + rows.size());
    size_t run = 0;
    for (uint32_t r : rows) {
      if (run_ends_[run] <= r) run = RunOf(r, run + 1);
      if (IsNull(r)) {
        out->AppendNull();
      } else {
        out->AppendInt(run_values_[run]);
      }
    }
    return Status::OK();
  }

 private:
  // Index of the run holding `row`, searching from run `first` onwards.
  size_t RunOf(uint32_t row, size_t first) const {
    return std::upper_bound(run_ends_.begin() + first, run_ends_.end(), row) -
           run_ends_.begin();
  }

  std::vector<int64_t> run_values_;
  std::vector<uint32_t> run_ends_;  // exclusive cumulative end per run
};

class DictReader : public ReaderBase<DictReader> {
 public:
  DictReader(DataType type, Encoding enc, uint32_t num_rows,
             std::shared_ptr<const std::string> buf, const char* payload,
             size_t payload_size, ColumnVector dict, const char* codes,
             int width)
      : ReaderBase(type, enc, num_rows, std::move(buf), payload, payload_size),
        dict_(std::move(dict)),
        codes_(codes),
        width_(width) {}

  Value ValueAt(uint32_t row) const override {
    if (IsNull(row)) return Value::Null();
    uint32_t code = CodeAt(row);
    if (code >= dict_.size()) return Value::Null();
    return dict_.GetValue(code);
  }

  template <typename Rows>
  Status Decode(const Rows& rows, ColumnVector* out) const {
    out->Reserve(out->size() + rows.size());
    for (uint32_t r : rows) {
      if (IsNull(r)) {
        out->AppendNull();
        continue;
      }
      uint32_t code = CodeAt(r);
      if (code >= dict_.size()) {
        return Status::Corruption("dict code out of range");
      }
      if (type_ == DataType::kString) {
        out->AppendString(dict_.StringAt(code));
      } else {
        out->AppendInt(dict_.IntAt(code));
      }
    }
    return Status::OK();
  }

  const ColumnVector* dictionary() const override { return &dict_; }

  uint32_t CodeAt(uint32_t row) const override {
    return static_cast<uint32_t>(BitUnpackOne(codes_, row, width_));
  }

 private:
  ColumnVector dict_;
  const char* codes_;
  int width_;
};

class LzStringReader : public ReaderBase<LzStringReader> {
 public:
  LzStringReader(DataType type, Encoding enc, uint32_t num_rows,
                 std::shared_ptr<const std::string> buf, const char* payload,
                 size_t payload_size, std::vector<uint32_t> block_uncomp_end,
                 std::vector<const char*> block_data,
                 std::vector<uint32_t> block_comp_size)
      : ReaderBase(type, enc, num_rows, std::move(buf), payload, payload_size),
        block_uncomp_end_(std::move(block_uncomp_end)),
        block_data_(std::move(block_data)),
        block_comp_size_(std::move(block_comp_size)),
        decoded_(std::make_unique<std::atomic<const std::string*>[]>(
            block_data_.size())) {
    offsets_ = payload_;
  }

  LzStringReader(const LzStringReader&) = delete;
  LzStringReader& operator=(const LzStringReader&) = delete;

  ~LzStringReader() override {
    for (size_t b = 0; b < block_data_.size(); ++b) {
      delete decoded_[b].load(std::memory_order_relaxed);
    }
  }

  Value ValueAt(uint32_t row) const override {
    if (IsNull(row)) return Value::Null();
    size_t block = 0;
    std::string out;
    if (!ReadValue(row, &block, &out).ok()) return Value::Null();
    return Value(std::move(out));
  }

  template <typename Rows>
  Status Decode(const Rows& rows, ColumnVector* out) const {
    out->Reserve(out->size() + rows.size());
    size_t block = 0;
    for (uint32_t r : rows) {
      if (IsNull(r)) {
        out->AppendNull();
        continue;
      }
      std::string value;
      S2_RETURN_NOT_OK(ReadValue(r, &block, &value));
      out->AppendString(std::move(value));
    }
    return Status::OK();
  }

 private:
  uint32_t BlockBegin(size_t idx) const {
    return idx == 0 ? 0 : block_uncomp_end_[idx - 1];
  }

  // The decoded bytes of block `idx` ("seekable at block granularity": only
  // blocks a read overlaps are decompressed). The first reader of a block
  // decompresses it and publishes the result with one compare-and-swap; a
  // reader that loses the race frees its copy and uses the winner's. A
  // block that fails to decompress is never published, so it stays
  // Corruption on every read.
  Result<const std::string*> DecodedBlock(size_t idx) const {
    const std::string* bytes = decoded_[idx].load(std::memory_order_acquire);
    if (bytes != nullptr) return bytes;
    auto fresh = std::make_unique<std::string>();
    S2_RETURN_NOT_OK(LzDecompress(Slice(block_data_[idx], block_comp_size_[idx]),
                                  block_uncomp_end_[idx] - BlockBegin(idx),
                                  fresh.get()));
    S2_COUNTER("s2_lz_blocks_decompressed_total").Add();
    if (decoded_[idx].compare_exchange_strong(bytes, fresh.get(),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      return fresh.release();
    }
    return bytes;
  }

  // Appends the value of `row`, joining a value that straddles a block
  // boundary from the tail of one block and the head of the next. *block
  // is the block the previous value ended in (0 at first), so an ascending
  // read searches for a block only when it crosses into another.
  Status ReadValue(uint32_t row, size_t* block, std::string* out) const {
    uint32_t pos = DecodeFixed32(offsets_ + row * size_t{4});
    uint32_t end = DecodeFixed32(offsets_ + (row + size_t{1}) * 4);
    if (end < pos) return Status::Corruption("lz offsets out of order");
    out->reserve(end - pos);
    while (pos < end) {
      size_t idx = *block;
      if (idx >= block_uncomp_end_.size() || pos < BlockBegin(idx) ||
          pos >= block_uncomp_end_[idx]) {
        idx = std::upper_bound(block_uncomp_end_.begin(),
                               block_uncomp_end_.end(), pos) -
              block_uncomp_end_.begin();
        if (idx == block_uncomp_end_.size()) {
          return Status::Corruption("lz offset past the last block");
        }
        *block = idx;
      }
      S2_ASSIGN_OR_RETURN(const std::string* bytes, DecodedBlock(idx));
      uint32_t take_end = std::min(end, block_uncomp_end_[idx]);
      out->append(*bytes, pos - BlockBegin(idx), take_end - pos);
      pos = take_end;
    }
    return Status::OK();
  }

  const char* offsets_;
  std::vector<uint32_t> block_uncomp_end_;  // cumulative uncompressed ends
  std::vector<const char*> block_data_;
  std::vector<uint32_t> block_comp_size_;
  // Decoded block table, one slot per block, null until first read. Freed
  // with the reader, which lives as long as its Segment.
  std::unique_ptr<std::atomic<const std::string*>[]> decoded_;
};

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

void EncodeHeader(const ColumnVector& col, Encoding enc, std::string* dst) {
  dst->push_back(static_cast<char>(enc));
  dst->push_back(static_cast<char>(col.type()));
  PutVarint64(dst, col.size());
  dst->push_back(col.has_nulls() ? 1 : 0);
  if (col.has_nulls()) {
    BitVector nulls(static_cast<uint32_t>(col.size()));
    for (uint32_t i = 0; i < col.size(); ++i) {
      if (col.IsNull(i)) nulls.Set(i);
    }
    nulls.EncodeTo(dst);
  }
}

void EncodePlain(const ColumnVector& col, std::string* dst) {
  if (col.type() == DataType::kString) {
    uint32_t off = 0;
    for (size_t i = 0; i < col.size(); ++i) {
      PutFixed32(dst, off);
      off += static_cast<uint32_t>(col.StringAt(i).size());
    }
    PutFixed32(dst, off);
    for (size_t i = 0; i < col.size(); ++i) dst->append(col.StringAt(i));
  } else if (col.type() == DataType::kDouble) {
    for (size_t i = 0; i < col.size(); ++i) {
      uint64_t bits;
      double d = col.DoubleAt(i);
      memcpy(&bits, &d, sizeof(bits));
      PutFixed64(dst, bits);
    }
  } else {
    for (size_t i = 0; i < col.size(); ++i) {
      PutFixed64(dst, static_cast<uint64_t>(col.IntAt(i)));
    }
  }
}

Status EncodeBitPack(const ColumnVector& col, std::string* dst) {
  if (col.type() != DataType::kInt64) {
    return Status::InvalidArgument("bitpack requires int column");
  }
  int64_t min = 0, max = 0;
  bool first = true;
  for (size_t i = 0; i < col.size(); ++i) {
    int64_t v = col.IntAt(i);
    if (first) {
      min = max = v;
      first = false;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
  }
  uint64_t range = static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  int width = BitWidthFor(range);
  PutVarint64(dst, ZigZagEncode(min));
  dst->push_back(static_cast<char>(width));
  std::vector<uint64_t> rel(col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    rel[i] = static_cast<uint64_t>(col.IntAt(i)) - static_cast<uint64_t>(min);
  }
  BitPack(rel.data(), rel.size(), width, dst);
  return Status::OK();
}

Status EncodeRle(const ColumnVector& col, std::string* dst) {
  if (col.type() != DataType::kInt64) {
    return Status::InvalidArgument("rle requires int column");
  }
  std::string runs;
  uint64_t num_runs = 0;
  size_t i = 0;
  while (i < col.size()) {
    int64_t v = col.IntAt(i);
    size_t j = i + 1;
    while (j < col.size() && col.IntAt(j) == v) ++j;
    PutVarint64(&runs, ZigZagEncode(v));
    PutVarint64(&runs, j - i);
    ++num_runs;
    i = j;
  }
  PutVarint64(dst, num_runs);
  dst->append(runs);
  return Status::OK();
}

Status EncodeDict(const ColumnVector& col, std::string* dst) {
  std::vector<uint64_t> codes(col.size());
  if (col.type() == DataType::kString) {
    std::unordered_map<std::string, uint32_t> dict;
    std::vector<const std::string*> order;
    for (size_t i = 0; i < col.size(); ++i) {
      auto [it, inserted] =
          dict.emplace(col.StringAt(i), static_cast<uint32_t>(dict.size()));
      if (inserted) order.push_back(&it->first);
      codes[i] = it->second;
    }
    PutVarint64(dst, order.size());
    for (const std::string* s : order) PutLengthPrefixed(dst, *s);
  } else if (col.type() == DataType::kInt64) {
    std::unordered_map<int64_t, uint32_t> dict;
    std::vector<int64_t> order;
    for (size_t i = 0; i < col.size(); ++i) {
      auto [it, inserted] =
          dict.emplace(col.IntAt(i), static_cast<uint32_t>(dict.size()));
      if (inserted) order.push_back(it->first);
      codes[i] = it->second;
    }
    PutVarint64(dst, order.size());
    for (int64_t v : order) PutVarint64(dst, ZigZagEncode(v));
  } else {
    return Status::InvalidArgument("dict requires int or string column");
  }
  uint64_t max_code = codes.empty() ? 0 : *std::max_element(codes.begin(),
                                                            codes.end());
  int width = BitWidthFor(max_code);
  dst->push_back(static_cast<char>(width));
  BitPack(codes.data(), codes.size(), width, dst);
  return Status::OK();
}

Status EncodeLz(const ColumnVector& col, std::string* dst) {
  if (col.type() != DataType::kString) {
    return Status::InvalidArgument("lz requires string column");
  }
  // Offsets (uncompressed positions), then block directory, then blocks.
  std::string bytes;
  uint32_t off = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    PutFixed32(dst, off);
    off += static_cast<uint32_t>(col.StringAt(i).size());
    bytes.append(col.StringAt(i));
  }
  PutFixed32(dst, off);

  size_t num_blocks = (bytes.size() + kLzBlockSize - 1) / kLzBlockSize;
  PutVarint64(dst, num_blocks);
  std::string blocks;
  std::vector<std::pair<uint64_t, uint64_t>> dir;  // (uncomp, comp) sizes
  for (size_t b = 0; b < num_blocks; ++b) {
    size_t begin = b * kLzBlockSize;
    size_t len = std::min(kLzBlockSize, bytes.size() - begin);
    size_t before = blocks.size();
    LzCompress(Slice(bytes.data() + begin, len), &blocks);
    dir.emplace_back(len, blocks.size() - before);
  }
  for (auto [u, c] : dir) {
    PutVarint64(dst, u);
    PutVarint64(dst, c);
  }
  dst->append(blocks);
  return Status::OK();
}

}  // namespace

const char* EncodingName(Encoding e) {
  switch (e) {
    case Encoding::kPlain:
      return "plain";
    case Encoding::kBitPack:
      return "bitpack";
    case Encoding::kRle:
      return "rle";
    case Encoding::kDict:
      return "dict";
    case Encoding::kLz:
      return "lz";
  }
  return "unknown";
}

Encoding ChooseEncoding(const ColumnVector& col) {
  if (col.size() == 0) return Encoding::kPlain;
  if (col.type() == DataType::kDouble) return Encoding::kPlain;
  if (col.type() == DataType::kInt64) {
    // Count runs and distinct values in one pass (distinct capped).
    size_t runs = 1;
    std::unordered_map<int64_t, int> distinct;
    bool too_many_distinct = false;
    for (size_t i = 0; i < col.size(); ++i) {
      if (i > 0 && col.IntAt(i) != col.IntAt(i - 1)) ++runs;
      if (!too_many_distinct) {
        distinct.emplace(col.IntAt(i), 1);
        if (distinct.size() > col.size() / 4 + 16) too_many_distinct = true;
      }
    }
    if (runs <= col.size() / 8) return Encoding::kRle;
    if (!too_many_distinct && distinct.size() <= 256) return Encoding::kDict;
    return Encoding::kBitPack;
  }
  // Strings: dictionary when low cardinality, else LZ when values repeat
  // content, else plain.
  std::unordered_map<std::string, int> distinct;
  size_t total_bytes = 0;
  bool too_many = false;
  for (size_t i = 0; i < col.size(); ++i) {
    total_bytes += col.StringAt(i).size();
    if (!too_many) {
      distinct.emplace(col.StringAt(i), 1);
      if (distinct.size() > col.size() / 4 + 16) too_many = true;
    }
  }
  if (!too_many && distinct.size() <= 4096 && col.size() >= 16) {
    return Encoding::kDict;
  }
  if (total_bytes >= 4096) return Encoding::kLz;
  return Encoding::kPlain;
}

Result<std::string> EncodeColumn(const ColumnVector& col, Encoding encoding) {
  // Fall back to plain when the requested encoding doesn't fit the type.
  if (col.type() == DataType::kDouble && encoding != Encoding::kPlain) {
    encoding = Encoding::kPlain;
  }
  if (col.type() == DataType::kString &&
      (encoding == Encoding::kBitPack || encoding == Encoding::kRle)) {
    encoding = Encoding::kPlain;
  }
  if (col.type() == DataType::kInt64 && encoding == Encoding::kLz) {
    encoding = Encoding::kPlain;
  }
  std::string out;
  EncodeHeader(col, encoding, &out);
  switch (encoding) {
    case Encoding::kPlain:
      EncodePlain(col, &out);
      break;
    case Encoding::kBitPack:
      S2_RETURN_NOT_OK(EncodeBitPack(col, &out));
      break;
    case Encoding::kRle:
      S2_RETURN_NOT_OK(EncodeRle(col, &out));
      break;
    case Encoding::kDict:
      S2_RETURN_NOT_OK(EncodeDict(col, &out));
      break;
    case Encoding::kLz:
      S2_RETURN_NOT_OK(EncodeLz(col, &out));
      break;
  }
  return out;
}

Result<std::unique_ptr<ColumnReader>> OpenColumn(
    std::shared_ptr<const std::string> data) {
  size_t size = data->size();
  return OpenColumnAt(std::move(data), 0, size);
}

Result<std::unique_ptr<ColumnReader>> OpenColumnAt(
    std::shared_ptr<const std::string> file, size_t offset, size_t size) {
  if (offset + size > file->size()) {
    return Status::InvalidArgument("column window outside file");
  }
  const std::shared_ptr<const std::string>& data = file;
  Slice in(file->data() + offset, size);
  if (in.size() < 3) return Status::Corruption("column block too small");
  Encoding enc = static_cast<Encoding>(in[0]);
  DataType type = static_cast<DataType>(in[1]);
  in.RemovePrefix(2);
  S2_ASSIGN_OR_RETURN(uint64_t num_rows, GetVarint64(&in));
  if (in.empty()) return Status::Corruption("truncated column header");
  bool has_nulls = in[0] != 0;
  in.RemovePrefix(1);
  BitVector nulls;
  if (has_nulls) {
    S2_ASSIGN_OR_RETURN(nulls, BitVector::DecodeFrom(&in));
  }

  std::unique_ptr<ColumnReader> reader;
  const uint32_t n = static_cast<uint32_t>(num_rows);
  switch (enc) {
    case Encoding::kPlain: {
      if (type == DataType::kString) {
        if (in.size() < (n + size_t{1}) * 4) {
          return Status::Corruption("truncated plain string column");
        }
        reader = std::make_unique<PlainStringReader>(type, enc, n, data,
                                                     in.data(), in.size());
      } else {
        if (in.size() < n * size_t{8}) {
          return Status::Corruption("truncated plain column");
        }
        reader = std::make_unique<PlainIntReader>(type, enc, n, data,
                                                  in.data(), in.size());
      }
      break;
    }
    case Encoding::kBitPack: {
      S2_ASSIGN_OR_RETURN(uint64_t zmin, GetVarint64(&in));
      if (in.empty()) return Status::Corruption("truncated bitpack header");
      int width = static_cast<unsigned char>(in[0]);
      in.RemovePrefix(1);
      if (in.size() < BitPackedBytes(n, width)) {
        return Status::Corruption("truncated bitpack column");
      }
      reader = std::make_unique<BitPackIntReader>(type, enc, n, data,
                                                  in.data(), in.size(),
                                                  ZigZagDecode(zmin), width);
      break;
    }
    case Encoding::kRle: {
      S2_ASSIGN_OR_RETURN(uint64_t num_runs, GetVarint64(&in));
      std::vector<int64_t> run_values;
      std::vector<uint32_t> run_ends;
      run_values.reserve(num_runs);
      run_ends.reserve(num_runs);
      uint32_t total = 0;
      for (uint64_t r = 0; r < num_runs; ++r) {
        S2_ASSIGN_OR_RETURN(uint64_t zv, GetVarint64(&in));
        S2_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&in));
        run_values.push_back(ZigZagDecode(zv));
        total += static_cast<uint32_t>(count);
        run_ends.push_back(total);
      }
      if (total != n) return Status::Corruption("rle run total mismatch");
      reader = std::make_unique<RleIntReader>(type, enc, n, data, in.data(),
                                              in.size(), std::move(run_values),
                                              std::move(run_ends));
      break;
    }
    case Encoding::kDict: {
      S2_ASSIGN_OR_RETURN(uint64_t dict_size, GetVarint64(&in));
      ColumnVector dict(type);
      for (uint64_t i = 0; i < dict_size; ++i) {
        if (type == DataType::kString) {
          S2_ASSIGN_OR_RETURN(Slice s, GetLengthPrefixed(&in));
          dict.AppendString(s.ToString());
        } else {
          S2_ASSIGN_OR_RETURN(uint64_t zv, GetVarint64(&in));
          dict.AppendInt(ZigZagDecode(zv));
        }
      }
      if (in.empty()) return Status::Corruption("truncated dict header");
      int width = static_cast<unsigned char>(in[0]);
      in.RemovePrefix(1);
      if (in.size() < BitPackedBytes(n, width)) {
        return Status::Corruption("truncated dict codes");
      }
      reader = std::make_unique<DictReader>(type, enc, n, data, in.data(),
                                            in.size(), std::move(dict),
                                            in.data(), width);
      break;
    }
    case Encoding::kLz: {
      if (in.size() < (n + size_t{1}) * 4) {
        return Status::Corruption("truncated lz offsets");
      }
      const char* payload = in.data();
      size_t payload_size = in.size();
      in.RemovePrefix((n + size_t{1}) * 4);
      S2_ASSIGN_OR_RETURN(uint64_t num_blocks, GetVarint64(&in));
      std::vector<uint32_t> uncomp_end;
      std::vector<uint32_t> comp_size;
      uncomp_end.reserve(num_blocks);
      comp_size.reserve(num_blocks);
      uint32_t utotal = 0;
      for (uint64_t b = 0; b < num_blocks; ++b) {
        S2_ASSIGN_OR_RETURN(uint64_t u, GetVarint64(&in));
        S2_ASSIGN_OR_RETURN(uint64_t c, GetVarint64(&in));
        utotal += static_cast<uint32_t>(u);
        uncomp_end.push_back(utotal);
        comp_size.push_back(static_cast<uint32_t>(c));
      }
      std::vector<const char*> block_data;
      block_data.reserve(num_blocks);
      for (uint64_t b = 0; b < num_blocks; ++b) {
        if (in.size() < comp_size[b]) {
          return Status::Corruption("truncated lz block");
        }
        block_data.push_back(in.data());
        in.RemovePrefix(comp_size[b]);
      }
      reader = std::make_unique<LzStringReader>(
          type, enc, n, data, payload, payload_size, std::move(uncomp_end),
          std::move(block_data), std::move(comp_size));
      break;
    }
    default:
      return Status::Corruption("unknown encoding");
  }
  reader->nulls_ = std::move(nulls);
  reader->has_nulls_ = has_nulls;
  return reader;
}

}  // namespace s2
