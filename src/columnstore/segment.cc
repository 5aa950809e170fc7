#include "columnstore/segment.h"

#include <mutex>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/metrics.h"

namespace s2 {

namespace {
constexpr uint32_t kSegmentMagic = 0x53325347;  // "S2SG"
}  // namespace

// --- ColumnStats ---

void ColumnStats::EncodeTo(std::string* dst) const {
  min.EncodeTo(dst);
  max.EncodeTo(dst);
  dst->push_back(has_nulls ? 1 : 0);
}

Result<ColumnStats> ColumnStats::DecodeFrom(Slice* input) {
  ColumnStats stats;
  S2_ASSIGN_OR_RETURN(stats.min, Value::DecodeFrom(input));
  S2_ASSIGN_OR_RETURN(stats.max, Value::DecodeFrom(input));
  if (input->empty()) return Status::Corruption("truncated column stats");
  stats.has_nulls = (*input)[0] != 0;
  input->RemovePrefix(1);
  return stats;
}

bool ColumnStats::MayContain(const Value& v) const {
  if (v.is_null()) return has_nulls;
  if (min.is_null() && max.is_null()) {
    // No non-null values were observed (all-null or empty column).
    return false;
  }
  return min.Compare(v) <= 0 && v.Compare(max) <= 0;
}

bool ColumnStats::MayOverlap(const Value& lo, const Value& hi) const {
  if (min.is_null() && max.is_null()) return false;
  if (!lo.is_null() && max.Compare(lo) < 0) return false;
  if (!hi.is_null() && hi.Compare(min) < 0) return false;
  return true;
}

// --- Segment ---

Result<std::shared_ptr<Segment>> Segment::Open(
    std::shared_ptr<const std::string> file) {
  if (file->size() < 12) return Status::Corruption("segment file too small");
  const char* end = file->data() + file->size();
  uint32_t magic = DecodeFixed32(end - 4);
  if (magic != kSegmentMagic) return Status::Corruption("bad segment magic");
  uint32_t footer_size = DecodeFixed32(end - 8);
  if (footer_size + 8 > file->size()) {
    return Status::Corruption("bad segment footer size");
  }
  // Footer layout: [payload][crc u32][footer_size u32][magic u32] where
  // footer_size covers payload + crc.
  Slice footer(end - 8 - footer_size, footer_size);
  if (footer.size() < 4) return Status::Corruption("segment footer too small");
  Slice payload(footer.data(), footer.size() - 4);
  uint32_t crc = Crc32(payload.data(), payload.size());
  uint32_t stored_crc = DecodeFixed32(footer.data() + footer.size() - 4);
  if (crc != stored_crc) return Status::Corruption("segment footer crc");

  auto segment = std::shared_ptr<Segment>(new Segment());
  segment->file_ = file;
  Slice in = payload;
  S2_ASSIGN_OR_RETURN(uint64_t num_rows, GetVarint64(&in));
  S2_ASSIGN_OR_RETURN(uint64_t num_cols, GetVarint64(&in));
  segment->num_rows_ = static_cast<uint32_t>(num_rows);
  segment->columns_ = std::vector<ColumnEntry>(num_cols);
  segment->stats_.reserve(num_cols);
  for (uint64_t c = 0; c < num_cols; ++c) {
    S2_ASSIGN_OR_RETURN(uint64_t offset, GetVarint64(&in));
    S2_ASSIGN_OR_RETURN(uint64_t size, GetVarint64(&in));
    if (offset + size > file->size()) {
      return Status::Corruption("segment column window out of range");
    }
    segment->columns_[c].offset = offset;
    segment->columns_[c].size = size;
    S2_ASSIGN_OR_RETURN(ColumnStats stats, ColumnStats::DecodeFrom(&in));
    segment->stats_.push_back(std::move(stats));
  }
  S2_ASSIGN_OR_RETURN(uint64_t num_aux, GetVarint64(&in));
  for (uint64_t a = 0; a < num_aux; ++a) {
    S2_ASSIGN_OR_RETURN(Slice name, GetLengthPrefixed(&in));
    S2_ASSIGN_OR_RETURN(uint64_t offset, GetVarint64(&in));
    S2_ASSIGN_OR_RETURN(uint64_t size, GetVarint64(&in));
    if (offset + size > file->size()) {
      return Status::Corruption("segment aux window out of range");
    }
    segment->aux_[name.ToString()] = {offset, size};
  }
  return segment;
}

Result<const ColumnReader*> Segment::column(size_t c) const {
  if (c >= columns_.size()) {
    return Status::InvalidArgument("column index out of range");
  }
  const ColumnEntry& entry = columns_[c];
  Status open_status;
  std::call_once(entry.once, [&] {
    auto reader = OpenColumnAt(file_, entry.offset, entry.size);
    if (reader.ok()) {
      entry.reader = std::move(*reader);
    } else {
      open_status = reader.status();
    }
  });
  if (entry.reader == nullptr) {
    return open_status.ok()
               ? Status::Corruption("segment column failed to open earlier")
               : open_status;
  }
  return entry.reader.get();
}

Result<Slice> Segment::aux_block(const std::string& name) const {
  auto it = aux_.find(name);
  if (it == aux_.end()) return Status::NotFound("no aux block " + name);
  return Slice(file_->data() + it->second.first, it->second.second);
}

Result<std::vector<Row>> Segment::ReadRows(
    const std::vector<uint32_t>& rows) const {
  for (uint32_t r : rows) {
    if (r >= num_rows_) return Status::OutOfRange("row out of range");
  }
  std::vector<Row> out(rows.size());
  for (Row& row : out) row.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    S2_ASSIGN_OR_RETURN(const ColumnReader* reader, column(c));
    ColumnVector values(reader->type());
    S2_RETURN_NOT_OK(reader->DecodeRows(rows, &values));
    for (size_t i = 0; i < out.size(); ++i) {
      out[i].push_back(values.GetValue(i));
    }
  }
  S2_COUNTER("s2_segment_rows_read_total").Add(rows.size());
  return out;
}

Result<Row> Segment::ReadRow(uint32_t r) const {
  S2_ASSIGN_OR_RETURN(std::vector<Row> rows, ReadRows({r}));
  return std::move(rows[0]);
}

// --- SegmentBuilder ---

SegmentBuilder::SegmentBuilder(const Schema& schema) : schema_(schema) {
  columns_.reserve(schema.num_columns());
  for (const ColumnDef& col : schema.columns()) {
    columns_.emplace_back(col.type);
  }
}

void SegmentBuilder::AddRow(const Row& row) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].Append(row[c]);
  }
  ++num_rows_;
}

void SegmentBuilder::AddColumnVector(size_t col, const ColumnVector& data) {
  for (size_t i = 0; i < data.size(); ++i) {
    columns_[col].Append(data.GetValue(i));
  }
  if (col == columns_.size() - 1) {
    num_rows_ = static_cast<uint32_t>(columns_[0].size());
  }
}

void SegmentBuilder::AddAuxBlock(const std::string& name, std::string bytes) {
  aux_.emplace_back(name, std::move(bytes));
}

Result<std::string> SegmentBuilder::Finish() {
  std::string file;
  PutFixed32(&file, kSegmentMagic);

  std::string footer;
  PutVarint64(&footer, num_rows_);
  PutVarint64(&footer, columns_.size());

  for (ColumnVector& col : columns_) {
    Encoding enc = ChooseEncoding(col);
    S2_ASSIGN_OR_RETURN(std::string block, EncodeColumn(col, enc));
    uint64_t offset = file.size();
    file.append(block);
    PutVarint64(&footer, offset);
    PutVarint64(&footer, block.size());
    // Column stats.
    ColumnStats stats;
    for (size_t i = 0; i < col.size(); ++i) {
      Value v = col.GetValue(i);
      if (v.is_null()) {
        stats.has_nulls = true;
        continue;
      }
      if (stats.min.is_null() || v.Compare(stats.min) < 0) stats.min = v;
      if (stats.max.is_null() || v.Compare(stats.max) > 0) {
        stats.max = std::move(v);
      }
    }
    stats.EncodeTo(&footer);
  }

  PutVarint64(&footer, aux_.size());
  for (auto& [name, bytes] : aux_) {
    uint64_t offset = file.size();
    file.append(bytes);
    PutLengthPrefixed(&footer, name);
    PutVarint64(&footer, offset);
    PutVarint64(&footer, bytes.size());
  }

  PutFixed32(&footer, Crc32(footer.data(), footer.size()));
  uint32_t footer_size = static_cast<uint32_t>(footer.size());
  file.append(footer);
  PutFixed32(&file, footer_size);
  PutFixed32(&file, kSegmentMagic);
  return file;
}

}  // namespace s2
