#include "index/inverted_index.h"

#include <algorithm>
#include <map>

#include "common/coding.h"

namespace s2 {

// Block layout:
//   entries region: per term: [value length-prefixed][postings]
//   directory: [num_terms varint], then per term (sorted by encoded value):
//     [value length-prefixed][entry_offset varint]
//   [entries_size fixed32]
//
// The entries region starts the block, so an entry offset (the one the
// global index stores) is also a block offset: PostingsAt reads the
// trailer, bounds-checks the offset and jumps to the entry without
// touching the directory. The entry stores the value again so that read
// can verify the term (the global index holds only 64-bit hashes and must
// reject collisions).

std::string InvertedIndexBuilder::Build(const ColumnVector& column) {
  std::vector<TermInfo> unused;
  return BuildWithTerms(column, &unused);
}

std::string InvertedIndexBuilder::BuildWithTerms(
    const ColumnVector& column, std::vector<TermInfo>* terms) {
  // Group rows by encoded value (ordered map keeps the directory sorted).
  std::map<std::string, std::vector<uint32_t>> groups;
  for (size_t i = 0; i < column.size(); ++i) {
    if (column.IsNull(i)) continue;
    std::string key;
    column.GetValue(i).EncodeTo(&key);
    groups[key].push_back(static_cast<uint32_t>(i));
  }

  std::string block;
  std::string directory;
  PutVarint64(&directory, groups.size());
  terms->clear();
  terms->reserve(groups.size());
  for (const auto& [value, rows] : groups) {
    uint32_t offset = static_cast<uint32_t>(block.size());
    PutLengthPrefixed(&block, value);
    EncodePostings(rows, &block);

    PutLengthPrefixed(&directory, value);
    PutVarint64(&directory, offset);

    Slice value_slice(value);
    Value decoded = *Value::DecodeFrom(&value_slice);
    terms->push_back(TermInfo{decoded.Hash(), offset,
                              static_cast<uint32_t>(rows.size())});
  }
  uint32_t entries_size = static_cast<uint32_t>(block.size());
  block.append(directory);
  PutFixed32(&block, entries_size);
  return block;
}

namespace {

// The entries region of a block, from its fixed32 trailer.
Result<Slice> EntriesRegion(Slice block) {
  if (block.size() < 4) {
    return Status::Corruption("inverted index block too small");
  }
  uint32_t entries_size = DecodeFixed32(block.data() + block.size() - 4);
  if (entries_size > block.size() - 4) {
    return Status::Corruption("inverted index entries past the block");
  }
  return Slice(block.data(), entries_size);
}

}  // namespace

Result<InvertedIndexReader> InvertedIndexReader::Open(Slice block) {
  InvertedIndexReader reader;
  reader.block_ = block;
  S2_ASSIGN_OR_RETURN(Slice entries, EntriesRegion(block));
  Slice in(block.data() + entries.size(), block.size() - 4 - entries.size());
  S2_ASSIGN_OR_RETURN(uint64_t num_terms, GetVarint64(&in));
  reader.terms_.reserve(num_terms);
  for (uint64_t t = 0; t < num_terms; ++t) {
    S2_ASSIGN_OR_RETURN(Slice value, GetLengthPrefixed(&in));
    S2_ASSIGN_OR_RETURN(uint64_t offset, GetVarint64(&in));
    reader.terms_.push_back(Term{value, static_cast<uint32_t>(offset)});
  }
  return reader;
}

Result<PostingsIterator> InvertedIndexReader::Lookup(const Value& value) const {
  std::string key;
  value.EncodeTo(&key);
  auto it = std::lower_bound(
      terms_.begin(), terms_.end(), Slice(key),
      [](const Term& t, const Slice& k) { return t.encoded_value < k; });
  if (it == terms_.end() || it->encoded_value != Slice(key)) {
    return PostingsIterator();  // invalid: value absent
  }
  return PostingsAt(block_, it->offset, value);
}

void InvertedIndexReader::ForEachTerm(
    const std::function<void(const Value& value, uint32_t offset)>& cb) const {
  for (const Term& term : terms_) {
    Slice in = term.encoded_value;
    auto value = Value::DecodeFrom(&in);
    if (value.ok()) cb(*value, term.offset);
  }
}

Result<PostingsIterator> InvertedIndexReader::PostingsAt(
    Slice block, uint32_t offset, const Value& expected) {
  S2_ASSIGN_OR_RETURN(Slice entries, EntriesRegion(block));
  if (offset >= entries.size()) {
    return Status::Corruption("postings offset out of range");
  }
  Slice in(entries.data() + offset, entries.size() - offset);
  S2_ASSIGN_OR_RETURN(Slice stored_value, GetLengthPrefixed(&in));
  std::string expected_key;
  expected.EncodeTo(&expected_key);
  if (stored_value != Slice(expected_key)) {
    // Hash collision in the global index: this postings list belongs to a
    // different value.
    return PostingsIterator();
  }
  return PostingsIterator::Open(in);
}

}  // namespace s2
