#include "index/inverted_index.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "common/coding.h"

namespace s2 {

// Block layout:
//   entries region, one entry per term in term order:
//     [term length-prefixed][postings]
//   directory: [entry_offset fixed32] per term, in term order
//   [entries_size fixed32]
//
// The entries region starts the block, so an entry offset (the one the
// global index stores) is also a block offset: PostingsAt reads the
// trailer, bounds-checks the offset and jumps to the entry without
// touching the directory. The entry holds the block's only copy of the
// term, which that read compares (the global index holds only 64-bit
// hashes and must reject collisions) and a directory search reads.

std::string InvertedIndexBuilder::Build(
    const std::vector<const ColumnVector*>& columns) {
  // One (term, row) posting per indexed row, the terms in one arena. A
  // term's first 8 bytes, big-endian and zero-padded, order as its bytes
  // do, so most comparisons of the sort are one integer compare. An index's
  // terms are prefix-free (each value encoding is), so two with one prefix
  // are equal when they fit in it.
  struct Posting {
    uint64_t prefix;
    uint32_t term_offset;
    uint32_t term_size;
    uint32_t row;
  };
  std::string arena;
  std::vector<Posting> postings;
  const size_t num_rows = columns.empty() ? 0 : columns[0]->size();
  postings.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    size_t start = arena.size();
    bool has_null = false;
    for (const ColumnVector* column : columns) {
      if (column->IsNull(r)) {
        has_null = true;
        break;
      }
      column->GetValue(r).EncodeTo(&arena);
    }
    if (has_null) {
      arena.resize(start);
      continue;
    }
    const size_t size = arena.size() - start;
    unsigned char head[8] = {};
    memcpy(head, arena.data() + start, std::min<size_t>(size, 8));
    uint64_t prefix = 0;
    for (unsigned char byte : head) prefix = prefix << 8 | byte;
    postings.push_back(Posting{prefix, static_cast<uint32_t>(start),
                               static_cast<uint32_t>(size),
                               static_cast<uint32_t>(r)});
  }
  auto term_of = [&](const Posting& p) {
    return std::string_view(arena.data() + p.term_offset, p.term_size);
  };
  std::sort(postings.begin(), postings.end(),
            [&](const Posting& a, const Posting& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              if (a.term_size <= 8) return a.row < b.row;
              int cmp = term_of(a).compare(term_of(b));
              return cmp != 0 ? cmp < 0 : a.row < b.row;
            });

  std::string block;
  std::vector<uint32_t> directory;
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < postings.size();) {
    std::string_view term = term_of(postings[i]);
    rows.clear();
    for (; i < postings.size() && term_of(postings[i]) == term; ++i) {
      rows.push_back(postings[i].row);
    }
    directory.push_back(static_cast<uint32_t>(block.size()));
    PutLengthPrefixed(&block, Slice(term.data(), term.size()));
    EncodePostings(rows, &block);
  }
  uint32_t entries_size = static_cast<uint32_t>(block.size());
  for (uint32_t offset : directory) PutFixed32(&block, offset);
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
  S2_ASSIGN_OR_RETURN(reader.entries_, EntriesRegion(block));
  size_t directory_size = block.size() - 4 - reader.entries_.size();
  if (directory_size % 4 != 0) {
    return Status::Corruption("inverted index directory misaligned");
  }
  reader.directory_ = block.data() + reader.entries_.size();
  reader.num_terms_ = directory_size / 4;
  for (size_t t = 0; t < reader.num_terms_; ++t) {
    if (DecodeFixed32(reader.directory_ + t * 4) >= reader.entries_.size()) {
      return Status::Corruption("inverted index entry offset out of range");
    }
  }
  return reader;
}

Result<Slice> InvertedIndexReader::TermAt(size_t t) const {
  uint32_t offset = DecodeFixed32(directory_ + t * 4);
  Slice in(entries_.data() + offset, entries_.size() - offset);
  return GetLengthPrefixed(&in);
}

Result<PostingsIterator> InvertedIndexReader::Lookup(const Value& value) const {
  std::string key;
  value.EncodeTo(&key);
  // Binary search of the directory: the first term >= key.
  size_t lo = 0, hi = num_terms_;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    S2_ASSIGN_OR_RETURN(Slice term, TermAt(mid));
    if (term < Slice(key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == num_terms_) return PostingsIterator();  // invalid: value absent
  return PostingsAt(block_, DecodeFixed32(directory_ + lo * 4), key);
}

Status InvertedIndexReader::ForEachTerm(
    const std::function<void(Slice term, uint32_t offset)>& cb) const {
  for (size_t t = 0; t < num_terms_; ++t) {
    S2_ASSIGN_OR_RETURN(Slice term, TermAt(t));
    cb(term, DecodeFixed32(directory_ + t * 4));
  }
  return Status::OK();
}

Result<PostingsIterator> InvertedIndexReader::PostingsAt(Slice block,
                                                         uint32_t offset,
                                                         Slice term) {
  S2_ASSIGN_OR_RETURN(Slice entries, EntriesRegion(block));
  if (offset >= entries.size()) {
    return Status::Corruption("postings offset out of range");
  }
  Slice in(entries.data() + offset, entries.size() - offset);
  S2_ASSIGN_OR_RETURN(Slice stored_term, GetLengthPrefixed(&in));
  if (stored_term != term) {
    // Hash collision in the global index: this postings list belongs to a
    // different term.
    return PostingsIterator();
  }
  return PostingsIterator::Open(in);
}

}  // namespace s2
