#include <gtest/gtest.h>

#include "test_util.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "common/coding.h"
#include "common/rng.h"
#include "index/global_index.h"
#include "index/inverted_index.h"
#include "index/postings.h"

namespace s2 {
namespace {

std::vector<uint32_t> Drain(PostingsIterator it) {
  std::vector<uint32_t> out;
  while (it.Valid()) {
    out.push_back(it.row());
    it.Next();
  }
  return out;
}

TEST(PostingsTest, EncodeDecodeRoundTrip) {
  std::vector<uint32_t> rows = {0, 1, 5, 100, 101, 65000, 1000000};
  std::string buf;
  EncodePostings(rows, &buf);
  auto it = PostingsIterator::Open(buf);
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(it->count(), rows.size());
  EXPECT_EQ(Drain(*it), rows);
}

TEST(PostingsTest, EmptyList) {
  std::string buf;
  EncodePostings({}, &buf);
  auto it = PostingsIterator::Open(buf);
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());
  EXPECT_EQ(it->encoded_size(), buf.size());
}

TEST(PostingsTest, SeekToSkipsGroups) {
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < 10000; ++i) rows.push_back(i * 3);
  std::string buf;
  EncodePostings(rows, &buf);
  auto it = PostingsIterator::Open(buf);
  ASSERT_TRUE(it.ok());
  it->SeekTo(15000);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->row(), 15000u);
  it->SeekTo(15001);
  EXPECT_EQ(it->row(), 15003u);
  it->SeekTo(29997);
  EXPECT_EQ(it->row(), 29997u);
  it->SeekTo(30000);
  EXPECT_FALSE(it->Valid());
}

TEST(PostingsTest, SeekToPropertySweep) {
  const uint64_t seed = TestSeed(31);
  SCOPED_TRACE("S2_TEST_SEED=" + std::to_string(seed));
  Rng rng(seed);
  std::vector<uint32_t> rows;
  uint32_t v = 0;
  for (int i = 0; i < 5000; ++i) {
    v += 1 + static_cast<uint32_t>(rng.Uniform(20));
    rows.push_back(v);
  }
  std::string buf;
  EncodePostings(rows, &buf);
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t target = static_cast<uint32_t>(rng.Uniform(v + 100));
    auto it = PostingsIterator::Open(buf);
    ASSERT_TRUE(it.ok());
    it->SeekTo(target);
    auto expect = std::lower_bound(rows.begin(), rows.end(), target);
    if (expect == rows.end()) {
      EXPECT_FALSE(it->Valid());
    } else {
      ASSERT_TRUE(it->Valid());
      EXPECT_EQ(it->row(), *expect) << "target " << target;
    }
  }
}

TEST(PostingsTest, EncodedSizeAllowsConcatenation) {
  std::string buf;
  EncodePostings({1, 2, 3}, &buf);
  size_t first_size = buf.size();
  EncodePostings({10, 20}, &buf);
  auto first = PostingsIterator::Open(buf);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->encoded_size(), first_size);
  auto second = PostingsIterator::Open(
      Slice(buf.data() + first->encoded_size(), buf.size() - first_size));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Drain(*second), (std::vector<uint32_t>{10, 20}));
}

// Lists on either side of the 64-row group boundaries drain exactly, reach
// every SeekTo target, and report the bytes EncodePostings wrote. The first
// group has no skip entry, so a one-row list is its count and one delta.
TEST(PostingsTest, GroupBoundarySizes) {
  for (uint32_t n : {0u, 1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    std::vector<uint32_t> rows;
    for (uint32_t i = 0; i < n; ++i) rows.push_back(5 + i * 3);
    std::string buf = "prefix";
    EncodePostings(rows, &buf);
    const size_t written = buf.size() - 6;
    buf += "trailing bytes";
    Slice list(buf.data() + 6, buf.size() - 6);
    auto it = PostingsIterator::Open(list);
    ASSERT_TRUE(it.ok());
    EXPECT_EQ(it->count(), n);
    EXPECT_EQ(it->encoded_size(), written);
    EXPECT_EQ(Drain(*it), rows);
    if (n == 1) {
      EXPECT_EQ(written, 2u);
    }
    const uint32_t last = n == 0 ? 0 : rows.back();
    for (uint32_t target = 0; target <= last + 1; ++target) {
      auto seek = PostingsIterator::Open(list);
      ASSERT_TRUE(seek.ok());
      seek->SeekTo(target);
      auto expect = std::lower_bound(rows.begin(), rows.end(), target);
      if (expect == rows.end()) {
        EXPECT_FALSE(seek->Valid()) << "target " << target;
      } else {
        ASSERT_TRUE(seek->Valid()) << "target " << target;
        EXPECT_EQ(seek->row(), *expect) << "target " << target;
      }
    }
    // Forward seeks from one iterator reach every row in turn.
    auto walk = PostingsIterator::Open(list);
    ASSERT_TRUE(walk.ok());
    for (uint32_t row : rows) {
      walk->SeekTo(row);
      ASSERT_TRUE(walk->Valid());
      EXPECT_EQ(walk->row(), row);
    }
  }
}

TEST(PostingsTest, IntersectLeapfrog) {
  std::string a, b, c;
  EncodePostings({1, 3, 5, 7, 9, 100, 200}, &a);
  EncodePostings({2, 3, 7, 8, 100, 150, 200}, &b);
  EncodePostings({3, 7, 9, 100, 200, 300}, &c);
  std::vector<PostingsIterator> its;
  its.push_back(*PostingsIterator::Open(a));
  its.push_back(*PostingsIterator::Open(b));
  its.push_back(*PostingsIterator::Open(c));
  std::vector<uint32_t> out;
  ASSERT_TRUE(IntersectPostings(std::move(its), &out).ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{3, 7, 100, 200}));
}

TEST(PostingsTest, UnionMerges) {
  std::string a, b;
  EncodePostings({1, 5, 9}, &a);
  EncodePostings({2, 5, 10}, &b);
  std::vector<PostingsIterator> its;
  its.push_back(*PostingsIterator::Open(a));
  its.push_back(*PostingsIterator::Open(b));
  std::vector<uint32_t> out;
  ASSERT_TRUE(UnionPostings(std::move(its), &out).ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2, 5, 9, 10}));
}

TEST(PostingsTest, IntersectRandomAgainstBruteForce) {
  const uint64_t seed = TestSeed(77);
  SCOPED_TRACE("S2_TEST_SEED=" + std::to_string(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    std::set<uint32_t> sa, sb;
    for (int i = 0; i < 300; ++i) {
      sa.insert(static_cast<uint32_t>(rng.Uniform(1000)));
      sb.insert(static_cast<uint32_t>(rng.Uniform(1000)));
    }
    std::vector<uint32_t> va(sa.begin(), sa.end()), vb(sb.begin(), sb.end());
    std::string ea, eb;
    EncodePostings(va, &ea);
    EncodePostings(vb, &eb);
    std::vector<uint32_t> expected;
    std::set_intersection(va.begin(), va.end(), vb.begin(), vb.end(),
                          std::back_inserter(expected));
    std::vector<PostingsIterator> its;
    its.push_back(*PostingsIterator::Open(ea));
    its.push_back(*PostingsIterator::Open(eb));
    std::vector<uint32_t> out;
    ASSERT_TRUE(IntersectPostings(std::move(its), &out).ok());
    EXPECT_EQ(out, expected);
  }
}

// A term as the index stores it: the values' encodings concatenated.
std::string Term(std::initializer_list<Value> values) {
  std::string term;
  for (const Value& value : values) value.EncodeTo(&term);
  return term;
}

// Each term's entry offset, from the block's directory.
std::map<std::string, uint32_t> EntryOffsets(const InvertedIndexReader& reader) {
  std::map<std::string, uint32_t> offsets;
  EXPECT_TRUE(reader
                  .ForEachTerm([&](Slice term, uint32_t offset) {
                    offsets[term.ToString()] = offset;
                  })
                  .ok());
  return offsets;
}

TEST(InvertedIndexTest, BuildLookup) {
  ColumnVector col(DataType::kString);
  col.AppendString("apple");
  col.AppendString("banana");
  col.AppendString("apple");
  col.AppendNull();
  col.AppendString("cherry");
  col.AppendString("apple");

  std::string block = InvertedIndexBuilder::Build({&col});
  auto reader = InvertedIndexReader::Open(block);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_terms(), 3u);

  auto apple = reader->Lookup(Value("apple"));
  ASSERT_TRUE(apple.ok());
  EXPECT_EQ(Drain(*apple), (std::vector<uint32_t>{0, 2, 5}));
  auto banana = reader->Lookup(Value("banana"));
  EXPECT_EQ(Drain(*banana), (std::vector<uint32_t>{1}));
  auto missing = reader->Lookup(Value("durian"));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->Valid());
  auto past_last = reader->Lookup(Value("zucchini"));
  ASSERT_TRUE(past_last.ok());
  EXPECT_FALSE(past_last->Valid());
}

// Every directory offset opens its own term's postings; a different term
// there (a simulated hash collision) yields an invalid iterator.
TEST(InvertedIndexTest, EntryOffsetsOpenTheirTermsPostings) {
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 100; ++i) col.AppendInt(i % 5);
  std::string block = InvertedIndexBuilder::Build({&col});
  auto reader = InvertedIndexReader::Open(block);
  ASSERT_TRUE(reader.ok());
  const std::map<std::string, uint32_t> offsets = EntryOffsets(*reader);
  ASSERT_EQ(offsets.size(), 5u);
  for (const auto& [term, offset] : offsets) {
    auto postings = InvertedIndexReader::PostingsAt(block, offset, term);
    ASSERT_TRUE(postings.ok());
    EXPECT_EQ(postings->count(), 20u);
  }
  const std::string zero = Term({Value(int64_t{0})});
  auto good = InvertedIndexReader::PostingsAt(block, offsets.at(zero), zero);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(Drain(*good), (std::vector<uint32_t>{0, 5, 10, 15, 20, 25, 30,
                                                 35, 40, 45, 50, 55, 60, 65,
                                                 70, 75, 80, 85, 90, 95}));
  auto collided = InvertedIndexReader::PostingsAt(
      block, offsets.at(zero), Term({Value(int64_t{999})}));
  ASSERT_TRUE(collided.ok());
  EXPECT_FALSE(collided->Valid());
}

// The global-index path reads a postings list straight from the block, with
// no directory: for every term it yields what a directory lookup yields.
TEST(InvertedIndexTest, PostingsAtMatchesDirectoryLookup) {
  ColumnVector col(DataType::kString);
  for (int i = 0; i < 300; ++i) {
    if (i % 11 == 0) {
      col.AppendNull();
    } else {
      col.AppendString("term-" + std::to_string(i * 7 % 23));
    }
  }
  std::string block = InvertedIndexBuilder::Build({&col});
  auto reader = InvertedIndexReader::Open(block);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->num_terms(), 23u);
  size_t visited = 0;
  ASSERT_TRUE(reader
                  ->ForEachTerm([&](Slice term, uint32_t offset) {
                    ++visited;
                    auto direct =
                        InvertedIndexReader::PostingsAt(block, offset, term);
                    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
                    ASSERT_TRUE(direct->Valid());
                    Slice in = term;
                    auto value = Value::DecodeFrom(&in);
                    ASSERT_TRUE(value.ok());
                    auto looked_up = reader->Lookup(*value);
                    ASSERT_TRUE(looked_up.ok());
                    EXPECT_EQ(Drain(*direct), Drain(*looked_up))
                        << value->ToString();
                    // A different term at the same offset is a collision,
                    // not a match.
                    auto wrong = InvertedIndexReader::PostingsAt(
                        block, offset, Term({Value("absent-term")}));
                    ASSERT_TRUE(wrong.ok());
                    EXPECT_FALSE(wrong->Valid());
                  })
                  .ok());
  EXPECT_EQ(visited, reader->num_terms());
}

// A tuple block indexes each row under its values' encodings concatenated.
// A global entry that points at another tuple's entry, or a probe with
// another tuple's term, yields no row; a tuple with a NULL is not indexed.
TEST(InvertedIndexTest, TupleBlockRejectsOtherTuples) {
  ColumnVector w(DataType::kInt64);
  ColumnVector name(DataType::kString);
  const std::vector<std::pair<int64_t, const char*>> rows = {
      {1, "a"}, {1, "b"}, {2, "a"}, {1, "a"}, {3, nullptr}, {12, "a"}};
  for (const auto& [wv, nv] : rows) {
    w.AppendInt(wv);
    if (nv == nullptr) {
      name.AppendNull();
    } else {
      name.AppendString(nv);
    }
  }
  std::string block = InvertedIndexBuilder::Build({&w, &name});
  auto reader = InvertedIndexReader::Open(block);
  ASSERT_TRUE(reader.ok());
  const std::map<std::string, uint32_t> offsets = EntryOffsets(*reader);
  ASSERT_EQ(offsets.size(), 4u) << "(3, NULL) must not be indexed";
  EXPECT_EQ(offsets.count(Term({Value(int64_t{3}), Value::Null()})), 0u);
  const std::string w1a = Term({Value(int64_t{1}), Value("a")});
  const std::string w1b = Term({Value(int64_t{1}), Value("b")});
  const std::string w2a = Term({Value(int64_t{2}), Value("a")});
  auto own = InvertedIndexReader::PostingsAt(block, offsets.at(w1a), w1a);
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(Drain(*own), (std::vector<uint32_t>{0, 3}));
  // A colliding global entry: (1, a)'s hash pointing at (2, a)'s entry.
  auto other_offset =
      InvertedIndexReader::PostingsAt(block, offsets.at(w2a), w1a);
  ASSERT_TRUE(other_offset.ok());
  EXPECT_FALSE(other_offset->Valid());
  // Another tuple's term at (1, a)'s entry.
  auto other_term = InvertedIndexReader::PostingsAt(block, offsets.at(w1a), w1b);
  ASSERT_TRUE(other_term.ok());
  EXPECT_FALSE(other_term->Valid());
}

// A damaged block is Corruption from the directory-free read and from
// Open, not a crash.
TEST(InvertedIndexTest, PostingsAtRejectsDamagedBlock) {
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 50; ++i) col.AppendInt(i % 4);
  std::string block = InvertedIndexBuilder::Build({&col});
  const std::string zero = Term({Value(int64_t{0})});

  // Shorter than the trailer.
  EXPECT_TRUE(InvertedIndexReader::PostingsAt(Slice(block.data(), 3), 0, zero)
                  .status()
                  .IsCorruption());
  // A trailer whose entries size runs past the block.
  std::string long_trailer = block.substr(0, block.size() - 4);
  PutFixed32(&long_trailer, static_cast<uint32_t>(block.size()));
  EXPECT_TRUE(
      InvertedIndexReader::PostingsAt(long_trailer, 0, zero).status()
          .IsCorruption());
  EXPECT_TRUE(InvertedIndexReader::Open(long_trailer).status().IsCorruption());
  // An offset at or past the entries size.
  uint32_t entries_size = DecodeFixed32(block.data() + block.size() - 4);
  EXPECT_TRUE(InvertedIndexReader::PostingsAt(block, entries_size, zero)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(InvertedIndexReader::PostingsAt(block, entries_size + 100, zero)
                  .status()
                  .IsCorruption());
  // A directory offset past the entries region.
  ASSERT_TRUE(InvertedIndexReader::Open(block).ok());
  for (uint32_t bad : {entries_size, entries_size + 1000}) {
    std::string damaged = block;
    memcpy(damaged.data() + entries_size + 4, &bad, 4);  // second term
    EXPECT_TRUE(InvertedIndexReader::Open(damaged).status().IsCorruption())
        << bad;
  }
  // A directory that is not a whole number of offsets.
  std::string misaligned = block.substr(0, block.size() - 4);
  misaligned.push_back('\0');
  PutFixed32(&misaligned, entries_size);
  EXPECT_TRUE(InvertedIndexReader::Open(misaligned).status().IsCorruption());
}

TEST(HashTableTest, BuildLookupMultiEntry) {
  std::vector<IndexEntry> entries = {
      {111, 1, 10}, {222, 1, 20}, {111, 2, 30}, {333, 3, 40}};
  std::string bytes = ImmutableHashTable::Build(entries, {1, 2, 3});
  auto table =
      ImmutableHashTable::Open(std::make_shared<const std::string>(bytes));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_entries(), 4u);

  std::vector<uint64_t> segs;
  table->Lookup(111, [&](const IndexEntry& e) { segs.push_back(e.segment_id); });
  std::sort(segs.begin(), segs.end());
  EXPECT_EQ(segs, (std::vector<uint64_t>{1, 2}));

  segs.clear();
  table->Lookup(999, [&](const IndexEntry& e) { segs.push_back(e.segment_id); });
  EXPECT_TRUE(segs.empty());
}

TEST(HashTableTest, ManyCollidingHashesAllFound) {
  // Adversarial: many entries whose hashes collide modulo table size.
  std::vector<IndexEntry> entries;
  for (uint64_t i = 0; i < 100; ++i) {
    entries.push_back({i << 32, i, 0});  // low bits all zero
  }
  std::string bytes = ImmutableHashTable::Build(entries, {});
  auto table =
      ImmutableHashTable::Open(std::make_shared<const std::string>(bytes));
  ASSERT_TRUE(table.ok());
  for (uint64_t i = 0; i < 100; ++i) {
    int found = 0;
    table->Lookup(i << 32, [&](const IndexEntry&) { ++found; });
    EXPECT_EQ(found, 1) << i;
  }
}

TEST(GlobalIndexTest, AddLookupAcrossTables) {
  GlobalIndex index(/*max_tables=*/100);  // no merging for this test
  index.AddSegment(1, {{111, 1, 10}, {222, 1, 20}});
  index.AddSegment(2, {{111, 2, 30}});
  index.AddSegment(3, {{333, 3, 40}});
  EXPECT_EQ(index.num_tables(), 3u);

  std::vector<uint64_t> segs;
  index.Lookup(111, [&](const IndexEntry& e) { segs.push_back(e.segment_id); });
  std::sort(segs.begin(), segs.end());
  EXPECT_EQ(segs, (std::vector<uint64_t>{1, 2}));
}

TEST(GlobalIndexTest, MergeKeepsLookupsAndBoundsTables) {
  GlobalIndex index(/*max_tables=*/4);
  for (uint64_t seg = 0; seg < 50; ++seg) {
    index.AddSegment(seg, {{seg % 7, seg, static_cast<uint32_t>(seg)}});
  }
  EXPECT_LE(index.num_tables(), 5u) << "LSM merge keeps table count bounded";
  std::vector<uint64_t> segs;
  index.Lookup(3, [&](const IndexEntry& e) { segs.push_back(e.segment_id); });
  std::sort(segs.begin(), segs.end());
  EXPECT_EQ(segs, (std::vector<uint64_t>{3, 10, 17, 24, 31, 38, 45}));
}

TEST(GlobalIndexTest, LazyDeletionSkipsDeadSegments) {
  GlobalIndex index(/*max_tables=*/1);
  index.AddSegment(1, {{111, 1, 0}, {222, 1, 0}, {333, 1, 0}});
  index.AddSegment(2, {{111, 2, 0}});
  index.AddSegment(3, {{111, 3, 0}});  // merges: one table covers 1, 2, 3
  index.RemoveSegments({1});  // a third of the table: not rewritten
  EXPECT_EQ(index.total_entries(), 5u);

  std::vector<uint64_t> segs;
  index.Lookup(111, [&](const IndexEntry& e) { segs.push_back(e.segment_id); });
  std::sort(segs.begin(), segs.end());
  EXPECT_EQ(segs, (std::vector<uint64_t>{2, 3}));
}

TEST(GlobalIndexTest, MaintainRewritesMostlyDeadTables) {
  GlobalIndex index(/*max_tables=*/100);
  index.AddSegment(1, {{111, 1, 0}, {222, 1, 0}});
  index.AddSegment(2, {{111, 2, 0}});
  EXPECT_EQ(index.total_entries(), 3u);
  index.RemoveSegments({1});
  EXPECT_EQ(index.total_entries(), 1u) << "fully removed table rewritten";
  EXPECT_EQ(index.num_tables(), 1u) << "and dropped once empty";
}

TEST(GlobalIndexTest, MergeDropsDeadEntries) {
  GlobalIndex index(/*max_tables=*/2);
  for (uint64_t seg = 0; seg < 4; ++seg) {
    index.AddSegment(seg, {{42, seg, 0}});
  }
  // Tables now cover {0, 1, 2} and {3}: removing 1 rewrites neither.
  index.RemoveSegments({1});
  EXPECT_EQ(index.total_entries(), 4u);
  index.AddSegment(4, {{42, 4, 0}});  // the merge drops segment 1's entry
  EXPECT_EQ(index.num_tables(), 1u);
  EXPECT_EQ(index.total_entries(), 4u);
  std::vector<uint64_t> segs;
  index.Lookup(42, [&](const IndexEntry& e) { segs.push_back(e.segment_id); });
  std::sort(segs.begin(), segs.end());
  EXPECT_EQ(segs, (std::vector<uint64_t>{0, 2, 3, 4}));
}

}  // namespace
}  // namespace s2
