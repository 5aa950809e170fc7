#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <thread>

#include "columnstore/merger.h"
#include "columnstore/segment.h"
#include "columnstore/segment_meta.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "test_util.h"

namespace s2 {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"tag", DataType::kString},
                 {"score", DataType::kDouble}});
}

Row MakeRow(int64_t id, std::string tag, double score) {
  return Row{Value(id), Value(std::move(tag)), Value(score)};
}

std::string BuildFile(const std::vector<Row>& rows) {
  SegmentBuilder builder(TestSchema());
  for (const Row& row : rows) builder.AddRow(row);
  auto file = builder.Finish();
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  return file.ok() ? std::move(*file) : std::string();
}

std::shared_ptr<Segment> BuildSegment(const std::vector<Row>& rows) {
  auto segment =
      Segment::Open(std::make_shared<const std::string>(BuildFile(rows)));
  EXPECT_TRUE(segment.ok()) << segment.status().ToString();
  return *segment;
}

// Rows with unique ~100-byte tags, which a segment encodes as LZ (600 rows
// fill four 16 KB blocks). The tags' bytes, in row order, are appended to
// *payload when it is given.
std::vector<Row> LzRows(int n, std::string* payload = nullptr) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    std::string tag = "tag-" + std::to_string(i) + "-" + std::string(90, 'x');
    if (payload != nullptr) *payload += tag;
    rows.push_back(MakeRow(i, std::move(tag), i * 0.5));
  }
  return rows;
}

uint64_t LzBlocksDecompressed() {
  return S2_COUNTER("s2_lz_blocks_decompressed_total").value();
}

TEST(SegmentTest, BuildOpenReadRows) {
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(MakeRow(i, "tag" + std::to_string(i % 3), i * 0.25));
  }
  auto segment = BuildSegment(rows);
  ASSERT_EQ(segment->num_rows(), 100u);
  ASSERT_EQ(segment->num_columns(), 3u);
  for (uint32_t r = 0; r < 100; ++r) {
    auto row = segment->ReadRow(r);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(*row, rows[r]) << "row " << r;
  }
  EXPECT_FALSE(segment->ReadRow(100).ok());
}

// A column body that fails to decode is Corruption from a row read, not a
// NULL field: the footer CRC does not cover column bodies.
TEST(SegmentTest, DamagedLzColumnFailsRowReads) {
  std::string payload;
  std::string file = BuildFile(LzRows(64, &payload));
  ASSERT_TRUE(ZeroLzBlock(&file, payload));
  auto segment =
      Segment::Open(std::make_shared<const std::string>(std::move(file)));
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  ASSERT_EQ((*(*segment)->column(1))->encoding(), Encoding::kLz);

  EXPECT_TRUE((*segment)->ReadRow(3).status().IsCorruption());
  EXPECT_TRUE((*segment)->ReadRows({1, 5, 60}).status().IsCorruption());
  // The undamaged columns still decode on their own.
  EXPECT_EQ((*(*segment)->column(0))->ValueAt(3), Value(int64_t{3}));
}

TEST(SegmentTest, ReadRowsMatchesReadRow) {
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(MakeRow(i, "tag" + std::to_string(i % 3), i * 0.25));
  }
  auto segment = BuildSegment(rows);
  auto read = segment->ReadRows({0, 7, 8, 99});
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<Row>{rows[0], rows[7], rows[8], rows[99]}));
  EXPECT_TRUE(segment->ReadRows({}).ok());
  EXPECT_EQ(segment->ReadRows({5, 100}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(SegmentTest, RereadOfDecodedLzBlockDecompressesNothing) {
  std::vector<Row> rows = LzRows(600);  // 58,690 bytes of tags: 4 blocks
  auto segment = BuildSegment(rows);
  ASSERT_EQ((*segment->column(1))->encoding(), Encoding::kLz);

  uint64_t before = LzBlocksDecompressed();
  auto row = segment->ReadRow(3);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*row, rows[3]);
  EXPECT_EQ(LzBlocksDecompressed() - before, 1u);

  // The same row, and another row of the same block, read decoded bytes.
  before = LzBlocksDecompressed();
  EXPECT_EQ(*segment->ReadRow(3), rows[3]);
  EXPECT_EQ(*segment->ReadRow(10), rows[10]);
  EXPECT_EQ((*segment->column(1))->ValueAt(7), rows[7][1]);
  EXPECT_EQ(*segment->ReadRows({0, 5, 20}),
            (std::vector<Row>{rows[0], rows[5], rows[20]}));
  EXPECT_EQ(LzBlocksDecompressed() - before, 0u);

  // A row of the last block decompresses that block only.
  before = LzBlocksDecompressed();
  EXPECT_EQ(*segment->ReadRow(599), rows[599]);
  EXPECT_EQ(LzBlocksDecompressed() - before, 1u);
}

TEST(SegmentTest, ConcurrentFirstTouchOfLzBlocksReadsSameValues) {
  std::vector<Row> rows = LzRows(600);
  auto file = std::make_shared<const std::string>(BuildFile(rows));

  for (int round = 0; round < 20; ++round) {
    auto segment = Segment::Open(file);
    ASSERT_TRUE(segment.ok());
    // Open the reader first so the threads race on the blocks, not on
    // Segment::column's once-flag.
    const ColumnReader* tags = *(*segment)->column(1);
    ASSERT_EQ(tags->encoding(), Encoding::kLz);
    constexpr int kThreads = 4;
    std::latch start(kThreads);
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        // Each thread walks the rows from a different starting point, so
        // every block has several first readers.
        for (size_t i = 0; i < rows.size(); ++i) {
          uint32_t r = static_cast<uint32_t>((i + t * 150) % rows.size());
          if (tags->ValueAt(r) != rows[r][1]) ++mismatches[t];
        }
        auto read = (*segment)->ReadRows({0, 299, 599});
        if (!read.ok() ||
            *read != std::vector<Row>{rows[0], rows[299], rows[599]}) {
          ++mismatches[t];
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0) << "round " << round << " thread " << t;
    }
    uint64_t before = LzBlocksDecompressed();
    ColumnVector all(DataType::kString);
    ASSERT_TRUE(tags->DecodeAll(&all).ok());
    EXPECT_EQ(LzBlocksDecompressed() - before, 0u);
  }
}

TEST(SegmentTest, ZeroedLzBlockStaysCorruptOnRepeatedReads) {
  std::string payload;
  std::vector<Row> rows = LzRows(600, &payload);
  std::string file = BuildFile(rows);
  // Zero the first 16 KB block; rows past it live in undamaged blocks.
  ASSERT_TRUE(ZeroLzBlock(&file, payload.substr(0, 16 * 1024)));
  auto segment =
      Segment::Open(std::make_shared<const std::string>(std::move(file)));
  ASSERT_TRUE(segment.ok());
  const ColumnReader* tags = *(*segment)->column(1);
  ASSERT_EQ(tags->encoding(), Encoding::kLz);

  for (int attempt = 0; attempt < 3; ++attempt) {
    SCOPED_TRACE(attempt);
    EXPECT_TRUE((*segment)->ReadRow(3).status().IsCorruption());
    EXPECT_TRUE((*segment)->ReadRows({1, 500}).status().IsCorruption());
    EXPECT_TRUE(tags->ValueAt(3).is_null());
    ColumnVector all(DataType::kString);
    EXPECT_TRUE(tags->DecodeAll(&all).IsCorruption());
    // Rows of undamaged blocks, and the other columns, still read.
    EXPECT_EQ(*(*segment)->ReadRow(500), rows[500]);
    EXPECT_EQ(tags->ValueAt(599), rows[599][1]);
    for (size_t c : {size_t{0}, size_t{2}}) {
      ColumnVector values((*(*segment)->column(c))->type());
      ASSERT_TRUE((*(*segment)->column(c))->DecodeAll(&values).ok());
      EXPECT_EQ(values.GetValue(3), rows[3][c]);
    }
  }
}

TEST(SegmentTest, DecodeAllAfterPointReadsMatchesFreshReader) {
  std::vector<Row> rows = LzRows(600);
  auto file = std::make_shared<const std::string>(BuildFile(rows));
  auto warm = Segment::Open(file);
  auto fresh = Segment::Open(file);
  ASSERT_TRUE(warm.ok() && fresh.ok());

  // Decode some blocks, and values straddling block boundaries, first.
  const ColumnReader* warm_tags = *(*warm)->column(1);
  for (uint32_t r : {3u, 168u, 335u, 502u, 599u}) {
    EXPECT_EQ(warm_tags->ValueAt(r), rows[r][1]);
  }
  ColumnVector after_reads(DataType::kString);
  ASSERT_TRUE(warm_tags->DecodeAll(&after_reads).ok());
  ColumnVector from_fresh(DataType::kString);
  ASSERT_TRUE((*(*fresh)->column(1))->DecodeAll(&from_fresh).ok());
  ASSERT_EQ(after_reads.size(), rows.size());
  ASSERT_EQ(from_fresh.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(after_reads.StringAt(i), from_fresh.StringAt(i)) << i;
    EXPECT_EQ(after_reads.GetValue(i), rows[i][1]) << i;
  }
}

TEST(SegmentTest, ColumnStatsComputed) {
  auto segment = BuildSegment({MakeRow(5, "b", 2.5), MakeRow(1, "a", -1.0),
                               MakeRow(9, "c", 0.0)});
  EXPECT_EQ(segment->stats(0).min, Value(int64_t{1}));
  EXPECT_EQ(segment->stats(0).max, Value(int64_t{9}));
  EXPECT_EQ(segment->stats(1).min, Value("a"));
  EXPECT_EQ(segment->stats(1).max, Value("c"));
  EXPECT_EQ(segment->stats(2).min, Value(-1.0));
  EXPECT_FALSE(segment->stats(0).has_nulls);
}

TEST(SegmentTest, StatsEliminationChecks) {
  ColumnStats stats;
  stats.min = Value(int64_t{10});
  stats.max = Value(int64_t{20});
  EXPECT_TRUE(stats.MayContain(Value(int64_t{15})));
  EXPECT_TRUE(stats.MayContain(Value(int64_t{10})));
  EXPECT_FALSE(stats.MayContain(Value(int64_t{9})));
  EXPECT_FALSE(stats.MayContain(Value(int64_t{21})));
  EXPECT_FALSE(stats.MayContain(Value::Null()));
  EXPECT_TRUE(stats.MayOverlap(Value(int64_t{18}), Value(int64_t{30})));
  EXPECT_FALSE(stats.MayOverlap(Value(int64_t{21}), Value(int64_t{30})));
  EXPECT_TRUE(stats.MayOverlap(Value::Null(), Value(int64_t{12})));
  EXPECT_FALSE(stats.MayOverlap(Value::Null(), Value(int64_t{9})));
}

TEST(SegmentTest, NullsTrackedInStats) {
  SegmentBuilder builder(TestSchema());
  builder.AddRow({Value(int64_t{1}), Value::Null(), Value(1.0)});
  builder.AddRow({Value(int64_t{2}), Value("x"), Value(2.0)});
  auto file = builder.Finish();
  auto segment =
      Segment::Open(std::make_shared<const std::string>(std::move(*file)));
  ASSERT_TRUE(segment.ok());
  EXPECT_TRUE((*segment)->stats(1).has_nulls);
  EXPECT_EQ((*segment)->ReadRow(0)->at(1), Value::Null());
}

TEST(SegmentTest, AuxBlocksRoundTrip) {
  SegmentBuilder builder(TestSchema());
  builder.AddRow(MakeRow(1, "a", 1.0));
  builder.AddAuxBlock("idx.tag", "inverted-index-bytes");
  builder.AddAuxBlock("idx.id", "other-bytes");
  auto file = builder.Finish();
  auto segment =
      Segment::Open(std::make_shared<const std::string>(std::move(*file)));
  ASSERT_TRUE(segment.ok());
  auto block = (*segment)->aux_block("idx.tag");
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->ToString(), "inverted-index-bytes");
  EXPECT_EQ((*segment)->aux_block("idx.id")->ToString(), "other-bytes");
  EXPECT_TRUE((*segment)->aux_block("absent").status().IsNotFound());
}

TEST(SegmentTest, CorruptFooterRejected) {
  SegmentBuilder builder(TestSchema());
  builder.AddRow(MakeRow(1, "a", 1.0));
  auto file = builder.Finish();
  std::string corrupt = *file;
  corrupt[corrupt.size() - 10] ^= 0xff;
  EXPECT_FALSE(
      Segment::Open(std::make_shared<const std::string>(corrupt)).ok());
  std::string truncated = file->substr(0, 4);
  EXPECT_FALSE(
      Segment::Open(std::make_shared<const std::string>(truncated)).ok());
}

TEST(SegmentMetaTest, EncodeDecodeRoundTrip) {
  SegmentMeta meta;
  meta.id = 42;
  meta.file_name = "seg_00000000000000001234_42";
  meta.num_rows = 1000;
  ColumnStats s;
  s.min = Value(int64_t{1});
  s.max = Value(int64_t{99});
  meta.stats.push_back(s);
  BitVector deletes(1000);
  deletes.Set(5);
  deletes.Set(999);
  meta.deletes = std::make_shared<const BitVector>(std::move(deletes));

  std::string buf;
  meta.EncodeTo(&buf);
  Slice in(buf);
  auto decoded = SegmentMeta::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, 42u);
  EXPECT_EQ(decoded->file_name, meta.file_name);
  EXPECT_EQ(decoded->num_rows, 1000u);
  EXPECT_EQ(decoded->live_rows(), 998u);
  EXPECT_TRUE(decoded->deletes->Get(5));
  EXPECT_FALSE(decoded->deletes->Get(6));
}

TEST(RunPolicyTest, HealthyTreeNoMerge) {
  std::vector<SortedRun> runs(3);
  for (auto& r : runs) r.total_rows = 100;
  EXPECT_TRUE(PickRunsToMerge(runs, 4).empty());
}

TEST(RunPolicyTest, MergesSmallestRuns) {
  std::vector<SortedRun> runs(6);
  uint64_t sizes[] = {1000, 10, 500, 20, 5000, 30};
  for (int i = 0; i < 6; ++i) runs[i].total_rows = sizes[i];
  auto picked = PickRunsToMerge(runs, 4);
  // 6 runs, max 4: merge the 3 smallest (10, 20, 30) = indices 1, 3, 5.
  EXPECT_EQ(picked, (std::vector<size_t>{1, 3, 5}));
}

TEST(RunPolicyTest, RunCountStaysLogarithmic) {
  // Simulate many flushes with the policy applied after each.
  std::vector<SortedRun> runs;
  size_t max_observed = 0;
  for (int flush = 0; flush < 1000; ++flush) {
    runs.push_back(SortedRun{{}, 64});
    for (;;) {
      auto picked = PickRunsToMerge(runs, 8);
      if (picked.empty()) break;
      SortedRun merged;
      for (auto it = picked.rbegin(); it != picked.rend(); ++it) {
        merged.total_rows += runs[*it].total_rows;
        runs.erase(runs.begin() + static_cast<long>(*it));
      }
      runs.push_back(merged);
    }
    max_observed = std::max(max_observed, runs.size());
  }
  EXPECT_LE(max_observed, 9u);
}

TEST(MergerTest, SortedMergeDropsDeletes) {
  auto seg1 = BuildSegment({MakeRow(1, "a", 1), MakeRow(3, "c", 3),
                            MakeRow(5, "e", 5)});
  auto seg2 = BuildSegment({MakeRow(2, "b", 2), MakeRow(4, "d", 4),
                            MakeRow(6, "f", 6)});
  auto deletes2 = std::make_shared<BitVector>(3);
  deletes2->Set(1);  // delete id=4

  SegmentMerger merger(TestSchema(), {0}, 100);
  RowMapping mapping;
  auto files = merger.Merge(
      {{seg1, nullptr}, {seg2, std::shared_ptr<const BitVector>(deletes2)}},
      &mapping);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  ASSERT_EQ(files->size(), 1u);
  auto merged =
      Segment::Open(std::make_shared<const std::string>((*files)[0]));
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ((*merged)->num_rows(), 5u);
  std::vector<int64_t> ids;
  for (uint32_t r = 0; r < 5; ++r) {
    ids.push_back((*merged)->ReadRow(r)->at(0).as_int());
  }
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 2, 3, 5, 6}));

  // Mapping: seg1 rows land at output rows 0, 2, 3; seg2 row 1 dropped.
  EXPECT_EQ(mapping.where[0][0], (std::pair<uint32_t, uint32_t>{0, 0}));
  EXPECT_EQ(mapping.where[0][1], (std::pair<uint32_t, uint32_t>{0, 2}));
  EXPECT_EQ(mapping.where[1][1].second, RowMapping::kDropped);
  EXPECT_EQ(mapping.where[1][0], (std::pair<uint32_t, uint32_t>{0, 1}));
}

TEST(MergerTest, SplitsIntoBoundedSegments) {
  std::vector<Row> rows;
  for (int i = 0; i < 250; ++i) rows.push_back(MakeRow(i, "x", i));
  auto seg = BuildSegment(rows);
  SegmentMerger merger(TestSchema(), {0}, 100);
  auto files = merger.Merge({{seg, nullptr}}, nullptr);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 3u);  // 100 + 100 + 50
  auto last =
      Segment::Open(std::make_shared<const std::string>(files->back()));
  EXPECT_EQ((*last)->num_rows(), 50u);
}

TEST(MergerTest, NoSortKeyConcatenatesInOrder) {
  auto seg1 = BuildSegment({MakeRow(9, "z", 9), MakeRow(1, "a", 1)});
  auto seg2 = BuildSegment({MakeRow(5, "m", 5)});
  SegmentMerger merger(TestSchema(), {}, 100);
  auto files = merger.Merge({{seg1, nullptr}, {seg2, nullptr}}, nullptr);
  ASSERT_TRUE(files.ok());
  auto merged =
      Segment::Open(std::make_shared<const std::string>((*files)[0]));
  std::vector<int64_t> ids;
  for (uint32_t r = 0; r < (*merged)->num_rows(); ++r) {
    ids.push_back((*merged)->ReadRow(r)->at(0).as_int());
  }
  EXPECT_EQ(ids, (std::vector<int64_t>{9, 1, 5}));
}

TEST(MergerTest, AllRowsDeletedYieldsNoFiles) {
  auto seg = BuildSegment({MakeRow(1, "a", 1)});
  auto deletes = std::make_shared<BitVector>(1);
  deletes->Set(0);
  SegmentMerger merger(TestSchema(), {0}, 100);
  auto files =
      merger.Merge({{seg, std::shared_ptr<const BitVector>(deletes)}}, nullptr);
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(files->empty());
}

// Property sweep: merge random sorted segments and verify global order and
// exact multiset of surviving rows.
class MergerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MergerPropertyTest, MergePreservesRowsAndOrder) {
  Rng rng(GetParam());
  size_t num_segments = 2 + rng.Uniform(4);
  std::vector<MergeInput> inputs;
  std::vector<int64_t> expected;
  for (size_t s = 0; s < num_segments; ++s) {
    size_t n = 1 + rng.Uniform(200);
    std::vector<int64_t> keys;
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(static_cast<int64_t>(rng.Uniform(1000)));
    }
    std::sort(keys.begin(), keys.end());
    std::vector<Row> rows;
    auto deletes = std::make_shared<BitVector>(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(MakeRow(keys[i], "t", 0));
      if (rng.Bernoulli(0.2)) {
        deletes->Set(static_cast<uint32_t>(i));
      } else {
        expected.push_back(keys[i]);
      }
    }
    inputs.push_back(
        {BuildSegment(rows), std::shared_ptr<const BitVector>(deletes)});
  }
  std::sort(expected.begin(), expected.end());

  SegmentMerger merger(TestSchema(), {0}, 64);
  auto files = merger.Merge(inputs, nullptr);
  ASSERT_TRUE(files.ok());
  std::vector<int64_t> actual;
  for (const std::string& f : *files) {
    auto seg = Segment::Open(std::make_shared<const std::string>(f));
    ASSERT_TRUE(seg.ok());
    for (uint32_t r = 0; r < (*seg)->num_rows(); ++r) {
      actual.push_back((*seg)->ReadRow(r)->at(0).as_int());
    }
  }
  EXPECT_EQ(actual, expected) << "merged output must be the sorted multiset "
                                 "of undeleted input rows";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergerPropertyTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace s2
