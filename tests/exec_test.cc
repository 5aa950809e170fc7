#include <gtest/gtest.h>

#include "test_util.h"

#include <iterator>
#include <set>

#include "blob/blob_store.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/profile.h"
#include "common/rng.h"
#include "encoding/bitpack.h"
#include "encoding/encoding.h"
#include "exec/filter.h"
#include "exec/table_scanner.h"
#include "storage/partition.h"

namespace s2 {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"category", DataType::kString},
                 {"price", DataType::kDouble},
                 {"qty", DataType::kInt64}});
}

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("s2-exec");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    PartitionOptions opts;
    opts.dir = dir_;
    opts.background_uploads = false;
    opts.auto_maintain = false;
    partition_ = std::make_unique<Partition>(opts);
    ASSERT_TRUE(partition_->Init().ok());

    TableOptions table_opts;
    table_opts.schema = TestSchema();
    table_opts.sort_key = {0};
    table_opts.indexes = {{0}, {1}};
    table_opts.unique_key = {0};
    table_opts.segment_rows = 256;
    table_opts.flush_threshold = 256;
    auto table = partition_->CreateTable("items", table_opts);
    ASSERT_TRUE(table.ok());
    table_ = *table;

    // 1000 rows: ids 0..999, category cat0..cat9, price = id*0.5,
    // qty = id % 100. 768 rows flushed into 3 segments, 232 in rowstore.
    Rng rng(7);
    for (int64_t i = 0; i < 1000; ++i) {
      auto h = partition_->Begin();
      auto r = table_->InsertRows(
          h.id, h.read_ts,
          {{Value(i), Value("cat" + std::to_string(i % 10)), Value(i * 0.5),
            Value(i % 100)}});
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(partition_->Commit(h.id).ok());
      if ((i + 1) % 256 == 0) {
        ASSERT_TRUE(table_->FlushRowstore().ok());
      }
    }
    ASSERT_GE(table_->NumSegments(), 3u);
  }

  void TearDown() override {
    partition_.reset();
    (void)RemoveDirRecursive(dir_);
  }

  // Runs a scan and returns the matched ids (column 0 must be projected
  // first).
  std::multiset<int64_t> RunScan(const ScanOptions& base_options,
                                 ScanStats* stats_out = nullptr) {
    ScanOptions options = base_options;
    if (options.projection.empty()) options.projection = {0};
    TableScanner scanner(table_, options);
    auto h = partition_->Begin();
    std::multiset<int64_t> ids;
    Status s = scanner.Scan(h.id, h.read_ts, [&](const ScanBatch& batch) {
      for (size_t i = 0; i < batch.num_rows; ++i) {
        ids.insert(batch.columns[0].IntAt(i));
      }
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    partition_->EndRead(h.id);
    if (stats_out != nullptr) *stats_out = scanner.stats();
    return ids;
  }

  // Brute-force expected ids for a filter.
  std::multiset<int64_t> Expected(const FilterNode* filter) {
    std::multiset<int64_t> ids;
    for (int64_t i = 0; i < 1000; ++i) {
      Row row = {Value(i), Value("cat" + std::to_string(i % 10)),
                 Value(i * 0.5), Value(i % 100)};
      if (filter == nullptr || filter->EvalRow(row)) ids.insert(i);
    }
    return ids;
  }

  std::string dir_;
  std::unique_ptr<Partition> partition_;
  UnifiedTable* table_ = nullptr;
};

TEST_F(ExecTest, FullScanReturnsAllRows) {
  ScanOptions options;
  EXPECT_EQ(RunScan(options).size(), 1000u);
}

TEST_F(ExecTest, EqFilterViaIndex) {
  auto filter = FilterEq(0, Value(int64_t{500}));
  ScanOptions options;
  options.filter = filter.get();
  ScanStats stats;
  auto ids = RunScan(options, &stats);
  EXPECT_EQ(ids, (std::multiset<int64_t>{500}));
  // id=500 only exists in one segment: the others are eliminated by the
  // index or zone maps, not scanned.
  EXPECT_GT(stats.segments_skipped_zone + stats.segments_skipped_index, 0u);
}

TEST_F(ExecTest, RangeFilterUsesZoneMaps) {
  auto filter = FilterBetween(0, Value(int64_t{100}), Value(int64_t{150}));
  ScanOptions options;
  options.filter = filter.get();
  ScanStats stats;
  auto ids = RunScan(options, &stats);
  EXPECT_EQ(ids, Expected(filter.get()));
  // Sort key is id, so most segments fall outside [100, 150].
  EXPECT_GT(stats.segments_skipped_zone, 0u);
}

TEST_F(ExecTest, CategoryFilterMatchesBruteForce) {
  auto filter = FilterEq(1, Value("cat3"));
  ScanOptions options;
  options.filter = filter.get();
  auto ids = RunScan(options);
  EXPECT_EQ(ids, Expected(filter.get()));
  EXPECT_EQ(ids.size(), 100u);
}

TEST_F(ExecTest, AndOrTreeMatchesBruteForce) {
  // (category = cat1 OR category = cat2) AND qty < 50 AND id >= 100
  std::vector<std::unique_ptr<FilterNode>> or_children;
  or_children.push_back(FilterEq(1, Value("cat1")));
  or_children.push_back(FilterEq(1, Value("cat2")));
  std::vector<std::unique_ptr<FilterNode>> and_children;
  and_children.push_back(FilterOr(std::move(or_children)));
  and_children.push_back(FilterCmp(3, CmpOp::kLt, Value(int64_t{50})));
  and_children.push_back(FilterCmp(0, CmpOp::kGe, Value(int64_t{100})));
  auto filter = FilterAnd(std::move(and_children));

  ScanOptions options;
  options.filter = filter.get();
  EXPECT_EQ(RunScan(options), Expected(filter.get()));
}

TEST_F(ExecTest, InListFilter) {
  auto filter =
      FilterIn(0, {Value(int64_t{1}), Value(int64_t{500}), Value(int64_t{999}),
                   Value(int64_t{12345})});
  ScanOptions options;
  options.filter = filter.get();
  auto ids = RunScan(options);
  EXPECT_EQ(ids, (std::multiset<int64_t>{1, 500, 999}));
}

TEST_F(ExecTest, HugeInListDisablesIndex) {
  // An IN list with more keys than the index-key budget must fall back to
  // scanning (Section 5.1) and still return correct results.
  std::vector<Value> keys;
  for (int64_t i = 0; i < 400; i += 2) keys.push_back(Value(i));
  auto filter = FilterIn(0, std::move(keys));
  ScanOptions options;
  options.filter = filter.get();
  options.max_index_key_fraction = 0.01;  // 256-row segments: max ~3 keys
  ScanStats stats;
  auto ids = RunScan(options, &stats);
  EXPECT_EQ(ids, Expected(filter.get()));
  EXPECT_EQ(stats.index_filter_uses, 0u)
      << "index must be dynamically disabled for huge key sets";
}

TEST_F(ExecTest, ProjectionMaterializesRequestedColumns) {
  auto filter = FilterEq(0, Value(int64_t{42}));
  ScanOptions options;
  options.filter = filter.get();
  options.projection = {0, 2, 1};
  TableScanner scanner(table_, options);
  auto h = partition_->Begin();
  int rows = 0;
  ASSERT_TRUE(scanner
                  .Scan(h.id, h.read_ts,
                        [&](const ScanBatch& batch) {
                          EXPECT_EQ(batch.columns.size(), 3u);
                          for (size_t i = 0; i < batch.num_rows; ++i) {
                            EXPECT_EQ(batch.columns[0].IntAt(i), 42);
                            EXPECT_EQ(batch.columns[1].DoubleAt(i), 21.0);
                            EXPECT_EQ(batch.columns[2].StringAt(i), "cat2");
                            ++rows;
                          }
                          return true;
                        })
                  .ok());
  EXPECT_EQ(rows, 1);
  partition_->EndRead(h.id);
}

TEST_F(ExecTest, EncodedFilterUsedOnDictionaryColumn) {
  // category has 10 distinct values over 256-row segments: dictionary
  // encoded, and a non-index scan over it should use encoded execution.
  auto filter = FilterEq(1, Value("cat5"));
  ScanOptions options;
  options.filter = filter.get();
  options.use_secondary_index = false;  // force the filter path
  ScanStats stats;
  auto ids = RunScan(options, &stats);
  EXPECT_EQ(ids, Expected(filter.get()));
  EXPECT_GT(stats.encoded_filter_uses, 0u);
}

TEST_F(ExecTest, DisablingEncodedStillCorrect) {
  auto filter = FilterEq(1, Value("cat5"));
  ScanOptions options;
  options.filter = filter.get();
  options.use_secondary_index = false;
  options.use_encoded_filters = false;
  ScanStats stats;
  auto ids = RunScan(options, &stats);
  EXPECT_EQ(ids, Expected(filter.get()));
  EXPECT_EQ(stats.encoded_filter_uses, 0u);
  EXPECT_GT(stats.regular_filter_uses, 0u);
}

TEST_F(ExecTest, AllTogglesOffStillCorrect) {
  std::vector<std::unique_ptr<FilterNode>> and_children;
  and_children.push_back(FilterCmp(0, CmpOp::kLt, Value(int64_t{300})));
  and_children.push_back(FilterEq(1, Value("cat1")));
  auto filter = FilterAnd(std::move(and_children));
  ScanOptions options;
  options.filter = filter.get();
  options.use_zone_maps = false;
  options.use_secondary_index = false;
  options.use_encoded_filters = false;
  options.use_group_filter = false;
  options.adaptive_reorder = false;
  EXPECT_EQ(RunScan(options), Expected(filter.get()));
}

TEST_F(ExecTest, EarlyStopOnLimit) {
  ScanOptions options;
  options.block_rows = 64;
  TableScanner scanner(table_, options);
  auto h = partition_->Begin();
  size_t rows = 0;
  ASSERT_TRUE(scanner
                  .Scan(h.id, h.read_ts,
                        [&](const ScanBatch& batch) {
                          rows += batch.num_rows;
                          return rows < 100;
                        })
                  .ok());
  EXPECT_LT(rows, 1000u);
  partition_->EndRead(h.id);
}

TEST_F(ExecTest, ScanSeesConsistentSnapshotDuringWrites) {
  auto snap = partition_->Begin();
  // Delete some rows after the snapshot was taken.
  for (int64_t id : {10, 20, 30}) {
    auto h = partition_->Begin();
    ASSERT_TRUE(table_->DeleteByKey(h.id, h.read_ts, {Value(id)}).ok());
    ASSERT_TRUE(partition_->Commit(h.id).ok());
  }
  ScanOptions options;
  options.projection = {0};
  TableScanner scanner(table_, options);
  std::multiset<int64_t> ids;
  ASSERT_TRUE(scanner
                  .Scan(snap.id, snap.read_ts,
                        [&](const ScanBatch& batch) {
                          for (size_t i = 0; i < batch.num_rows; ++i) {
                            ids.insert(batch.columns[0].IntAt(i));
                          }
                          return true;
                        })
                  .ok());
  EXPECT_EQ(ids.size(), 1000u) << "snapshot scan must not see later deletes";
  partition_->EndRead(snap.id);

  ScanOptions fresh;
  EXPECT_EQ(RunScan(fresh).size(), 997u);
}

// Property sweep: random filter trees match brute force with every toggle
// combination.
class ExecPropertyTest : public ::testing::TestWithParam<int> {};

TEST_F(ExecTest, RandomFilterTreesMatchBruteForce) {
  const uint64_t seed = TestSeed(99);
  SCOPED_TRACE("S2_TEST_SEED=" + std::to_string(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 25; ++trial) {
    // Build a random tree of depth <= 2.
    auto make_leaf = [&]() -> std::unique_ptr<FilterNode> {
      switch (rng.Uniform(4)) {
        case 0:
          return FilterEq(0, Value(static_cast<int64_t>(rng.Uniform(1100))));
        case 1:
          return FilterEq(
              1, Value("cat" + std::to_string(rng.Uniform(12))));
        case 2: {
          int64_t lo = static_cast<int64_t>(rng.Uniform(1000));
          return FilterBetween(0, Value(lo),
                               Value(lo + static_cast<int64_t>(
                                              rng.Uniform(300))));
        }
        default:
          return FilterCmp(3, rng.Bernoulli(0.5) ? CmpOp::kLt : CmpOp::kGe,
                           Value(static_cast<int64_t>(rng.Uniform(100))));
      }
    };
    std::vector<std::unique_ptr<FilterNode>> children;
    size_t n = 2 + rng.Uniform(3);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.3)) {
        std::vector<std::unique_ptr<FilterNode>> sub;
        sub.push_back(make_leaf());
        sub.push_back(make_leaf());
        children.push_back(rng.Bernoulli(0.5) ? FilterOr(std::move(sub))
                                              : FilterAnd(std::move(sub)));
      } else {
        children.push_back(make_leaf());
      }
    }
    auto filter = rng.Bernoulli(0.7) ? FilterAnd(std::move(children))
                                     : FilterOr(std::move(children));
    ScanOptions options;
    options.filter = filter.get();
    options.block_rows = 128;
    EXPECT_EQ(RunScan(options), Expected(filter.get()))
        << "trial " << trial;
  }
}

// The scan's profile tree lets a test reconstruct which strategy the
// scanner picked for each segment: each `segment` span of a skipped segment
// carries strategy=skip_zone/skip_index, a scanned one a per-segment
// summary with rows_out.
TEST_F(ExecTest, ProfileReconstructsScanStrategyDecisions) {
  // ids are the sort key, so a tight range lets zone maps drop the
  // segments that cannot contain ids 100..150.
  auto filter = FilterBetween(0, Value(int64_t{100}), Value(int64_t{150}));
  ScanOptions options;
  options.filter = filter.get();
  options.use_secondary_index = false;  // force the zone-map path
  ScanStats stats;
  ProfileCollector collector("scan");
  std::multiset<int64_t> ids;
  {
    ProfileScope scope(&collector, collector.root());
    ids = RunScan(options, &stats);
  }
  collector.FinishRoot();

  EXPECT_EQ(ids, Expected(filter.get()));
  EXPECT_GT(stats.segments_skipped_zone, 0u);

  size_t skip_spans = 0;
  size_t summary_spans = 0;
  for (const ProfileNode* seg : collector.FindAll("segment")) {
    if (seg->detail.find("strategy=skip_zone") != std::string::npos) {
      ++skip_spans;
    } else if (seg->detail.find("rows_out=") != std::string::npos) {
      ++summary_spans;
    }
  }
  EXPECT_EQ(skip_spans, stats.segments_skipped_zone)
      << "every zone-skip decision must be on a segment span";
  EXPECT_GT(summary_spans, 0u)
      << "scanned segments must carry a per-segment summary";
}

// Each scan counter has three views: the scanner's stats, the process-wide
// registry counter and the profile key. They must agree for one scan.
TEST_F(ExecTest, ScanCountersAgreeAcrossStatsRegistryAndProfile) {
  struct View {
    uint64_t ScanStats::*field;
    const char* metric;
    const char* profile_key;
  };
  const View views[] = {
      {&ScanStats::segments_total, "s2_scan_segments_total", "segments"},
      {&ScanStats::segments_skipped_zone,
       "s2_scan_segments_skipped_zone_total", "segments_skipped_zone"},
      {&ScanStats::segments_skipped_index,
       "s2_scan_segments_skipped_index_total", "segments_skipped_index"},
      {&ScanStats::rows_considered, "s2_scan_rows_considered_total",
       "rows_considered"},
      {&ScanStats::rows_output, "s2_scan_rows_output_total", "rows_output"},
      {&ScanStats::index_filter_uses, "s2_scan_index_filter_total",
       "index_filter_uses"},
      {&ScanStats::encoded_filter_uses, "s2_scan_encoded_filter_total",
       "encoded_filter_uses"},
      {&ScanStats::group_filter_uses, "s2_scan_group_filter_total",
       "group_filter_uses"},
      {&ScanStats::regular_filter_uses, "s2_scan_regular_filter_total",
       "regular_filter_uses"},
      {&ScanStats::reorder_sorts, "s2_scan_reorder_sorts_total",
       "reorder_sorts"},
  };
  // A zone-map range on the sort key, an indexed category, and a residual
  // clause on an unindexed column: most counters move.
  std::vector<std::unique_ptr<FilterNode>> and_children;
  and_children.push_back(
      FilterBetween(0, Value(int64_t{100}), Value(int64_t{700})));
  and_children.push_back(FilterEq(1, Value("cat3")));
  and_children.push_back(FilterCmp(2, CmpOp::kLt, Value(300.0)));
  auto filter = FilterAnd(std::move(and_children));
  ScanOptions options;
  options.filter = filter.get();
  options.block_rows = 32;

  MetricsRegistry* reg = MetricsRegistry::Global();
  std::vector<uint64_t> before;
  for (const View& v : views) before.push_back(reg->counter(v.metric)->value());
  ScanStats stats;
  ProfileCollector collector("scan");
  {
    ProfileScope scope(&collector, collector.root());
    EXPECT_EQ(RunScan(options, &stats), Expected(filter.get()));
  }
  collector.FinishRoot();

  EXPECT_GT(stats.rows_output, 0u);
  for (size_t i = 0; i < std::size(views); ++i) {
    const View& v = views[i];
    const uint64_t field = stats.*v.field;
    EXPECT_EQ(reg->counter(v.metric)->value() - before[i], field) << v.metric;
    EXPECT_EQ(collector.TotalCounter(v.profile_key),
              static_cast<int64_t>(field))
        << v.profile_key;
  }
}

// The residual clause order is recomputed only when clause estimates drift
// materially, not once per row block.
TEST_F(ExecTest, AdaptiveReorderSortsSparingly) {
  // Two non-indexable residual clauses (price and qty are not indexed).
  std::vector<std::unique_ptr<FilterNode>> and_children;
  and_children.push_back(FilterCmp(2, CmpOp::kLt, Value(350.0)));
  and_children.push_back(FilterCmp(3, CmpOp::kGe, Value(int64_t{10})));
  auto filter = FilterAnd(std::move(and_children));

  ScanOptions options;
  options.filter = filter.get();
  options.block_rows = 32;  // many blocks per segment
  ScanStats stats;
  EXPECT_EQ(RunScan(options, &stats), Expected(filter.get()));
  EXPECT_GE(stats.reorder_sorts, 1u)
      << "adaptive reorder must establish an initial clause order";

  ScanOptions no_adapt = options;
  no_adapt.adaptive_reorder = false;
  ScanStats stats_off;
  EXPECT_EQ(RunScan(no_adapt, &stats_off), Expected(filter.get()));
  EXPECT_EQ(stats_off.reorder_sorts, 0u)
      << "no sorting when adaptive reorder is disabled";
}

// A dictionary code past the end of the dictionary fails the encoded
// filter with Corruption, as it fails DecodeRows, instead of reading past
// the filter's per-entry pass table.
TEST(ExecCorruptionTest, DictCodeOutOfRangeInEncodedFilter) {
  auto dir = MakeTempDir("s2-exec-corrupt");
  ASSERT_TRUE(dir.ok());
  PartitionOptions opts;
  opts.dir = *dir;
  opts.background_uploads = false;
  opts.auto_maintain = false;
  TableOptions table_opts;
  table_opts.schema = Schema({{"id", DataType::kInt64},
                              {"tag", DataType::kString}});
  table_opts.sort_key = {0};
  table_opts.segment_rows = 64;
  // 64 rows with 3 distinct tags: a dictionary of 3 entries, 2-bit codes.
  constexpr int64_t kRows = 64;
  ColumnVector tags(DataType::kString);
  {
    auto partition = std::make_unique<Partition>(opts);
    ASSERT_TRUE(partition->Init().ok());
    auto table = partition->CreateTable("t", table_opts);
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < kRows; ++i) {
      std::string tag = "tag" + std::to_string(i % 3);
      tags.AppendString(tag);
      auto h = partition->Begin();
      ASSERT_TRUE(
          (*table)->InsertRows(h.id, h.read_ts, {{Value(i), Value(tag)}}).ok());
      ASSERT_TRUE(partition->Commit(h.id).ok());
    }
    ASSERT_TRUE((*table)->FlushRowstore().ok());
    ASSERT_EQ((*table)->NumSegments(), 1u);
  }

  // Find the tag column's block in the segment file and set row 0's code
  // to 3, one past the dictionary.
  auto block = EncodeColumn(tags, Encoding::kDict);
  ASSERT_TRUE(block.ok());
  std::string files_dir = *dir + "/files";
  auto names = ListDir(files_dir);
  ASSERT_TRUE(names.ok());
  int corrupted = 0;
  for (const std::string& name : *names) {
    std::string path = files_dir + "/" + name;
    auto file = ReadFileToString(path);
    ASSERT_TRUE(file.ok());
    size_t at = file->find(*block);
    if (at == std::string::npos) continue;
    size_t codes = at + block->size() - BitPackedBytes(kRows, 2);
    (*file)[codes] = static_cast<char>((*file)[codes] | 0x3);
    ASSERT_TRUE(WriteFileAtomic(path, *file).ok());
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 1);

  // Reopen, so the segment is read back from the corrupted file.
  auto partition = std::make_unique<Partition>(opts);
  ASSERT_TRUE(partition->Init().ok());
  auto table = partition->GetTable("t");
  ASSERT_TRUE(table.ok());
  auto filter = FilterEq(1, Value("tag1"));
  ScanOptions options;
  options.projection = {0};
  options.filter = filter.get();
  TableScanner scanner(*table, options);
  auto h = partition->Begin();
  Status s = scanner.Scan(h.id, h.read_ts,
                          [](const ScanBatch&) { return true; });
  partition->EndRead(h.id);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(scanner.stats().encoded_filter_uses, 1u);
  partition.reset();
  (void)RemoveDirRecursive(*dir);
}

}  // namespace
}  // namespace s2
