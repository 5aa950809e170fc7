#include "common/profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "blob/blob_store.h"
#include "common/env.h"
#include "common/metrics.h"
#include "engine/database.h"
#include "engine/system_tables.h"
#include "query/plan.h"

namespace s2 {
namespace {

// ---------------------------------------------------------------------------
// ProfileCollector unit tests
// ---------------------------------------------------------------------------

TEST(ProfileCollectorTest, SpansNestAndCountersAccumulate) {
  ProfileCollector pc("query");
  ProfileNode* a = pc.StartSpan(pc.root(), "scan", "table=t");
  pc.AddCounter(a, "rows", 10);
  pc.AddCounter(a, "rows", 5);
  ProfileNode* b = pc.StartSpan(a, "segment");
  pc.AddCounter(b, "rows", 7);
  pc.FinishSpan(b);
  pc.FinishSpan(a);
  pc.FinishRoot();

  EXPECT_EQ(pc.root()->children.size(), 1u);
  EXPECT_EQ(a->counter("rows"), 15);
  EXPECT_EQ(a->counters.size(), 1u) << "repeated keys accumulate in place";
  EXPECT_EQ(pc.TotalCounter("rows"), 22);
  EXPECT_GT(pc.root()->duration_ns, 0u);
  EXPECT_EQ(pc.FindAll("segment").size(), 1u);

  std::string text = pc.ToText();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("table=t"), std::string::npos);
  std::string json = pc.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"name\":\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":15"), std::string::npos);
}

TEST(ProfileCollectorTest, DetachedThreadIsInert) {
  EXPECT_EQ(ProfileCollector::Current().collector, nullptr);
  ProfileCollector::CountHere("ignored", 1);  // must not crash
  ProfileSpan span("noop");
  EXPECT_FALSE(span.active());
  span.Count("ignored", 1);
}

TEST(ProfileCollectorTest, ScopeAttachesAndRestores) {
  ProfileCollector pc("root");
  {
    ProfileScope scope(&pc, pc.root());
    EXPECT_EQ(ProfileCollector::Current().collector, &pc);
    {
      ProfileSpan span("child");
      ASSERT_TRUE(span.active());
      EXPECT_EQ(ProfileCollector::Current().node, span.node());
      ProfileCollector::CountHere("hits", 3);
    }
    EXPECT_EQ(ProfileCollector::Current().node, pc.root());
  }
  EXPECT_EQ(ProfileCollector::Current().collector, nullptr);
  ASSERT_EQ(pc.root()->children.size(), 1u);
  EXPECT_EQ(pc.root()->children[0]->counter("hits"), 3);
}

// ---------------------------------------------------------------------------
// Engine-level profiling
// ---------------------------------------------------------------------------

TableOptions ItemsTable(uint32_t segment_rows) {
  TableOptions t;
  t.schema = Schema({{"id", DataType::kInt64},
                     {"name", DataType::kString},
                     {"price", DataType::kDouble}});
  t.unique_key = {0};
  t.indexes = {{0}};
  // Sorted by id: flushes and merges keep disjoint per-segment id windows,
  // so range predicates on id exercise zone-map segment skipping.
  t.sort_key = {0};
  t.segment_rows = segment_rows;
  t.flush_threshold = segment_rows;
  return t;
}

Row ItemRow(int64_t i) {
  return {Value(i), Value("name-" + std::to_string(i)),
          Value(static_cast<double>(i % 100))};
}

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("s2-profile");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override {
    (void)RemoveDirRecursive(dir_);
  }

  std::unique_ptr<Database> Open(DatabaseOptions opts) {
    opts.dir = dir_ + "/" + std::to_string(count_++);
    auto db = Database::Open(std::move(opts));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  /// Loads `total` items in flush-sized batches and drains the rowstore
  /// into columnstore segments (one Maintain flushes at most one segment
  /// per table).
  void LoadAndDrain(Database* db, int64_t total, size_t batch) {
    std::vector<Row> rows;
    for (int64_t i = 0; i < total; ++i) {
      rows.push_back(ItemRow(i));
      if (rows.size() == batch || i + 1 == total) {
        ASSERT_TRUE(db->Insert("items", rows).ok());
        rows.clear();
      }
    }
    for (int round = 0; round < 200; ++round) {
      bool drained = true;
      for (int p = 0; p < db->cluster()->num_partitions(); ++p) {
        auto table = db->cluster()->partition(p)->GetTable("items");
        ASSERT_TRUE(table.ok());
        if ((*table)->RowstoreRows() > 0) drained = false;
      }
      if (drained) return;
      ASSERT_TRUE(db->Maintain().ok());
    }
    FAIL() << "rowstore did not drain";
  }

  std::string dir_;
  int count_ = 0;
};

// ISSUE 4 acceptance: a filtered analytic query under Profile() yields a
// tree whose per-segment strategy decisions match the trace ring, with
// non-zero segment-skip counts, and whose per-partition child spans sum to
// the root wall time within 5%.
TEST_F(ProfileTest, ProfiledAnalyticQueryReportsStrategyAndTimings) {
  DatabaseOptions opts;
  opts.num_partitions = 2;
  opts.num_exec_threads = 1;  // serial scatter: partition spans tile the root
  auto db = Open(opts);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(2048), {0}).ok());
  LoadAndDrain(db.get(), 40000, 2000);

  // Ascending inserts give each segment a narrow id window, so the id
  // range clause zone-skips segments wholly outside [10000, 29999]; the
  // price clause spans every segment (price cycles mod 100) and selects
  // 2% of the scanned rows.
  auto plan = [] {
    std::vector<std::unique_ptr<FilterNode>> clauses;
    clauses.push_back(FilterBetween(0, Value(int64_t{10000}),
                                    Value(int64_t{29999})));
    clauses.push_back(FilterBetween(2, Value(0.0), Value(1.0)));
    return std::make_unique<ScanOp>("items", std::vector<int>{0, 1, 2},
                                    FilterAnd(std::move(clauses)));
  };
  // The first query of a process pays one-time costs (first execution of
  // the plan-building code) on the caller's thread, outside any partition
  // span. Run it once unprofiled so the root-vs-partitions check below
  // sees only steady-state gather overhead.
  ASSERT_TRUE(db->Query(plan).ok());

  auto profiled = db->Profile(plan);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  EXPECT_EQ(profiled->rows.size(), 400u);

  const ProfileCollector& tree = *profiled->tree;
  EXPECT_GT(profiled->wall_ns, 0u);
  EXPECT_EQ(tree.root()->counter("rows"), 400);

  // Per-partition child spans, one per partition, summing to the root
  // wall time (serial scatter leaves only gather overhead outside them).
  std::vector<const ProfileNode*> partitions = tree.FindAll("partition");
  ASSERT_EQ(partitions.size(), 2u);
  uint64_t partition_ns = 0;
  for (const ProfileNode* p : partitions) partition_ns += p->duration_ns;
  EXPECT_LE(partition_ns, profiled->wall_ns);
  EXPECT_GE(partition_ns, profiled->wall_ns - profiled->wall_ns / 20)
      << "partition spans sum to " << partition_ns << " of "
      << profiled->wall_ns << " root ns";

  // Non-zero skip counts and scan-strategy counters.
  EXPECT_GT(tree.TotalCounter("segments"), 0);
  EXPECT_GT(tree.TotalCounter("segments_skipped_zone"), 0);
  EXPECT_GT(tree.TotalCounter("rows_considered"), 0);
  EXPECT_EQ(tree.TotalCounter("rows_output"), 400);

  // Every per-segment span carries its strategy decision: a skip, or the
  // scanned segment's rows_out summary.
  std::vector<const ProfileNode*> seg_nodes = tree.FindAll("segment");
  ASSERT_FALSE(seg_nodes.empty());
  size_t skips = 0;
  for (const ProfileNode* seg : seg_nodes) {
    const bool skipped =
        seg->detail.find(" strategy=skip") != std::string::npos;
    EXPECT_TRUE(skipped ||
                seg->detail.find(" rows_out=") != std::string::npos)
        << "segment span without a decision: '" << seg->detail << "'";
    if (skipped) ++skips;
  }
  EXPECT_GT(skips, 0u);
  EXPECT_LT(skips, seg_nodes.size()) << "some segments must be scanned";

  // Renderings carry the decisions too.
  EXPECT_NE(profiled->ToText().find("strategy=skip_zone"),
            std::string::npos);
  EXPECT_NE(profiled->ToJson().find("\"name\":\"partition\""),
            std::string::npos);
}

// ISSUE 4 acceptance: queries past the threshold land in the slow-query
// ring, bounded by capacity, retrievable with their profile trees.
TEST_F(ProfileTest, SlowQueryLogRetainsProfiles) {
  DatabaseOptions opts;
  opts.num_partitions = 2;
  opts.slow_query_ns = 1;  // every query is "slow"
  opts.slow_query_capacity = 2;
  auto db = Open(opts);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(128), {0}).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 64; ++i) rows.push_back(ItemRow(i));
  ASSERT_TRUE(db->Insert("items", rows).ok());

  auto scan = [] {
    return std::make_unique<ScanOp>("items", std::vector<int>{0});
  };
  for (int i = 0; i < 3; ++i) {
    auto r = db->Query(scan);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 64u);
  }

  std::vector<SlowQuery> slow = db->SlowQueries();
  ASSERT_EQ(slow.size(), 2u) << "ring keeps only the newest two";
  EXPECT_EQ(slow[0].seq, 2u);
  EXPECT_EQ(slow[1].seq, 3u);
  for (const SlowQuery& q : slow) {
    ASSERT_NE(q.tree, nullptr);
    EXPECT_GE(q.wall_ns, 1u);
    EXPECT_EQ(q.tree->root()->counter("rows"), 64);
    EXPECT_EQ(q.tree->FindAll("partition").size(), 2u);
  }
  EXPECT_GE(MetricsRegistry::Global()->counter("s2_slow_queries_total")
                ->value(),
            3u);

  // Threshold off: Query() records nothing.
  DatabaseOptions quiet;
  quiet.num_partitions = 1;
  auto db2 = Open(quiet);
  ASSERT_TRUE(db2->CreateTable("items", ItemsTable(128), {0}).ok());
  ASSERT_TRUE(db2->Insert("items", {ItemRow(1)}).ok());
  ASSERT_TRUE(db2->Query(scan).ok());
  EXPECT_TRUE(db2->SlowQueries().empty());
}

// Satellite: profile-tree merging under parallel scatter-gather — child
// spans from every partition land under the root and their totals add up.
TEST_F(ProfileTest, ParallelScatterMergesPartitionSpans) {
  DatabaseOptions opts;
  opts.num_partitions = 4;
  opts.num_exec_threads = 4;  // real pool: spans merge across threads
  auto db = Open(opts);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(256), {0}).ok());
  LoadAndDrain(db.get(), 4000, 256);

  auto profiled = db->Profile([] {
    return std::make_unique<ScanOp>("items", std::vector<int>{0});
  });
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  ASSERT_EQ(profiled->rows.size(), 4000u);

  const ProfileCollector& tree = *profiled->tree;
  std::vector<const ProfileNode*> partitions = tree.FindAll("partition");
  ASSERT_EQ(partitions.size(), 4u);
  std::set<std::string> details;
  int64_t partition_rows = 0;
  for (const ProfileNode* p : partitions) {
    details.insert(p->detail);
    partition_rows += p->counter("rows");
    EXPECT_EQ(p->children.size(), tree.FindAll("scan").size() / 4)
        << "each partition span owns its own scan span";
  }
  EXPECT_EQ(details.size(), 4u) << "one distinct child per partition";
  EXPECT_EQ(partition_rows, 4000);
  EXPECT_EQ(tree.TotalCounter("rows_output"), 4000);
  EXPECT_EQ(tree.FindAll("scan").size(), 4u);
}

// Commit-path profiling: a transaction with an attached collector reports
// per-partition commit spans with log/commit wait counters.
TEST_F(ProfileTest, TxnCommitReportsWaits) {
  DatabaseOptions opts;
  opts.num_partitions = 2;
  auto db = Open(opts);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(128), {0}).ok());

  ProfileCollector pc("txn");
  auto txn = db->Begin();
  txn.SetProfile(&pc);
  for (int p = 0; p < 2; ++p) {
    auto h = txn.On(p);
    // Rows with ids hashing to each partition: insert through both
    // handles so Commit touches two partitions.
    std::vector<Row> rows;
    for (int64_t i = 0; i < 50; ++i) {
      int64_t id = static_cast<int64_t>(p) * 1000 + i;
      if (db->cluster()->PartitionForKey({Value(id)}) == p) {
        rows.push_back(ItemRow(id));
      }
    }
    ASSERT_FALSE(rows.empty());
    ASSERT_TRUE(
        txn.table(p, "items")->InsertRows(h.id, h.read_ts, rows).ok());
  }
  ASSERT_TRUE(txn.Commit().ok());
  pc.FinishRoot();

  std::vector<const ProfileNode*> commits = pc.FindAll("commit.partition");
  ASSERT_EQ(commits.size(), 2u);
  for (const ProfileNode* c : commits) {
    EXPECT_GT(c->duration_ns, 0u);
  }
  EXPECT_GT(pc.TotalCounter("commit_wait_ns"), 0);
  EXPECT_GT(pc.TotalCounter("log_commit_wait_ns"), 0);
}

// Maintenance profiling: Cluster::Maintain with a collector nests flush
// spans (with row counts) under per-partition maintenance spans.
TEST_F(ProfileTest, MaintenanceProfileShowsFlushes) {
  DatabaseOptions opts;
  opts.num_partitions = 2;
  opts.auto_maintain = false;  // all flushing happens in Maintain below
  auto db = Open(opts);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(128), {0}).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 600; ++i) rows.push_back(ItemRow(i));
  ASSERT_TRUE(db->Insert("items", rows).ok());

  ProfileCollector pc("maintain");
  ASSERT_TRUE(db->cluster()->Maintain(&pc).ok());
  pc.FinishRoot();

  EXPECT_EQ(pc.FindAll("maintain.partition").size(), 2u);
  std::vector<const ProfileNode*> flushes = pc.FindAll("flush");
  ASSERT_FALSE(flushes.empty());
  int64_t flushed = 0;
  for (const ProfileNode* f : flushes) {
    EXPECT_NE(f->detail.find("table=items"), std::string::npos);
    flushed += f->counter("rows");
  }
  EXPECT_GT(flushed, 0);
  EXPECT_GT(pc.TotalCounter("bytes"), 0) << "flush reports file bytes";
}

// ---------------------------------------------------------------------------
// System tables
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, SystemTablesExposeLiveState) {
  MemBlobStore blob;
  DatabaseOptions opts;
  opts.num_partitions = 2;
  opts.blob = &blob;
  auto db = Open(opts);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(128), {0}).ok());
  LoadAndDrain(db.get(), 1000, 128);
  ASSERT_TRUE(db->Checkpoint().ok());
  auto ws = db->CreateWorkspace();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();

  SystemTables sys(db->cluster());

  SystemTableDump segments = sys.Segments();
  EXPECT_EQ(segments.name, "segments");
  ASSERT_FALSE(segments.rows.empty());
  ASSERT_EQ(segments.columns.size(), 11u);
  bool any_local = false, any_encoded = false;
  for (const auto& row : segments.rows) {
    ASSERT_EQ(row.size(), segments.columns.size());
    EXPECT_FALSE(row[3].empty()) << "file name";
    if (row[7] == "1") any_local = true;
    if (!row[9].empty()) any_encoded = true;
  }
  EXPECT_TRUE(any_local) << "fresh segments reside in the local cache";
  EXPECT_TRUE(any_encoded) << "opened segments report column encodings";

  SystemTableDump tables = sys.Tables();
  ASSERT_EQ(tables.rows.size(), 2u) << "one row per (partition, table)";
  uint64_t seg_count = 0, inserted = 0;
  for (const auto& row : tables.rows) {
    EXPECT_EQ(row[1], "items");
    seg_count += std::stoull(row[3]);
    inserted += std::stoull(row[5]);
  }
  EXPECT_GT(seg_count, 0u);
  EXPECT_EQ(inserted, 1000u);

  SystemTableDump cache = sys.Cache();
  ASSERT_EQ(cache.rows.size(), 2u);
  for (const auto& row : cache.rows) {
    EXPECT_GT(std::stoull(row[1]), 0u) << "cached bytes";
    EXPECT_GT(std::stoull(row[5]), 0u) << "files written";
  }

  SystemTableDump replicas = sys.Replicas();
  ASSERT_EQ(replicas.rows.size(), 2u) << "one workspace replica/partition";
  for (const auto& row : replicas.rows) {
    EXPECT_EQ(row[2], "0") << "workspace id";
    EXPECT_GT(std::stoull(row[3]), 0u) << "master durable lsn";
  }

  // Text and JSON renderings cover every table.
  std::string text = sys.ToText();
  for (const char* name : {"== segments ==", "== tables ==", "== cache ==",
                           "== replicas =="}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  std::string json = sys.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key : {"\"segments\":[", "\"tables\":[", "\"cache\":[",
                          "\"replicas\":["}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace s2
