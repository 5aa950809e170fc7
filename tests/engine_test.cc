#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "blob/blob_store.h"
#include "common/env.h"
#include "common/metrics.h"
#include "engine/database.h"
#include "query/plan.h"

namespace s2 {
namespace {

TableOptions ItemsTable() {
  TableOptions t;
  t.schema = Schema({{"id", DataType::kInt64},
                     {"name", DataType::kString},
                     {"price", DataType::kDouble}});
  t.unique_key = {0};
  t.indexes = {{0}};
  t.segment_rows = 128;
  t.flush_threshold = 128;
  return t;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("s2-engine");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { (void)RemoveDirRecursive(dir_); }

  std::unique_ptr<Database> Open(EngineProfile profile,
                                 BlobStore* blob = nullptr) {
    DatabaseOptions opts;
    opts.dir = dir_ + "/" + std::to_string(count_++);
    opts.blob = blob;
    opts.profile = profile;
    auto db = Database::Open(opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  size_t CountRows(Database* db) {
    auto rows = db->Query([] {
      return std::make_unique<ScanOp>("items", std::vector<int>{0});
    });
    EXPECT_TRUE(rows.ok());
    return rows->size();
  }

  std::string dir_;
  int count_ = 0;
};

TEST_F(EngineTest, UnifiedProfileRoundTrip) {
  auto db = Open(EngineProfile::kUnified);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(), {0}).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 500; ++i) {
    rows.push_back({Value(i), Value("n" + std::to_string(i)), Value(1.0)});
  }
  ASSERT_TRUE(db->Insert("items", rows).ok());
  ASSERT_TRUE(db->Maintain().ok());
  EXPECT_EQ(CountRows(db.get()), 500u);
  // Data moved into columnstore segments.
  auto table = *db->cluster()->partition(0)->GetTable("items");
  EXPECT_GT(table->NumSegments(), 0u);
}

TEST_F(EngineTest, ReopenedDatabaseInsertsIntoRecoveredTables) {
  DatabaseOptions opts;
  opts.dir = dir_ + "/reopen";
  opts.profile = EngineProfile::kUnified;
  opts.num_partitions = 2;
  std::vector<Row> rows;
  for (int64_t i = 0; i < 50; ++i) {
    rows.push_back({Value(i), Value("n" + std::to_string(i)), Value(1.0)});
  }
  {
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->CreateTable("items", ItemsTable(), {0}).ok());
    ASSERT_TRUE((*db)->Insert("items", rows).ok());
  }
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Status s = (*db)->Insert("items", {{Value(int64_t{50}), Value("new"),
                                      Value(2.0)}});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(CountRows(db->get()), 51u);
  // The recovered shard key routes a duplicate to the row it collides with.
  EXPECT_TRUE((*db)->Insert("items", {rows[7]}).IsAlreadyExists());
}

TEST_F(EngineTest, RowstoreProfileNeverFlushes) {
  auto db = Open(EngineProfile::kOperationalRowstore);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(), {0}).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 500; ++i) {
    rows.push_back({Value(i), Value("n"), Value(1.0)});
  }
  ASSERT_TRUE(db->Insert("items", rows).ok());
  ASSERT_TRUE(db->Maintain().ok());
  auto table = *db->cluster()->partition(0)->GetTable("items");
  EXPECT_EQ(table->NumSegments(), 0u)
      << "CDB profile keeps all data in the rowstore";
  EXPECT_EQ(CountRows(db.get()), 500u);
  // Unique keys still enforced (it's an operational database).
  EXPECT_TRUE(db->Insert("items", {{Value(int64_t{1}), Value("dup"),
                                    Value(0.0)}})
                  .IsAlreadyExists());
}

TEST_F(EngineTest, WarehouseProfileDropsUniqueEnforcement) {
  MemBlobStore blob;
  auto db = Open(EngineProfile::kCloudWarehouse, &blob);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(), {0}).ok());
  ASSERT_TRUE(
      db->Insert("items", {{Value(int64_t{1}), Value("a"), Value(1.0)}}).ok());
  // The paper: CDWs lack enforced unique constraints — duplicates load.
  ASSERT_TRUE(
      db->Insert("items", {{Value(int64_t{1}), Value("b"), Value(2.0)}}).ok());
  EXPECT_EQ(CountRows(db.get()), 2u);
}

TEST_F(EngineTest, WarehouseProfileCommitsThroughBlob) {
  MemBlobStore blob;
  auto db = Open(EngineProfile::kCloudWarehouse, &blob);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(), {0}).ok());
  uint64_t puts_before = blob.stats().puts.load();
  ASSERT_TRUE(
      db->Insert("items", {{Value(int64_t{1}), Value("a"), Value(1.0)}}).ok());
  EXPECT_GT(blob.stats().puts.load(), puts_before)
      << "CDW baseline persists to blob storage on the commit path";
}

TEST_F(EngineTest, UnifiedCommitsNeverTouchBlob) {
  MemBlobStore blob;
  auto db = Open(EngineProfile::kUnified, &blob);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(), {0}).ok());
  uint64_t puts_before = blob.stats().puts.load();
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        db->Insert("items", {{Value(i), Value("x"), Value(1.0)}}).ok());
  }
  EXPECT_EQ(blob.stats().puts.load(), puts_before);
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_GT(blob.stats().puts.load(), puts_before);
}

TEST_F(EngineTest, BlobOutageDoesNotBlockUnifiedCommits) {
  MemBlobStore blob;
  auto db = Open(EngineProfile::kUnified, &blob);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(), {0}).ok());
  blob.set_available(false);
  // Steady-state writes keep working through a blob outage (Section 3.1).
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        db->Insert("items", {{Value(i), Value("x"), Value(1.0)}}).ok());
  }
  ASSERT_TRUE(db->Maintain().IsUnavailable())
      << "only the background upload path observes the outage";
  EXPECT_EQ(CountRows(db.get()), 300u);
  blob.set_available(true);
  EXPECT_TRUE(db->Maintain().ok());
}

TEST_F(EngineTest, TransactionAcrossTables) {
  auto db = Open(EngineProfile::kUnified);
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(), {0}).ok());
  TableOptions audit;
  audit.schema = Schema({{"seq", DataType::kInt64},
                         {"what", DataType::kString}});
  audit.unique_key = {0};
  ASSERT_TRUE(db->CreateTable("audit", audit, {0}).ok());

  auto txn = db->Begin();
  auto h = txn.On(0);
  ASSERT_TRUE(txn.table(0, "items")
                  ->InsertRows(h.id, h.read_ts,
                               {{Value(int64_t{1}), Value("a"), Value(1.0)}})
                  .ok());
  ASSERT_TRUE(txn.table(0, "audit")
                  ->InsertRows(h.id, h.read_ts,
                               {{Value(int64_t{1}), Value("insert item 1")}})
                  .ok());
  txn.Abort();
  EXPECT_EQ(CountRows(db.get()), 0u) << "abort must span both tables";

  auto txn2 = db->Begin();
  auto h2 = txn2.On(0);
  ASSERT_TRUE(txn2.table(0, "items")
                  ->InsertRows(h2.id, h2.read_ts,
                               {{Value(int64_t{1}), Value("a"), Value(1.0)}})
                  .ok());
  ASSERT_TRUE(txn2.table(0, "audit")
                  ->InsertRows(h2.id, h2.read_ts,
                               {{Value(int64_t{1}), Value("insert item 1")}})
                  .ok());
  ASSERT_TRUE(txn2.Commit().ok());
  EXPECT_EQ(CountRows(db.get()), 1u);
}

// Tables of one partition share its data-file store and its transaction
// manager. Each flush names its segment at the log's current LSN with a
// per-table segment id, so the table is part of the file name ("data file
// exists" otherwise). Maintenance runs the tables one after another on the
// calling thread: a table flushed beside a sibling's flush transaction
// could not purge its flushed rows, so they would stay in the rowstore as
// dead versions every scan walks.
TEST_F(EngineTest, ParallelFlushOfTablesInOnePartition) {
  DatabaseOptions opts;
  opts.dir = dir_ + "/parallel-flush";
  opts.num_partitions = 1;
  opts.num_exec_threads = 4;  // force a real pool even on 1-core machines
  opts.auto_maintain = false;  // every table flushes in the same Maintain
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::vector<std::string> tables = {"t0", "t1", "t2", "t3"};
  for (const std::string& t : tables) {
    ASSERT_TRUE((*db)->CreateTable(t, ItemsTable(), {0}).ok());
  }
  constexpr int64_t kRowsPerRound = 200;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& t : tables) {
      std::vector<Row> rows;
      for (int64_t i = 0; i < kRowsPerRound; ++i) {
        int64_t id = round * kRowsPerRound + i;
        rows.push_back({Value(id), Value("n" + std::to_string(id)),
                        Value(static_cast<double>(id))});
      }
      ASSERT_TRUE((*db)->Insert(t, rows).ok());
    }
    Status s = (*db)->Maintain();
    ASSERT_TRUE(s.ok()) << "round " << round << ": " << s.ToString();
    // No transaction is open, so every flushed row has been purged: level
    // 0 holds only the rows no flush took yet (a flush takes one 128-row
    // segment, so 72 rows per round stay).
    Partition* partition = (*db)->cluster()->partition(0);
    for (const std::string& t : tables) {
      UnifiedTable* table = *partition->GetTable(t);
      TxnManager::TxnHandle h = partition->Begin();
      size_t visible = 0;
      table->ScanRowstore(h.id, h.read_ts,
                          [&](const Row&, const RowLocation&) {
                            ++visible;
                            return true;
                          });
      partition->EndRead(h.id);
      EXPECT_EQ(table->RowstoreRows(), visible)
          << "round " << round << " " << t;
    }
  }
  for (const std::string& t : tables) {
    auto table = *(*db)->cluster()->partition(0)->GetTable(t);
    EXPECT_GT(table->NumSegments(), 0u) << t;
    auto rows = (*db)->Query(
        [&] { return std::make_unique<ScanOp>(t, std::vector<int>{0}); });
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), static_cast<size_t>(kRounds * kRowsPerRound))
        << t;
  }
}

// Two transactions on one partition: each runs its first step, both meet,
// then each runs its second step. A transaction whose step fails aborts;
// the other commits. Returns each one's final status (the failed step's,
// else the commit's) and, in `took`, the time from the meeting to the end
// of both.
using TxnStep = std::function<Status(Cluster::Txn&)>;
std::array<Status, 2> RunCrossed(Database* db,
                                 const std::array<TxnStep, 2>& first,
                                 const std::array<TxnStep, 2>& second,
                                 std::chrono::nanoseconds* took) {
  std::array<Status, 2> results;
  std::atomic<int> arrived{0};
  std::chrono::steady_clock::time_point met;
  auto run = [&](int i) {
    Cluster::Txn txn = db->Begin();
    Status s = first[i](txn);
    if (arrived.fetch_add(1) == 1) met = std::chrono::steady_clock::now();
    while (arrived.load() < 2) std::this_thread::yield();
    if (s.ok()) s = second[i](txn);
    if (s.ok()) {
      s = txn.Commit();
    } else {
      txn.Abort();
    }
    results[i] = s;
  };
  std::thread a(run, 0);
  std::thread b(run, 1);
  a.join();
  b.join();
  *took = std::chrono::steady_clock::now() - met;
  return results;
}

void ExpectOneDeadlockOneCommit(const std::array<Status, 2>& results,
                                std::chrono::nanoseconds took) {
  int deadlocks = 0, commits = 0;
  for (const Status& s : results) {
    if (s.ok()) ++commits;
    if (s.IsAborted() && s.message() == "deadlock") ++deadlocks;
  }
  EXPECT_EQ(deadlocks, 1) << results[0].ToString() << " / "
                          << results[1].ToString();
  EXPECT_EQ(commits, 1);
  EXPECT_LT(took, std::chrono::milliseconds(200));
}

Row Item(int64_t id, double price) {
  return {Value(id), Value("n" + std::to_string(id)), Value(price)};
}

TxnStep UpdateItem(const std::string& table, int64_t id) {
  return [table, id](Cluster::Txn& txn) {
    auto h = txn.On(0);
    return txn.table(0, table)->UpdateByKey(h.id, h.read_ts, {Value(id)},
                                            Item(id, 2.0));
  };
}

std::unique_ptr<Database> OpenOnePartition(const std::string& dir) {
  DatabaseOptions opts;
  opts.dir = dir;
  opts.num_partitions = 1;
  auto db = Database::Open(opts);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

// The NewOrder-shaped lock cycle: each transaction updates a row in its own
// table (district-like, stock-like), then requests the other's row. The
// request that closes the cycle fails at once; no 1 s timeout is sat out.
TEST_F(EngineTest, RowLockCycleAbortsOneAtOnce) {
  auto db = OpenOnePartition(dir_ + "/row-cycle");
  for (const char* t : {"district", "stock"}) {
    ASSERT_TRUE(db->CreateTable(t, ItemsTable(), {0}).ok());
    ASSERT_TRUE(db->Insert(t, {Item(1, 1.0)}).ok());
  }
  std::chrono::nanoseconds took{};
  auto results =
      RunCrossed(db.get(), {UpdateItem("district", 1), UpdateItem("stock", 1)},
                 {UpdateItem("stock", 1), UpdateItem("district", 1)}, &took);
  ExpectOneDeadlockOneCommit(results, took);
}

// A cycle across the two kinds of lock: one transaction holds a row lock,
// the other a unique-key lock from an insert, and each requests the other's.
// Only a lock table that holds both kinds can see it.
TEST_F(EngineTest, RowAndUniqueKeyLockCycleAbortsOneAtOnce) {
  auto db = OpenOnePartition(dir_ + "/key-cycle");
  ASSERT_TRUE(db->CreateTable("items", ItemsTable(), {0}).ok());
  ASSERT_TRUE(db->Insert("items", {Item(1, 1.0)}).ok());
  TxnStep insert5 = [](Cluster::Txn& txn) {
    auto h = txn.On(0);
    return txn.table(0, "items")
        ->InsertRows(h.id, h.read_ts, {Item(5, 5.0)})
        .status();
  };
  std::chrono::nanoseconds took{};
  auto results = RunCrossed(db.get(), {UpdateItem("items", 1), insert5},
                            {insert5, UpdateItem("items", 1)}, &took);
  ExpectOneDeadlockOneCommit(results, took);
  EXPECT_EQ(CountRows(db.get()), 2u);
}

// Acceptance for the metrics layer: after a write + flush + checkpoint +
// workspace-read workload, the registry's dumps report non-empty counters
// and sane latency quantiles for log commit, flush, blob put/get, and
// cache hit/miss.
TEST_F(EngineTest, DumpMetricsCoversEngineLayers) {
  MetricsRegistry::Global()->ResetForTest();
  MemBlobStore blob;
  DatabaseOptions opts;
  opts.dir = dir_ + "/metrics";
  opts.blob = &blob;
  opts.profile = EngineProfile::kUnified;
  opts.num_partitions = 2;   // scatter queries run as executor tasks
  opts.num_exec_threads = 4;  // force a real pool even on 1-core machines
  {
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->CreateTable("items", ItemsTable(), {0}).ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 600; ++i) {
      rows.push_back({Value(i), Value("name" + std::to_string(i)),
                      Value(static_cast<double>(i))});
    }
    ASSERT_TRUE((*db)->Insert("items", rows).ok());
    ASSERT_TRUE((*db)->Maintain().ok());    // flush + merge
    ASSERT_TRUE((*db)->Checkpoint().ok());  // blob puts
    // A fresh read-only workspace restores from blob storage: its
    // data-file reads are cold (cache misses + blob gets).
    auto ws = (*db)->CreateWorkspace();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    auto ws_rows = (*db)->Query(
        [] { return std::make_unique<ScanOp>("items", std::vector<int>{0}); },
        *ws);
    ASSERT_TRUE(ws_rows.ok());
    EXPECT_EQ(ws_rows->size(), 600u);
  }
  // Reopen in the same directory: recovery replays the log, and its
  // data-file reads are served by the local disk cache (cache hits).
  {
    auto db2 = Database::Open(opts);
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    EXPECT_EQ(CountRows(db2->get()), 600u);
  }
  // Both databases are closed: executor shutdown drained every queued
  // task, so the task counter is deterministic here.

  MetricsRegistry* reg = MetricsRegistry::Global();
  EXPECT_GT(reg->counter("s2_log_commit_total")->value(), 0u);
  EXPECT_GT(reg->counter("s2_txn_begin_total")->value(), 0u);
  EXPECT_GT(reg->counter("s2_flush_total")->value(), 0u);
  EXPECT_GT(reg->counter("s2_blob_put_total")->value(), 0u);
  EXPECT_GT(reg->counter("s2_blob_get_total")->value(), 0u);
  EXPECT_GT(reg->counter("s2_exec_tasks_total")->value(), 0u);
  // Cache hits: memory hits and local-disk hits both count (recovery reads
  // land on disk; repeated reads of resident files land in memory).
  EXPECT_GT(reg->counter("s2_cache_local_hits_total")->value(), 0u);
  EXPECT_GT(reg->counter("s2_cache_misses_total")->value(), 0u);

  for (const char* h : {"s2_log_commit_ns", "s2_flush_ns", "s2_blob_put_ns",
                        "s2_blob_get_ns", "s2_txn_commit_ns"}) {
    Histogram* hist = reg->histogram(h);
    EXPECT_GT(hist->count(), 0u) << h;
    EXPECT_GT(hist->Quantile(0.5), 0u) << h;
    EXPECT_LE(hist->Quantile(0.5), hist->Quantile(0.99)) << h;
    EXPECT_LE(hist->Quantile(0.99), hist->max()) << h;
  }

  // The text dump carries every layer's metrics.
  std::string text = reg->Dump();
  for (const char* name :
       {"s2_log_commit_ns", "s2_log_commit_total", "s2_flush_ns",
        "s2_blob_put_ns", "s2_blob_get_ns", "s2_cache_misses_total",
        "s2_txn_commit_ns", "s2_exec_tasks_total"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name << "\n" << text;
  }
  std::string json = reg->DumpJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"s2_log_commit_ns\""), std::string::npos);
}

// Every database owns a monitor with the standard rules, so any bundle
// carries the monitor's files.
TEST_F(EngineTest, DefaultDatabaseBundlesMonitorState) {
  auto db = Open(EngineProfile::kUnified);
  ASSERT_NE(db->monitor(), nullptr);
  EXPECT_EQ(db->monitor()->ticks(), 0u) << "the monitor only ticks on demand";
  db->monitor()->TickOnce();

  std::string bundle = dir_ + "/bundle";
  ASSERT_TRUE(db->DumpFlightRecorder(bundle).ok());
  Env* env = Env::Default();
  auto history = env->ReadFileToString(bundle + "/monitor_history.json");
  ASSERT_TRUE(history.ok());
  EXPECT_NE(history->find("\"ticks\":1"), std::string::npos);
  auto watchdogs = env->ReadFileToString(bundle + "/watchdogs.json");
  ASSERT_TRUE(watchdogs.ok());
  EXPECT_NE(watchdogs->find("\"rule\":\"replication_lag\""),
            std::string::npos);
}

}  // namespace
}  // namespace s2
