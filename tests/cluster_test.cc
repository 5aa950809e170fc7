#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "blob/blob_store.h"
#include "cluster/cluster.h"
#include "common/env.h"
#include "common/metrics.h"
#include "log/partition_log.h"
#include "query/plan.h"
#include "segment_state.h"

namespace s2 {
namespace {

TableOptions AccountsTable() {
  TableOptions opts;
  opts.schema = Schema({{"id", DataType::kInt64},
                        {"owner", DataType::kString},
                        {"balance", DataType::kDouble}});
  opts.indexes = {{0}};
  opts.unique_key = {0};
  opts.segment_rows = 64;
  opts.flush_threshold = 64;
  return opts;
}

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("s2-cluster");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override {
    cluster_.reset();
    (void)RemoveDirRecursive(dir_);
  }

  ClusterOptions Options(int partitions = 4, int nodes = 2, int replicas = 1) {
    ClusterOptions opts;
    opts.dir = dir_;
    opts.num_partitions = partitions;
    opts.num_nodes = nodes;
    opts.ha_replicas = replicas;
    opts.blob = &blob_;
    opts.auto_maintain = false;
    return opts;
  }

  void Start(int partitions = 4, int nodes = 2, int replicas = 1) {
    StartWith(Options(partitions, nodes, replicas));
  }

  void StartWith(const ClusterOptions& opts) {
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->Start().ok());
    ASSERT_TRUE(cluster_->CreateTable("accounts", AccountsTable(), {0}).ok());
  }

  // Whether every live HA and workspace replica has applied its master's
  // durable log.
  bool CaughtUp() {
    for (const Cluster::ReplicaState& r : cluster_->ReplicaStates()) {
      if (!r.down && r.applied_lsn < r.master_durable_lsn) return false;
    }
    return true;
  }

  void WaitForReplicas() {
    for (int spin = 0; spin < 20000 && !CaughtUp(); ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(CaughtUp());
  }

  void InsertAccounts(int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(cluster_
                      ->InsertRows("accounts",
                                   {{Value(i), Value("u" + std::to_string(i)),
                                     Value(i * 10.0)}})
                      .ok());
    }
  }

  // Counts rows across partitions (or a workspace).
  size_t TotalRows(int workspace = -1) {
    auto rows = cluster_->ScatterQuery(
        [] {
          return std::make_unique<ScanOp>("accounts", std::vector<int>{0});
        },
        workspace);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? rows->size() : 0;
  }

  std::string dir_;
  MemBlobStore blob_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterTest, RowsSpreadAcrossPartitions) {
  Start();
  InsertAccounts(200);
  EXPECT_EQ(TotalRows(), 200u);
  // Every partition should own some rows under hash sharding.
  int nonempty = 0;
  for (int p = 0; p < cluster_->num_partitions(); ++p) {
    auto t = cluster_->partition(p)->GetTable("accounts");
    ASSERT_TRUE(t.ok());
    if ((*t)->ApproxRowCount() > 0) ++nonempty;
  }
  EXPECT_EQ(nonempty, 4);
}

TEST_F(ClusterTest, RoutingIsDeterministic) {
  Start();
  Row row = {Value(int64_t{42}), Value("x"), Value(0.0)};
  auto p1 = cluster_->PartitionForRow("accounts", row);
  auto p2 = cluster_->PartitionForRow("accounts", row);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, *p2);
}

TEST_F(ClusterTest, MultiPartitionTransaction) {
  Start();
  InsertAccounts(20);
  // Move balance between two accounts on (very likely) different
  // partitions.
  auto txn = cluster_->BeginTxn();
  int p_from = *cluster_->PartitionForRow(
      "accounts", {Value(int64_t{1}), Value(""), Value(0.0)});
  int p_to = *cluster_->PartitionForRow(
      "accounts", {Value(int64_t{2}), Value(""), Value(0.0)});
  auto h_from = txn.On(p_from);
  auto h_to = txn.On(p_to);
  ASSERT_TRUE(txn.table(p_from, "accounts")
                  ->UpdateByKey(h_from.id, h_from.read_ts, {Value(int64_t{1})},
                                {Value(int64_t{1}), Value("u1"), Value(0.0)})
                  .ok());
  ASSERT_TRUE(txn.table(p_to, "accounts")
                  ->UpdateByKey(h_to.id, h_to.read_ts, {Value(int64_t{2})},
                                {Value(int64_t{2}), Value("u2"), Value(30.0)})
                  .ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(TotalRows(), 20u);
}

// A Txn that goes out of scope unfinished aborts: the next writer locks
// its row without waiting, and its snapshot no longer holds back GC. A
// moved-from Txn aborts nothing.
TEST_F(ClusterTest, UnfinishedTxnAbortsWhenDestroyed) {
  Start(/*partitions=*/1);
  InsertAccounts(4);
  Partition* partition = cluster_->partition(0);
  const Row key = {Value(int64_t{1})};
  Timestamp first_snapshot = 0;
  {
    auto txn = cluster_->BeginTxn();
    auto h = txn.On(0);
    first_snapshot = h.read_ts;
    const Row gone = {Value(int64_t{1}), Value("gone"), Value(1.0)};
    ASSERT_TRUE(txn.table(0, "accounts")
                    ->UpdateByKey(h.id, h.read_ts, key, gone)
                    .ok());
    EXPECT_GT(partition->txns()->locks()->num_locked(), 0u);
  }
  EXPECT_EQ(partition->txns()->locks()->num_locked(), 0u);

  const uint64_t waits_before = S2_HISTOGRAM("s2_lock_wait_ns").count();
  auto txn = cluster_->BeginTxn();
  {
    Cluster::Txn moved = std::move(txn);
    txn = std::move(moved);
  }
  auto h = txn.On(0);
  ASSERT_TRUE(txn.table(0, "accounts")
                  ->UpdateByKey(h.id, h.read_ts, key,
                                {Value(int64_t{1}), Value("kept"), Value(2.0)})
                  .ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(S2_HISTOGRAM("s2_lock_wait_ns").count(), waits_before);
  EXPECT_GT(partition->txns()->oldest_active(), first_snapshot);
}

TEST_F(ClusterTest, ReplicasApplyContinuously) {
  Start(/*partitions=*/2, /*nodes=*/2, /*replicas=*/1);
  InsertAccounts(50);
  // Kill node 0; partitions mastered there fail over.
  cluster_->KillNode(0);
  auto promoted = cluster_->RunFailureDetector();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_GE(*promoted, 1);
  // All data still present after failover.
  EXPECT_EQ(TotalRows(), 50u);
  // And the cluster still accepts writes.
  ASSERT_TRUE(cluster_
                  ->InsertRows("accounts",
                               {{Value(int64_t{1000}), Value("after"),
                                 Value(1.0)}})
                  .ok());
  EXPECT_EQ(TotalRows(), 51u);
}

TEST_F(ClusterTest, CommitFailsWhenAllReplicasDown) {
  Start(/*partitions=*/1, /*nodes=*/2, /*replicas=*/1);
  InsertAccounts(5);
  // The replica lives on node 1; kill it. Without any acking replica the
  // commit must fail (durability requires >= 1 ack).
  cluster_->KillNode(1);
  Status s = cluster_->InsertRows(
      "accounts", {{Value(int64_t{100}), Value("x"), Value(0.0)}});
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
}

TEST_F(ClusterTest, WorkspaceServesIsolatedReads) {
  Start(/*partitions=*/2, /*nodes=*/2, /*replicas=*/1);
  InsertAccounts(100);
  ASSERT_TRUE(cluster_->UploadAllToBlob().ok());

  auto ws = cluster_->CreateWorkspace();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  EXPECT_EQ(TotalRows(*ws), 100u)
      << "workspace bootstrapped from blob + log tail sees all data";

  // New writes stream to the workspace asynchronously.
  for (int64_t i = 100; i < 120; ++i) {
    ASSERT_TRUE(cluster_
                    ->InsertRows("accounts",
                                 {{Value(i), Value("w"), Value(0.0)}})
                    .ok());
  }
  // Wait for the async apply thread to drain (the paper reports <1ms of
  // lag; give it a generous bound here).
  for (int spin = 0; spin < 2000 && cluster_->WorkspaceLagBytes(*ws) > 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(cluster_->WorkspaceLagBytes(*ws), 0u)
      << "every durable byte should be applied once the stream drains";
  EXPECT_EQ(TotalRows(*ws), 120u);
}

TEST_F(ClusterTest, WorkspaceDoesNotGateCommits) {
  Start(/*partitions=*/1, /*nodes=*/2, /*replicas=*/1);
  InsertAccounts(10);
  ASSERT_TRUE(cluster_->UploadAllToBlob().ok());
  auto ws = cluster_->CreateWorkspace();
  ASSERT_TRUE(ws.ok());
  // Writes succeed regardless of workspace state (it never acks).
  ASSERT_TRUE(cluster_
                  ->InsertRows("accounts",
                               {{Value(int64_t{500}), Value("y"), Value(0.0)}})
                  .ok());
}

TEST_F(ClusterTest, WorkspaceInstallsSegmentChangesLikeTheMaster) {
  // A workspace replays the master's flushes, move-transaction delete bits
  // and merge from the log stream; once caught up it must report the same
  // live segments, runs and index answers as the master.
  Start(/*partitions=*/1, /*nodes=*/2, /*replicas=*/1);
  TableOptions opts = AccountsTable();
  opts.sort_key = {0};
  opts.max_sorted_runs = 4;
  ASSERT_TRUE(cluster_->CreateTable("ledger", opts, {0}).ok());
  ASSERT_TRUE(cluster_->UploadAllToBlob().ok());
  auto ws = cluster_->CreateWorkspace();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();

  Partition* master = cluster_->partition(0);
  auto table_or = master->GetTable("ledger");
  ASSERT_TRUE(table_or.ok());
  UnifiedTable* table = *table_or;
  for (int64_t batch = 0; batch < 6; ++batch) {
    std::vector<Row> rows;
    for (int64_t i = batch * 64; i < (batch + 1) * 64; ++i) {
      rows.push_back({Value(i), Value("u" + std::to_string(i)), Value(1.0)});
    }
    ASSERT_TRUE(cluster_->InsertRows("ledger", rows).ok());
    ASSERT_TRUE(table->FlushRowstore().ok());
  }
  auto delete_keys = [&](const std::vector<int64_t>& ids) {
    for (int64_t id : ids) {
      auto h = master->Begin();
      Status s = table->DeleteByKey(h.id, h.read_ts, {Value(id)});
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_TRUE(master->Commit(h.id).ok());
    }
  };
  const std::vector<int64_t> deleted_before = {1, 65, 130, 200};
  const std::vector<int64_t> deleted_after = {7, 300};
  delete_keys(deleted_before);
  auto merged = table->MaybeMergeRuns();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_TRUE(*merged);
  delete_keys(deleted_after);

  WaitForReplicas();

  std::vector<int64_t> keys = deleted_before;
  keys.insert(keys.end(), deleted_after.begin(), deleted_after.end());
  keys.push_back(100);  // survives in a segment
  SegmentState live =
      CaptureSegmentState(master, table, keys, /*live_only=*/true);
  ASSERT_EQ(live.hits[100].size(), 1u);

  Partition* replica = cluster_->WorkspacePartition(*ws, 0);
  auto replica_table = replica->GetTable("ledger");
  ASSERT_TRUE(replica_table.ok());
  SegmentState replayed = CaptureSegmentState(replica, *replica_table, keys,
                                              /*live_only=*/true);
  EXPECT_EQ(replayed.segments, live.segments);
  EXPECT_EQ(replayed.runs, live.runs);
  EXPECT_EQ(replayed.hits, live.hits);

  // The workspace vacuums what it replays: once it has replayed the
  // master's next flush, the merged-away segments and the level-0 rows of
  // earlier flushes are gone there as on the master, which vacuumed in
  // Maintain.
  std::vector<Row> rows;
  for (int64_t i = 1000; i < 1064; ++i) {
    rows.push_back({Value(i), Value("m"), Value(1.0)});
  }
  ASSERT_TRUE(cluster_->InsertRows("ledger", rows).ok());
  ASSERT_TRUE(cluster_->Maintain().ok());
  WaitForReplicas();
  SegmentState master_all =
      CaptureSegmentState(master, table, keys, /*live_only=*/false);
  SegmentState replica_all = CaptureSegmentState(replica, *replica_table, keys,
                                                 /*live_only=*/false);
  EXPECT_EQ(replica_all.segments, master_all.segments);
  for (const auto& [id, rows_in, deleted, is_live] : replica_all.segments) {
    EXPECT_TRUE(is_live) << "merged-away segment " << id << " not vacuumed";
  }
  EXPECT_EQ((*replica_table)->RowstoreRows(), table->RowstoreRows());
  EXPECT_LT((*replica_table)->RowstoreRows(), 64u)
      << "flushed rows must leave the workspace's level 0";
}

TEST_F(ClusterTest, WorkspaceDoesNotCountTowardDurability) {
  // A workspace holds the master's pages but does not ack them: with the
  // partition's only HA replica down, a commit fails although a workspace
  // is attached.
  Start(/*partitions=*/1, /*nodes=*/2, /*replicas=*/1);
  InsertAccounts(5);
  ASSERT_TRUE(cluster_->UploadAllToBlob().ok());
  auto ws = cluster_->CreateWorkspace();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  cluster_->KillNode(1);
  Status s = cluster_->InsertRows(
      "accounts", {{Value(int64_t{100}), Value("x"), Value(0.0)}});
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
}

TEST_F(ClusterTest, WorkspaceWithoutHaReplicasCommits) {
  // Without HA replicas the log is durable locally, workspace or not.
  Start(/*partitions=*/1, /*nodes=*/2, /*replicas=*/0);
  InsertAccounts(5);
  ASSERT_TRUE(cluster_->UploadAllToBlob().ok());
  auto ws = cluster_->CreateWorkspace();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Status s = cluster_->InsertRows(
      "accounts", {{Value(int64_t{100}), Value("x"), Value(0.0)}});
  ASSERT_TRUE(s.ok()) << s.ToString();
  WaitForReplicas();
  EXPECT_EQ(TotalRows(*ws), 6u);
}

TEST_F(ClusterTest, PromotionPersistsTheUnappliedTail) {
  // One executor thread, held by a latch task: the HA replicas' apply tasks
  // stay queued, so every row committed afterwards is in the unapplied
  // tail when the master's node dies. Promotion must persist that tail,
  // and neither it nor dropping the other, stale replica may wait for a
  // queued task.
  for (const int replicas : {1, 2}) {
    SCOPED_TRACE("ha_replicas=" + std::to_string(replicas));
    ClusterOptions opts = Options(/*partitions=*/1, /*nodes=*/replicas + 1,
                                  replicas);
    opts.dir = dir_ + "/ha" + std::to_string(replicas);
    opts.num_exec_threads = 1;
    StartWith(opts);
    WaitForReplicas();
    std::promise<void> running;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    ASSERT_TRUE(cluster_->executor()->Submit([&running, released] {
      running.set_value();
      released.wait();
    }));
    running.get_future().wait();

    constexpr int64_t kRows = 40;
    InsertAccounts(kRows);
    std::vector<Cluster::ReplicaState> states = cluster_->ReplicaStates();
    EXPECT_EQ(states.size(), static_cast<size_t>(replicas));
    for (const Cluster::ReplicaState& r : states) {
      EXPECT_LT(r.applied_lsn, r.master_durable_lsn) << "no unapplied tail";
    }

    cluster_->KillNode(0);
    auto failover = std::async(std::launch::async, [this] {
      return cluster_->RunFailureDetector();
    });
    const bool returned = failover.wait_for(std::chrono::seconds(30)) ==
                          std::future_status::ready;
    EXPECT_TRUE(returned) << "failover waited for a queued apply task";
    if (returned) {
      Result<int> promoted = failover.get();
      EXPECT_TRUE(promoted.ok()) << promoted.status().ToString();
      EXPECT_EQ(promoted.ok() ? *promoted : 0, 1);
      // One partition on a 1-thread executor: the scan runs on this thread.
      EXPECT_EQ(TotalRows(), static_cast<size_t>(kRows));
    }
    release.set_value();
    if (!returned) failover.wait();
    cluster_->executor()->WaitIdle();
    cluster_.reset();
  }
}

TEST_F(ClusterTest, ReopenedClusterReplicatesAfresh) {
  // A cluster reopened in the same dir reuses its replica dirs. An HA
  // replica must start from an empty log again, or the master's catch-up
  // from LSN 0 replays the first run's transactions twice: the replica
  // stops applying and failover cannot recover its log.
  ClusterOptions opts = Options(/*partitions=*/1, /*nodes=*/2);
  StartWith(opts);
  InsertAccounts(20);
  auto table = cluster_->partition(0)->GetTable("accounts");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->FlushRowstore().ok());
  WaitForReplicas();
  cluster_.reset();

  // The reopened master recovers the table and its shard key.
  cluster_ = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster_->Start().ok());
  Partition* master = cluster_->partition(0);
  for (int64_t i = 20; i < 40; ++i) {
    ASSERT_TRUE(
        cluster_->InsertRows("accounts", {{Value(i), Value("v"), Value(1.0)}})
            .ok());
  }
  WaitForReplicas();
  std::vector<Cluster::ReplicaState> states = cluster_->ReplicaStates();
  ASSERT_EQ(states.size(), 1u);
  auto expected =
      master->log()->ReadRange(0, states[0].applied_lsn);
  ASSERT_TRUE(expected.ok());
  auto persisted = Env::Default()->ReadFileToString(dir_ + "/replica0/log");
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  EXPECT_TRUE(*persisted == *expected)
      << persisted->size() << " vs " << expected->size() << " bytes";

  cluster_->KillNode(0);
  Result<int> promoted = cluster_->RunFailureDetector();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*promoted, 1);
  EXPECT_EQ(TotalRows(), 40u);
}

// An HA replica registers the tuple entries of the segments it replays: once
// promoted, it answers two-column lookups and duplicate checks from them.
TEST_F(ClusterTest, PromotedReplicaAnswersTwoColumnKeyLookups) {
  // Three nodes so the promoted master can re-provision its HA replica and
  // keep acking commits.
  Start(/*partitions=*/1, /*nodes=*/3, /*replicas=*/1);
  TableOptions opts;
  opts.schema = Schema({{"w", DataType::kInt64},
                        {"o", DataType::kInt64},
                        {"note", DataType::kString}});
  opts.indexes = {{0, 1}};
  opts.unique_key = {0, 1};
  opts.segment_rows = 64;
  opts.flush_threshold = 64;
  ASSERT_TRUE(cluster_->CreateTable("orders", opts, {0}).ok());
  // Row i is (i % 4, i / 4): every w has a row in every segment, and
  // (2, 50) matches rows one column at a time but no row as a pair.
  constexpr int64_t kRows = 202;
  auto row_of = [](int64_t i) -> Row {
    return {Value(i % 4), Value(i / 4), Value("n" + std::to_string(i))};
  };
  auto master_table = cluster_->partition(0)->GetTable("orders");
  ASSERT_TRUE(master_table.ok());
  for (int64_t lo = 0; lo < kRows; lo += 64) {
    std::vector<Row> rows;
    for (int64_t i = lo; i < std::min(lo + 64, kRows); ++i) {
      rows.push_back(row_of(i));
    }
    ASSERT_TRUE(cluster_->InsertRows("orders", rows).ok());
    if (rows.size() == 64) {
      ASSERT_TRUE((*master_table)->FlushRowstore().ok());
    }
  }
  WaitForReplicas();
  cluster_->KillNode(0);
  auto promoted = cluster_->RunFailureDetector();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_EQ(*promoted, 1);

  Partition* master = cluster_->partition(0);
  auto table = master->GetTable("orders");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->NumSegments(), 3u);
  auto lookup = [&](const Row& key) {
    std::vector<std::string> notes;
    auto h = master->Begin();
    Status s = (*table)->LookupByIndex(
        h.id, h.read_ts, {0, 1}, key,
        [&](const Row& row, const RowLocation&) {
          notes.push_back(row[2].ToString());
          return true;
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
    master->EndRead(h.id);
    return notes;
  };
  for (int64_t i = 0; i < kRows; ++i) {
    Row row = row_of(i);
    EXPECT_EQ(lookup({row[0], row[1]}),
              std::vector<std::string>{row[2].ToString()})
        << i;
  }
  EXPECT_TRUE(lookup({Value(int64_t{2}), Value(int64_t{50})}).empty());
  for (int64_t i : {0, 100, 201}) {
    Row dup = row_of(i);
    dup[2] = Value("dup");
    EXPECT_TRUE(cluster_->InsertRows("orders", {dup}).IsAlreadyExists()) << i;
  }
  EXPECT_TRUE(cluster_
                  ->InsertRows("orders", {{Value(int64_t{2}),
                                           Value(int64_t{50}), Value("new")}})
                  .ok());
}

TEST_F(ClusterTest, ReopenedClusterRoutesRecoveredTables) {
  // Each table's shard key is persisted with it (DDL record and snapshot),
  // so a reopened cluster routes writes to its recovered tables as the
  // first run did.
  ClusterOptions opts = Options(/*partitions=*/4, /*nodes=*/2);
  StartWith(opts);
  InsertAccounts(20);
  ASSERT_TRUE(cluster_->UploadAllToBlob().ok());  // recover from snapshots
  for (int64_t i = 20; i < 25; ++i) {
    ASSERT_TRUE(
        cluster_->InsertRows("accounts", {{Value(i), Value("w"), Value(0.0)}})
            .ok());
  }
  auto routed = cluster_->PartitionForRow(
      "accounts", {Value(int64_t{3}), Value("u3"), Value(30.0)});
  ASSERT_TRUE(routed.ok());
  WaitForReplicas();
  cluster_.reset();

  cluster_ = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster_->Start().ok());
  for (int64_t i = 25; i < 40; ++i) {
    Status s =
        cluster_->InsertRows("accounts", {{Value(i), Value("v"), Value(1.0)}});
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_EQ(TotalRows(), 40u);
  // Same key, same partition: the duplicate reaches the row it collides
  // with, whatever its other columns hold.
  auto again = cluster_->PartitionForRow(
      "accounts", {Value(int64_t{3}), Value("other"), Value(0.0)});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *routed);
  EXPECT_TRUE(cluster_
                  ->InsertRows("accounts",
                               {{Value(int64_t{3}), Value("x"), Value(0.0)}})
                  .IsAlreadyExists());
}

TEST_F(ClusterTest, WorkspaceFollowsThePromotedMaster) {
  // Three nodes so the promoted master (node 1) can re-provision its HA
  // replica on node 2 and keep acking commits after node 0 dies.
  Start(/*partitions=*/1, /*nodes=*/3, /*replicas=*/1);
  InsertAccounts(10);
  auto ws = cluster_->CreateWorkspace();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  WaitForReplicas();

  cluster_->KillNode(0);
  auto promoted = cluster_->RunFailureDetector();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_EQ(*promoted, 1);
  ASSERT_TRUE(cluster_
                  ->InsertRows("accounts",
                               {{Value(int64_t{10}), Value("f"), Value(0.0)}})
                  .ok());
  WaitForReplicas();
  EXPECT_EQ(TotalRows(), 11u);
  EXPECT_EQ(TotalRows(*ws), 11u);
  EXPECT_EQ(cluster_->WorkspaceLagBytes(*ws), 0u);
}

TEST_F(ClusterTest, ReplicaVacuumsAFlushCommittedInALaterBatch) {
  // A flush record and its commit can reach a replica in different apply
  // batches. The replica vacuums the table when the batch with the commit
  // applies the flush, so the flushed rows leave its level 0.
  PartitionOptions mopts;
  mopts.dir = dir_ + "/master";
  mopts.background_uploads = false;
  mopts.auto_maintain = false;
  Partition master(mopts);
  ASSERT_TRUE(master.Init().ok());
  auto table = master.CreateTable("accounts", AccountsTable());
  ASSERT_TRUE(table.ok());
  for (int64_t i = 0; i < 64; ++i) {
    auto h = master.Begin();
    ASSERT_TRUE((*table)
                    ->InsertRows(h.id, h.read_ts,
                                 {{Value(i), Value("r"), Value(1.0)}},
                                 DupPolicy::kError)
                    .ok());
    ASSERT_TRUE(master.Commit(h.id).ok());
  }
  ASSERT_TRUE((*table)->FlushRowstore().ok());
  auto master_log = master.log()->ReadRange(0, master.log()->durable_lsn());
  ASSERT_TRUE(master_log.ok());

  ReplicaOptions ropts;
  ropts.dir = dir_ + "/replica";
  ReplicaPartition replica(ropts);
  ASSERT_TRUE(replica.Init().ok());
  master.files()->ForEachFile(
      [&replica](const std::string& name,
                 std::shared_ptr<const std::string> data) {
        replica.OnDataFile(name, std::move(data));
      });

  // Relay the master's records through a log that seals a page after each
  // flush record and each commit, and let the replica apply each page
  // before the next is sealed: the flush's commit is a batch of its own.
  LogOptions lopts;
  lopts.dir = dir_ + "/relay";
  ASSERT_TRUE(Env::Default()->CreateDirs(lopts.dir).ok());
  auto relay = PartitionLog::Open(lopts);
  ASSERT_TRUE(relay.ok()) << relay.status().ToString();
  ASSERT_TRUE((*relay)->AddSink(&replica).ok());
  int flushes = 0;
  auto seal = [&]() -> Status {
    S2_RETURN_NOT_OK((*relay)->SealPage());
    const Lsn end = (*relay)->durable_lsn();
    for (int spin = 0; spin < 20000 && replica.applied_lsn() < end; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (replica.applied_lsn() < end) return Status::Unavailable("replica did not apply the page");
    return Status::OK();
  };
  auto parsed = PartitionLog::ParseStream(
      *master_log, 0, [&](Lsn, const LogRecord& rec) -> Status {
        (*relay)->Append(rec);
        if (rec.type == LogRecordType::kSegmentFlush) ++flushes;
        if (rec.type == LogRecordType::kSegmentFlush ||
            rec.type == LogRecordType::kCommit) {
          return seal();
        }
        return Status::OK();
      });
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_GE(flushes, 1);
  (*relay)->RemoveSink(&replica);

  auto replica_table = replica.partition()->GetTable("accounts");
  ASSERT_TRUE(replica_table.ok());
  EXPECT_EQ((*replica_table)->ApproxRowCount(), 64u);
  EXPECT_EQ((*replica_table)->RowstoreRows(), 0u)
      << "flushed rows must leave the replica's level 0";
}

TEST_F(ClusterTest, CaughtUpReplicaLogEqualsTheMastersLog) {
  // A replica appends what it applies to its own log, in the master's
  // format: once caught up, that log is the master's log up to the applied
  // position. An HA replica's log starts empty; a workspace's starts with
  // the log it bootstrapped from blob storage.
  PartitionOptions mopts;
  mopts.dir = dir_ + "/master";
  mopts.blob = &blob_;
  mopts.blob_prefix = "p/";
  mopts.background_uploads = false;
  mopts.auto_maintain = false;
  Partition master(mopts);
  ASSERT_TRUE(master.Init().ok());
  auto table = master.CreateTable("accounts", AccountsTable());
  ASSERT_TRUE(table.ok());

  std::vector<std::unique_ptr<ReplicaPartition>> replicas;
  auto attach = [&](const std::string& name, bool ha) {
    ReplicaOptions ropts;
    ropts.dir = dir_ + "/" + name;
    ropts.blob = &blob_;
    ropts.blob_prefix = mopts.blob_prefix;
    ropts.ack_commits = ha;
    replicas.push_back(std::make_unique<ReplicaPartition>(ropts));
    ASSERT_TRUE(replicas.back()->Init().ok());
    ASSERT_TRUE(master.log()->AddSink(replicas.back().get()).ok());
  };
  master.files()->SetFileHook(
      [&replicas](const std::string& name,
                  std::shared_ptr<const std::string> data) {
        for (auto& replica : replicas) replica->OnDataFile(name, data);
      });
  auto insert = [&](int64_t from, int64_t to) {
    for (int64_t i = from; i < to; ++i) {
      auto h = master.Begin();
      ASSERT_TRUE((*table)
                      ->InsertRows(h.id, h.read_ts,
                                   {{Value(i), Value("r"), Value(1.0)}},
                                   DupPolicy::kError)
                      .ok());
      ASSERT_TRUE(master.Commit(h.id).ok());
      if (i % 40 == 39) {
        ASSERT_TRUE((*table)->FlushRowstore().ok());
      }
    }
  };
  attach("replica", /*ha=*/true);
  insert(0, 50);
  ASSERT_TRUE(master.WriteSnapshot().ok());
  attach("workspace", /*ha=*/false);
  insert(50, 100);

  const Lsn durable = master.log()->durable_lsn();
  auto expected = master.log()->ReadRange(0, durable);
  ASSERT_TRUE(expected.ok());
  for (auto& replica : replicas) {
    SCOPED_TRACE(replica->dir());
    for (int spin = 0; spin < 20000 && replica->applied_lsn() < durable;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(replica->applied_lsn(), durable);
    auto persisted = Env::Default()->ReadFileToString(replica->dir() + "/log");
    ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
    EXPECT_TRUE(*persisted == *expected)
        << persisted->size() << " vs " << expected->size() << " bytes";
    auto replica_table = replica->partition()->GetTable("accounts");
    ASSERT_TRUE(replica_table.ok());
    EXPECT_EQ((*replica_table)->ApproxRowCount(), 100u);
  }
  for (auto& replica : replicas) master.log()->RemoveSink(replica.get());
  master.files()->SetFileHook(nullptr);
}

TEST_F(ClusterTest, PromotedMasterMulticastsDataFilesToWorkspace) {
  // Three nodes so the promoted master (node 1) can re-provision its HA
  // replica on node 2 and keep acking commits after node 0 dies.
  Start(/*partitions=*/1, /*nodes=*/3, /*replicas=*/1);
  InsertAccounts(10);
  ASSERT_TRUE(cluster_->UploadAllToBlob().ok());
  auto ws = cluster_->CreateWorkspace();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();

  cluster_->KillNode(0);
  auto promoted = cluster_->RunFailureDetector();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_EQ(*promoted, 1);

  const DataFileStats& ws_files =
      cluster_->WorkspacePartition(*ws, 0)->files()->stats();
  const uint64_t before = ws_files.files_written.load();
  // A full segment's worth of rows, flushed on the promoted master: its
  // data file reaches the workspace only through the re-wired file hook.
  for (int64_t i = 100; i < 164; ++i) {
    ASSERT_TRUE(cluster_
                    ->InsertRows("accounts",
                                 {{Value(i), Value("f"), Value(0.0)}})
                    .ok());
  }
  ASSERT_TRUE(cluster_->Maintain().ok());
  EXPECT_GT(ws_files.files_written.load(), before);
}

TEST_F(ClusterTest, PromotedMasterKeepsTheClusterPartitionOptions) {
  // A promoted master runs with the same options as the masters Start
  // built: here, background uploads on the cluster executor and automatic
  // flushes. Three nodes so it can re-provision its HA replica.
  ClusterOptions opts = Options(/*partitions=*/1, /*nodes=*/3);
  opts.auto_maintain = true;
  opts.background_uploads = true;
  opts.num_exec_threads = 2;
  StartWith(opts);
  InsertAccounts(10);  // below the flush threshold: no data file yet

  cluster_->KillNode(0);
  auto promoted = cluster_->RunFailureDetector();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_EQ(*promoted, 1);
  cluster_->executor()->WaitIdle();
  auto before = blob_.List("part0/files/");
  ASSERT_TRUE(before.ok());

  // Enough rows for the promoted master to flush on its own; its data
  // file reaches the blob store only through a background upload.
  for (int64_t i = 100; i < 200; ++i) {
    ASSERT_TRUE(cluster_
                    ->InsertRows("accounts",
                                 {{Value(i), Value("f"), Value(0.0)}})
                    .ok());
  }
  Partition* master = cluster_->partition(0);
  ASSERT_GT(master->files()->stats().files_written.load(), 0u);
  cluster_->executor()->WaitIdle();
  auto after = blob_.List("part0/files/");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->size(), before->size());
  EXPECT_GT(master->files()->stats().files_uploaded.load(), 0u);
}

TEST_F(ClusterTest, PointInTimeRestoreFromBlobHistory) {
  Start(/*partitions=*/1, /*nodes=*/2, /*replicas=*/1);
  InsertAccounts(30);
  ASSERT_TRUE(cluster_->UploadAllToBlob().ok());
  Lsn checkpoint = cluster_->partition(0)->log()->durable_lsn();

  for (int64_t i = 30; i < 60; ++i) {
    ASSERT_TRUE(cluster_
                    ->InsertRows("accounts",
                                 {{Value(i), Value("late"), Value(0.0)}})
                    .ok());
  }
  ASSERT_TRUE(cluster_->UploadAllToBlob().ok());

  // Restore partition 0 to the checkpoint, into a fresh directory.
  auto restored =
      cluster_->RestorePartitionToLsn(0, checkpoint, dir_ + "/pitr");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto table = (*restored)->GetTable("accounts");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->ApproxRowCount(), 30u)
      << "PITR state excludes post-checkpoint writes";
}

TEST_F(ClusterTest, ReplicationRacesWritersMaintenanceReadersAndFailover) {
  // Two writers, one per partition, commit while automatic flushes and
  // merges run; each partition streams to one HA replica and one workspace
  // partition, whose apply tasks share the executor, and a reader scans
  // the workspace throughout. Then the node of partition 0's master dies.
  // Three nodes, so partition 1 keeps its replica and the promoted master
  // gets a new one.
  ClusterOptions opts = Options(/*partitions=*/2, /*nodes=*/3);
  opts.auto_maintain = true;
  opts.num_exec_threads = 4;
  cluster_ = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster_->Start().ok());
  TableOptions table = AccountsTable();
  table.sort_key = {0};
  table.max_sorted_runs = 2;
  ASSERT_TRUE(cluster_->CreateTable("accounts", table, {0}).ok());
  ASSERT_TRUE(cluster_->UploadAllToBlob().ok());
  auto ws = cluster_->CreateWorkspace();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();

  constexpr int kRowsPerWriter = 480;
  constexpr int kRowsPerTxn = 8;
  std::atomic<int> writers_left{2};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      std::vector<Row> rows;
      int written = 0;
      for (int64_t key = 0; written < kRowsPerWriter; ++key) {
        if (cluster_->PartitionForKey({Value(key)}) != p) continue;
        rows.push_back({Value(key), Value("w"), Value(1.0)});
        ++written;
        if (rows.size() == kRowsPerTxn) {
          Status s = cluster_->InsertRows("accounts", rows);
          EXPECT_TRUE(s.ok()) << s.ToString();
          rows.clear();
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    // Each replica applies its stream in order, so a later scan never sees
    // fewer rows.
    size_t seen = 0;
    while (writers_left.load() > 0) {
      size_t now = TotalRows(*ws);
      EXPECT_GE(now, seen);
      seen = now;
    }
  });
  for (std::thread& t : threads) t.join();

  const size_t total = 2 * kRowsPerWriter;
  WaitForReplicas();
  EXPECT_EQ(TotalRows(*ws), total);
  EXPECT_EQ(TotalRows(), total);

  cluster_->KillNode(0);
  auto promoted = cluster_->RunFailureDetector();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*promoted, 1);
  EXPECT_EQ(TotalRows(), total);
  ASSERT_TRUE(cluster_
                  ->InsertRows("accounts",
                               {{Value(int64_t{-1}), Value("after"),
                                 Value(1.0)},
                                {Value(int64_t{-2}), Value("after"),
                                 Value(1.0)}})
                  .ok());
  EXPECT_EQ(TotalRows(), total + 2);
}

TEST_F(ClusterTest, ScatterQueryWithAggregation) {
  Start();
  InsertAccounts(100);
  // Scatter: per-partition partial sums; gather: combine here.
  auto partials = cluster_->ScatterQuery([] {
    auto scan = std::make_unique<ScanOp>("accounts", std::vector<int>{2});
    std::vector<AggSpec> aggs;
    aggs.push_back({AggKind::kSum, Col(0)});
    aggs.push_back({AggKind::kCount, nullptr});
    return std::make_unique<AggregateOp>(std::move(scan),
                                         std::vector<ExprPtr>{},
                                         std::move(aggs));
  });
  ASSERT_TRUE(partials.ok());
  ASSERT_EQ(partials->size(), 4u);
  double total = 0;
  int64_t count = 0;
  for (const Row& row : *partials) {
    if (!row[0].is_null()) total += row[0].as_double();
    count += row[1].as_int();
  }
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(total, 10.0 * (99 * 100 / 2));
}

}  // namespace
}  // namespace s2
