#include <gtest/gtest.h>

#include "test_util.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "common/rng.h"
#include "rowstore/rowstore_table.h"
#include "rowstore/skiplist.h"
#include "txn/lock_table.h"

namespace s2 {
namespace {

// --- SkipList ---

TEST(SkipListTest, InsertFindOrder) {
  SkipList list;
  bool created;
  list.GetOrInsert("banana", &created);
  EXPECT_TRUE(created);
  list.GetOrInsert("apple", &created);
  list.GetOrInsert("cherry", &created);
  list.GetOrInsert("banana", &created);
  EXPECT_FALSE(created) << "second insert of same key finds existing node";
  EXPECT_EQ(list.num_nodes(), 3u);

  std::vector<std::string> keys;
  for (auto* node = list.First(); node != nullptr; node = SkipList::Next(node)) {
    keys.push_back(node->key().ToString());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"apple", "banana", "cherry"}));

  EXPECT_NE(list.Find("apple"), nullptr);
  EXPECT_EQ(list.Find("grape"), nullptr);
  EXPECT_EQ(list.Seek("b")->key().ToString(), "banana");
  EXPECT_EQ(list.Seek("zzz"), nullptr);
}

TEST(SkipListTest, ConcurrentInsertsAllPresent) {
  SkipList list;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&list, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Heavy key overlap across threads stresses the CAS retry path.
        std::string key = "key" + std::to_string((i * kThreads + t) % 6000);
        bool created;
        list.GetOrInsert(key, &created);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(list.num_nodes(), 6000u);
  // Order invariant holds after the storm.
  std::string prev;
  size_t count = 0;
  for (auto* node = list.First(); node != nullptr; node = SkipList::Next(node)) {
    if (count > 0) {
      EXPECT_LT(prev, node->key().ToString());
    }
    prev = node->key().ToString();
    ++count;
  }
  EXPECT_EQ(count, 6000u);
}

TEST(SkipListTest, ModelCheckAgainstStdMap) {
  SkipList list;
  std::set<std::string> model;
  const uint64_t seed = TestSeed(99);
  SCOPED_TRACE("S2_TEST_SEED=" + std::to_string(seed));
  Rng rng(seed);
  for (int i = 0; i < 5000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(800));
    bool created;
    list.GetOrInsert(key, &created);
    EXPECT_EQ(created, model.insert(key).second);
  }
  EXPECT_EQ(list.num_nodes(), model.size());
  for (const std::string& key : model) {
    EXPECT_NE(list.Find(key), nullptr) << key;
  }
}

// --- RowStoreTable ---

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"name", DataType::kString},
                 {"score", DataType::kDouble}});
}

Row MakeRow(int64_t id, std::string name, double score) {
  return Row{Value(id), Value(std::move(name)), Value(score)};
}

class RowStoreTest : public ::testing::Test {
 protected:
  RowStoreTest() : table_(TestSchema(), {0}, &locks_, &horizon_) {}

  // Ends txn in `table` and then releases its row locks, in the order
  // TxnManager's FinishCommit / Abort keep.
  void Commit(TxnId txn, Timestamp ts) { Commit(&table_, txn, ts); }
  void Commit(RowStoreTable* table, TxnId txn, Timestamp ts) {
    table->CommitTxn(txn, ts);
    locks_.ReleaseAll(txn);
  }
  void Abort(TxnId txn) {
    table_.AbortTxn(txn);
    locks_.ReleaseAll(txn);
  }

  // Helper: run an autocommit single-op transaction.
  Status Commit1(TxnId txn, Timestamp ts, Status op_result) {
    if (!op_result.ok()) {
      Abort(txn);
      return op_result;
    }
    Commit(txn, ts);
    return Status::OK();
  }

  LockTable locks_;
  std::atomic<Timestamp> horizon_{0};  // no pruning until a test moves it
  RowStoreTable table_;
};

TEST_F(RowStoreTest, InsertGetVisibility) {
  ASSERT_TRUE(table_.Insert(1, 0, MakeRow(7, "alice", 1.5)).ok());
  // Uncommitted: visible to own txn only.
  EXPECT_TRUE(table_.Get(1, 0, {Value(int64_t{7})}).ok());
  EXPECT_TRUE(table_.Get(2, 10, {Value(int64_t{7})}).status().IsNotFound());
  Commit(1, 5);
  // Committed at ts 5: visible at read_ts >= 5.
  EXPECT_TRUE(table_.Get(2, 5, {Value(int64_t{7})}).ok());
  EXPECT_TRUE(table_.Get(2, 4, {Value(int64_t{7})}).status().IsNotFound());
  EXPECT_EQ((*table_.Get(2, 5, {Value(int64_t{7})}))[1], Value("alice"));
}

TEST_F(RowStoreTest, DuplicateInsertRejected) {
  ASSERT_TRUE(Commit1(1, 5, table_.Insert(1, 0, MakeRow(1, "a", 0))).ok());
  EXPECT_TRUE(table_.Insert(2, 5, MakeRow(1, "b", 0)).IsAlreadyExists());
  Abort(2);
}

TEST_F(RowStoreTest, DeleteAndReinsert) {
  ASSERT_TRUE(Commit1(1, 5, table_.Insert(1, 0, MakeRow(1, "a", 0))).ok());
  ASSERT_TRUE(Commit1(2, 6, table_.Delete(2, 5, {Value(int64_t{1})})).ok());
  EXPECT_TRUE(table_.Get(9, 6, {Value(int64_t{1})}).status().IsNotFound());
  // Old snapshot still sees it (MVCC).
  EXPECT_TRUE(table_.Get(9, 5, {Value(int64_t{1})}).ok());
  // Key is reusable after delete.
  ASSERT_TRUE(Commit1(3, 7, table_.Insert(3, 6, MakeRow(1, "again", 1))).ok());
  EXPECT_EQ((*table_.Get(9, 7, {Value(int64_t{1})}))[1], Value("again"));
}

TEST_F(RowStoreTest, UpdateCreatesNewVersion) {
  ASSERT_TRUE(Commit1(1, 5, table_.Insert(1, 0, MakeRow(1, "v1", 0))).ok());
  ASSERT_TRUE(
      Commit1(2, 8, table_.Update(2, 5, {Value(int64_t{1})}, MakeRow(1, "v2", 1)))
          .ok());
  EXPECT_EQ((*table_.Get(9, 8, {Value(int64_t{1})}))[1], Value("v2"));
  EXPECT_EQ((*table_.Get(9, 5, {Value(int64_t{1})}))[1], Value("v1"));
}

TEST_F(RowStoreTest, UpdateMissingRowFails) {
  EXPECT_TRUE(
      table_.Update(1, 0, {Value(int64_t{42})}, MakeRow(42, "x", 0)).IsNotFound());
  Abort(1);
}

TEST_F(RowStoreTest, AbortRollsBack) {
  ASSERT_TRUE(table_.Insert(1, 0, MakeRow(1, "doomed", 0)).ok());
  Abort(1);
  EXPECT_TRUE(table_.Get(2, 100, {Value(int64_t{1})}).status().IsNotFound());
  // Key usable afterwards.
  ASSERT_TRUE(Commit1(3, 5, table_.Insert(3, 0, MakeRow(1, "kept", 0))).ok());
  EXPECT_TRUE(table_.Get(2, 5, {Value(int64_t{1})}).ok());
}

TEST_F(RowStoreTest, WriteWriteConflictAborts) {
  ASSERT_TRUE(Commit1(1, 5, table_.Insert(1, 0, MakeRow(1, "base", 0))).ok());
  // Txn 3 commits an update after txn 2's snapshot (ts 5)...
  ASSERT_TRUE(
      Commit1(3, 10, table_.Update(3, 5, {Value(int64_t{1})}, MakeRow(1, "w1", 0)))
          .ok());
  // ...so txn 2 (snapshot 5) must abort: first-committer-wins.
  Status s = table_.Update(2, 5, {Value(int64_t{1})}, MakeRow(1, "w2", 0));
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  Abort(2);
}

// The one write rule: a version that another transaction committed after
// the writer's snapshot aborts an Update or Delete, unless it is a move copy
// (InsertMoved), whose content is the row's unchanged.
TEST_F(RowStoreTest, MoveCopyAfterSnapshotDoesNotAbortWriters) {
  const Row pk1 = {Value(int64_t{1})};
  const Row pk2 = {Value(int64_t{2})};
  ASSERT_TRUE(table_.InsertMoved(1, MakeRow(1, "moved", 0)).ok());
  ASSERT_TRUE(table_.InsertMoved(1, MakeRow(2, "moved", 0)).ok());
  Commit(1, 6);
  // Snapshot 5 is older than the move copies.
  ASSERT_TRUE(
      Commit1(2, 7, table_.Update(2, 5, pk1, MakeRow(1, "updated", 0))).ok());
  ASSERT_TRUE(Commit1(3, 7, table_.Delete(3, 5, pk2)).ok());
  EXPECT_EQ((*table_.Get(9, 7, pk1))[1], Value("updated"));
  EXPECT_TRUE(table_.Get(9, 7, pk2).status().IsNotFound());

  // Snapshot 6 is older than txn 2's update and txn 3's delete.
  Status update = table_.Update(4, 6, pk1, MakeRow(1, "late", 0));
  EXPECT_TRUE(update.IsAborted()) << update.ToString();
  EXPECT_EQ(update.message(), "write-write conflict");
  Abort(4);
  Status del = table_.Delete(5, 6, pk1);
  EXPECT_TRUE(del.IsAborted()) << del.ToString();
  EXPECT_EQ(del.message(), "write-write conflict");
  Abort(5);
  Status reinsert = table_.Insert(6, 6, MakeRow(2, "late", 0));
  EXPECT_TRUE(reinsert.IsAborted()) << reinsert.ToString();
  Abort(6);
  EXPECT_EQ((*table_.Get(9, kTsMax, pk1))[1], Value("updated"));
}

TEST_F(RowStoreTest, RowLockBlocksConcurrentWriter) {
  ASSERT_TRUE(Commit1(1, 5, table_.Insert(1, 0, MakeRow(1, "base", 0))).ok());
  // Txn 2 locks the row by updating it, holds the lock (no commit yet).
  ASSERT_TRUE(
      table_.Update(2, 5, {Value(int64_t{1})}, MakeRow(1, "locked", 0)).ok());
  std::atomic<bool> t3_done{false};
  std::thread t3([&] {
    // Blocks on the row lock until txn 2 commits, then hits the
    // write-write conflict (snapshot 5 < txn 2's commit ts 10).
    Status s = table_.Update(3, 5, {Value(int64_t{1})}, MakeRow(1, "late", 0));
    EXPECT_TRUE(s.IsAborted());
    Abort(3);
    t3_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(t3_done.load()) << "writer should still be waiting on the lock";
  Commit(2, 10);
  t3.join();
  EXPECT_EQ((*table_.Get(9, 10, {Value(int64_t{1})}))[1], Value("locked"));
}

// A row-lock wait, with no unique key involved, parks the writer until the
// holder's locks are released and is recorded in s2_lock_wait_ns.
TEST_F(RowStoreTest, RowLockWaitIsRecorded) {
  const uint64_t waits_before = S2_HISTOGRAM("s2_lock_wait_ns").count();
  ASSERT_TRUE(Commit1(1, 5, table_.Insert(1, 0, MakeRow(1, "base", 0))).ok());
  ASSERT_TRUE(
      table_.Update(2, 5, {Value(int64_t{1})}, MakeRow(1, "held", 0)).ok());
  std::thread t3([&] {
    EXPECT_TRUE(table_.Delete(3, 5, {Value(int64_t{1})}).IsAborted());
    Abort(3);
  });
  while (locks_.num_waiting() == 0) std::this_thread::yield();
  Commit(2, 10);
  t3.join();
  EXPECT_EQ(S2_HISTOGRAM("s2_lock_wait_ns").count(), waits_before + 1);
}

// A newly allocated primary key cannot be written by another transaction
// before this one ends, so its insert takes no row lock; a later write of
// the row in the same transaction does.
TEST_F(RowStoreTest, FreshKeyInsertTakesNoRowLock) {
  ASSERT_TRUE(
      table_.Insert(1, 0, MakeRow(1, "fresh", 0), /*fresh_pk=*/true).ok());
  EXPECT_EQ(locks_.num_locked(), 0u);
  ASSERT_TRUE(
      table_.Update(1, 0, {Value(int64_t{1})}, MakeRow(1, "again", 0)).ok());
  EXPECT_EQ(locks_.num_locked(), 1u);
  Commit(1, 5);
  EXPECT_EQ((*table_.Get(9, 5, {Value(int64_t{1})}))[1], Value("again"));
}

TEST_F(RowStoreTest, ScanVisibleInOrder) {
  ASSERT_TRUE(Commit1(1, 5, table_.Insert(1, 0, MakeRow(3, "c", 0))).ok());
  ASSERT_TRUE(Commit1(2, 6, table_.Insert(2, 5, MakeRow(1, "a", 0))).ok());
  ASSERT_TRUE(Commit1(3, 7, table_.Insert(3, 6, MakeRow(2, "b", 0))).ok());
  ASSERT_TRUE(Commit1(4, 8, table_.Delete(4, 7, {Value(int64_t{2})})).ok());

  std::vector<int64_t> ids;
  table_.Scan(9, 8, [&](const Row& row) {
    ids.push_back(row[0].as_int());
    return true;
  });
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 3}));

  // At ts 7 the deleted row is still visible.
  EXPECT_EQ(table_.CountVisible(7), 3u);
  EXPECT_EQ(table_.CountVisible(8), 2u);
  EXPECT_EQ(table_.CountVisible(4), 0u);
}

TEST_F(RowStoreTest, SecondaryIndexSeek) {
  RowStoreTable table(TestSchema(), {0}, &locks_, &horizon_);
  table.AddSecondaryIndex({1});  // by name
  ASSERT_TRUE(table.Insert(1, 0, MakeRow(1, "bob", 1)).ok());
  ASSERT_TRUE(table.Insert(1, 0, MakeRow(2, "alice", 2)).ok());
  ASSERT_TRUE(table.Insert(1, 0, MakeRow(3, "bob", 3)).ok());
  Commit(&table, 1, 5);

  std::vector<int64_t> ids;
  ASSERT_TRUE(table
                  .Lookup(9, 5, {1}, {Value("bob")},
                             [&](const Row& row) {
                               ids.push_back(row[0].as_int());
                               return true;
                             })
                  .ok());
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 3}));

  // Update moves id=1 from bob to carol: index reflects it.
  ASSERT_TRUE(table.Update(2, 5, {Value(int64_t{1})}, MakeRow(1, "carol", 1)).ok());
  Commit(&table, 2, 6);
  ids.clear();
  ASSERT_TRUE(table
                  .Lookup(9, 6, {1}, {Value("bob")},
                             [&](const Row& row) {
                               ids.push_back(row[0].as_int());
                               return true;
                             })
                  .ok());
  EXPECT_EQ(ids, (std::vector<int64_t>{3}));
  ids.clear();
  ASSERT_TRUE(table
                  .Lookup(9, 6, {1}, {Value("carol")},
                             [&](const Row& row) {
                               ids.push_back(row[0].as_int());
                               return true;
                             })
                  .ok());
  EXPECT_EQ(ids, (std::vector<int64_t>{1}));
}

// A lookup on an index's leading columns seeks that index. An update that
// moves a row to another key leaves its old entry behind; the row is still
// yielded once, through its current entry. A column list that no index
// leads with scans the table instead and finds the same rows.
TEST_F(RowStoreTest, SecondaryIndexPrefixSeek) {
  RowStoreTable table(TestSchema(), {0}, &locks_, &horizon_);
  table.AddSecondaryIndex({1, 2});  // by (name, score)
  ASSERT_TRUE(table.Insert(1, 0, MakeRow(1, "bob", 1)).ok());
  ASSERT_TRUE(table.Insert(1, 0, MakeRow(2, "bob", 2)).ok());
  ASSERT_TRUE(table.Insert(1, 0, MakeRow(3, "bobby", 3)).ok());
  Commit(&table, 1, 5);
  ASSERT_TRUE(
      table.Update(2, 5, {Value(int64_t{1})}, MakeRow(1, "bob", 9)).ok());
  Commit(&table, 2, 6);

  auto lookup = [&](const std::vector<int>& cols, const Row& key,
                    Timestamp ts) {
    std::vector<int64_t> ids;
    EXPECT_TRUE(table
                    .Lookup(9, ts, cols, key,
                            [&](const Row& row) {
                              ids.push_back(row[0].as_int());
                              return true;
                            })
                    .ok());
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  Counter& scans = S2_COUNTER("s2_rowstore_scan_lookups_total");
  const uint64_t scans_before = scans.value();
  EXPECT_EQ(lookup({1}, {Value("bob")}, 6), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(lookup({1}, {Value("bob")}, 5), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(lookup({1, 2}, {Value("bob"), Value(9.0)}, 6),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(lookup({1, 2}, {Value("bob"), Value(1.0)}, 6),
            (std::vector<int64_t>{}));
  EXPECT_EQ(lookup({1, 2}, {Value("bob"), Value(1.0)}, 5),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(lookup({}, {}, 6), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(scans.value(), scans_before) << "every lookup above seeks";

  EXPECT_EQ(lookup({2}, {Value(9.0)}, 6), (std::vector<int64_t>{1}));
  EXPECT_EQ(lookup({2}, {Value(9.0)}, 5), (std::vector<int64_t>{}));
  EXPECT_EQ(lookup({2, 1}, {Value(2.0), Value("bob")}, 6),
            (std::vector<int64_t>{2}));
  EXPECT_EQ(scans.value(), scans_before + 3);
  EXPECT_TRUE(table
                  .Lookup(9, 6, {1}, {Value("bob"), Value(1.0)},
                          [](const Row&) { return true; })
                  .IsInvalidArgument());
}

// An update that keeps a row's index key adds no entry; one that changes it
// adds one, and the row is yielded once, through its current entry, at every
// snapshot. A delete and re-insert of the row under an old key (the way a
// replica replays an update) reuses that key's entry. Keys match by their
// encoding: -0.0 is another key than 0.0.
TEST_F(RowStoreTest, UnchangedIndexKeyAddsNoEntry) {
  RowStoreTable table(TestSchema(), {0}, &locks_, &horizon_);
  table.AddSecondaryIndex({1});     // by name
  table.AddSecondaryIndex({1, 2});  // by (name, score)
  const Row pk = {Value(int64_t{1})};
  auto seek = [&](const std::vector<int>& cols, const Row& key, Timestamp ts) {
    std::vector<double> scores;
    EXPECT_TRUE(table
                    .Lookup(9, ts, cols, key,
                            [&](const Row& row) {
                              scores.push_back(row[2].as_double());
                              return true;
                            })
                    .ok());
    return scores;
  };
  ASSERT_TRUE(table.Insert(1, 0, MakeRow(1, "bob", 1)).ok());
  Commit(&table, 1, 5);
  ASSERT_TRUE(table.Update(2, 5, pk, MakeRow(1, "bob", 2)).ok());
  Commit(&table, 2, 6);
  EXPECT_EQ(table.num_index_nodes({1}), 1u);
  EXPECT_EQ(table.num_index_nodes({1, 2}), 2u);
  EXPECT_EQ(seek({1}, {Value("bob")}, 5), (std::vector<double>{1}));
  EXPECT_EQ(seek({1}, {Value("bob")}, 6), (std::vector<double>{2}));

  ASSERT_TRUE(table.Update(3, 6, pk, MakeRow(1, "carl", 2)).ok());
  Commit(&table, 3, 7);
  EXPECT_EQ(table.num_index_nodes({1}), 2u);
  EXPECT_EQ(seek({1}, {Value("bob")}, 7), (std::vector<double>{}));
  EXPECT_EQ(seek({1}, {Value("carl")}, 7), (std::vector<double>{2}));
  EXPECT_EQ(seek({1}, {Value("bob")}, 6), (std::vector<double>{2}));
  EXPECT_EQ(seek({}, {}, 7), (std::vector<double>{2}));

  ASSERT_TRUE(table.Delete(4, 7, pk).ok());
  ASSERT_TRUE(table.Insert(4, 7, MakeRow(1, "carl", 3)).ok());
  Commit(&table, 4, 8);
  ASSERT_TRUE(table.Update(5, 8, pk, MakeRow(1, "bob", 2)).ok());
  Commit(&table, 5, 9);
  EXPECT_EQ(table.num_index_nodes({1}), 2u);
  EXPECT_EQ(table.num_index_nodes({1, 2}), 4u);
  EXPECT_EQ(seek({1}, {Value("carl")}, 8), (std::vector<double>{3}));
  EXPECT_EQ(seek({}, {}, 9), (std::vector<double>{2}));
  EXPECT_EQ(seek({1, 2}, {Value("bob"), Value(2.0)}, 9), (std::vector<double>{2}));

  ASSERT_TRUE(table.Update(6, 9, pk, MakeRow(1, "bob", 0.0)).ok());
  Commit(&table, 6, 10);
  ASSERT_TRUE(table.Update(7, 10, pk, MakeRow(1, "bob", -0.0)).ok());
  Commit(&table, 7, 11);
  EXPECT_EQ(table.num_index_nodes({1, 2}), 6u);
  EXPECT_EQ(seek({1, 2}, {Value("bob"), Value(-0.0)}, 11).size(), 1u);
  EXPECT_EQ(seek({1, 2}, {Value("bob"), Value(0.0)}, 11).size(), 0u);
}

// CommitTxn stamps the versions the transaction wrote, all of them and no
// others: two writes of one row both commit, and an aborted version between
// two commits keeps its abort stamp.
TEST_F(RowStoreTest, CommitStampsExactlyTheTxnsVersions) {
  const Row pk = {Value(int64_t{1})};
  ASSERT_TRUE(Commit1(1, 5, table_.Insert(1, 0, MakeRow(1, "v1", 0))).ok());
  ASSERT_TRUE(table_.Update(2, 5, pk, MakeRow(1, "v2", 0)).ok());
  ASSERT_TRUE(table_.Update(2, 5, pk, MakeRow(1, "v3", 0)).ok());
  Commit(2, 8);
  EXPECT_EQ(table_.VersionStamps(pk), (std::vector<Timestamp>{8, 8, 5}));

  ASSERT_TRUE(table_.Update(3, 8, pk, MakeRow(1, "doomed", 0)).ok());
  Abort(3);
  ASSERT_TRUE(Commit1(4, 9, table_.Update(4, 8, pk, MakeRow(1, "v4", 0))).ok());
  EXPECT_EQ(table_.VersionStamps(pk),
            (std::vector<Timestamp>{9, kTsAborted, 8, 8, 5}));
  EXPECT_EQ((*table_.Get(99, 8, pk))[1], Value("v3"));
  EXPECT_EQ((*table_.Get(99, 9, pk))[1], Value("v4"));
}

// A write frees the versions below its chain's anchor, so a hot row's chain
// stays short while the horizon keeps up with the commits.
TEST_F(RowStoreTest, WritePrunesChainBelowHorizon) {
  const Row pk = {Value(int64_t{1})};
  ASSERT_TRUE(Commit1(1, 1, table_.Insert(1, 0, MakeRow(1, "v", 0))).ok());
  for (Timestamp ts = 1; ts <= 1000; ++ts) {
    horizon_.store(ts);  // no snapshot older than the last commit
    TxnId txn = 100 + ts;
    ASSERT_TRUE(Commit1(txn, ts + 1,
                        table_.Update(txn, ts, pk, MakeRow(1, "v", ts)))
                    .ok());
    ASSERT_LE(table_.VersionStamps(pk).size(), 2u) << ts;
  }
  EXPECT_EQ((*table_.Get(9, 1001, pk))[2], Value(1000.0));
}

// A snapshot that pins the horizon keeps its version readable however many
// writes prune the chain after it; once it ends, one write trims the chain.
TEST_F(RowStoreTest, PinnedSnapshotKeepsItsVersion) {
  const Row pk = {Value(int64_t{1})};
  ASSERT_TRUE(Commit1(1, 1, table_.Insert(1, 0, MakeRow(1, "first", 0))).ok());
  horizon_.store(1);  // a snapshot at ts 1 stays active
  for (Timestamp ts = 1; ts <= 1000; ++ts) {
    TxnId txn = 100 + ts;
    ASSERT_TRUE(Commit1(txn, ts + 1,
                        table_.Update(txn, ts, pk, MakeRow(1, "later", ts)))
                    .ok());
  }
  EXPECT_EQ(table_.VersionStamps(pk).size(), 1001u);
  EXPECT_EQ((*table_.Get(9, 1, pk))[1], Value("first"));

  horizon_.store(1001);  // the snapshot ended
  ASSERT_TRUE(
      Commit1(2000, 1002, table_.Update(2000, 1001, pk, MakeRow(1, "x", 0)))
          .ok());
  EXPECT_EQ(table_.VersionStamps(pk), (std::vector<Timestamp>{1002, 1001}));
}

TEST_F(RowStoreTest, PurgeRemovesDeadRowsAndOldVersions) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table_.Insert(1, 0, MakeRow(i, "row", 0)).ok());
  }
  Commit(1, 5);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table_.Delete(2, 5, {Value(int64_t{i})}).ok());
  }
  Commit(2, 6);
  EXPECT_EQ(table_.num_nodes(), 10u);
  size_t purged = table_.Purge(/*oldest_active=*/7);
  EXPECT_EQ(purged, 5u);
  EXPECT_EQ(table_.num_nodes(), 5u);
  EXPECT_EQ(table_.CountVisible(7), 5u);
}

TEST_F(RowStoreTest, PurgeKeepsRowsVisibleToActiveSnapshots) {
  ASSERT_TRUE(Commit1(1, 5, table_.Insert(1, 0, MakeRow(1, "a", 0))).ok());
  ASSERT_TRUE(Commit1(2, 6, table_.Delete(2, 5, {Value(int64_t{1})})).ok());
  // A snapshot at ts 5 is still active: purge must not remove the row.
  EXPECT_EQ(table_.Purge(/*oldest_active=*/5), 0u);
  EXPECT_TRUE(table_.Get(9, 5, {Value(int64_t{1})}).ok());
}

// Purge rebuilds the secondary indexes from every live version it keeps, not
// only each row's newest one: a snapshot older than a delete or than a
// key-changing update still finds the row through the index.
TEST_F(RowStoreTest, PurgeRebuildKeepsEntriesForOlderSnapshots) {
  RowStoreTable table(TestSchema(), {0}, &locks_, &horizon_);
  table.AddSecondaryIndex({1});  // by name
  ASSERT_TRUE(table.Insert(1, 0, MakeRow(1, "bob", 0)).ok());
  ASSERT_TRUE(table.Insert(1, 0, MakeRow(2, "gone", 0)).ok());
  ASSERT_TRUE(table.Insert(1, 0, MakeRow(3, "carl", 0)).ok());
  Commit(&table, 1, 1);
  ASSERT_TRUE(table.Delete(2, 1, {Value(int64_t{2})}).ok());
  Commit(&table, 2, 2);
  ASSERT_TRUE(table.Delete(3, 2, {Value(int64_t{1})}).ok());
  ASSERT_TRUE(
      table.Update(3, 2, {Value(int64_t{3})}, MakeRow(3, "dave", 0)).ok());
  Commit(&table, 3, 5);
  ASSERT_EQ(table.Purge(/*oldest_active=*/3), 1u) << "row 2 is freed";

  auto seek = [&](const char* name, Timestamp ts) {
    std::vector<int64_t> ids;
    EXPECT_TRUE(table
                    .Lookup(9, ts, {1}, {Value(name)},
                            [&](const Row& row) {
                              ids.push_back(row[0].as_int());
                              return true;
                            })
                    .ok());
    return ids;
  };
  EXPECT_TRUE(table.Get(9, 4, {Value(int64_t{1})}).ok());
  EXPECT_EQ(seek("bob", 4), (std::vector<int64_t>{1}));
  EXPECT_EQ(seek("carl", 4), (std::vector<int64_t>{3}));
  EXPECT_EQ(seek("gone", 4), (std::vector<int64_t>{}));
  EXPECT_EQ(seek("bob", 5), (std::vector<int64_t>{}));
  EXPECT_EQ(seek("carl", 5), (std::vector<int64_t>{}));
  EXPECT_EQ(seek("dave", 5), (std::vector<int64_t>{3}));
}

// Entries point at primary nodes, and Purge frees nodes: seeks over the keys
// of freed rows, before and after a later write, read no freed memory (the
// ASan build checks) and find only the live rows. The re-inserted row is the
// one this thread wrote last before the purge freed its node.
TEST_F(RowStoreTest, SeeksOverPurgedRowsTouchNoFreedNode) {
  RowStoreTable table(TestSchema(), {0}, &locks_, &horizon_);
  table.AddSecondaryIndex({1});
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(table.Insert(1, 0, MakeRow(i, "k" + std::to_string(i % 10), 0))
                    .ok());
  }
  Commit(&table, 1, 1);
  for (int64_t i = 0; i < 200; i += 2) {
    ASSERT_TRUE(table.Delete(2, 1, {Value(i)}).ok());
  }
  Commit(&table, 2, 2);
  ASSERT_EQ(table.Purge(/*oldest_active=*/2), 100u);
  ASSERT_TRUE(table.Insert(3, 2, MakeRow(198, "k1", 0)).ok());
  Commit(&table, 3, 3);

  for (Timestamp ts : {2, 3}) {
    size_t rows = 0;
    for (int k = 0; k < 10; ++k) {
      ASSERT_TRUE(table
                      .Lookup(9, ts, {1}, {Value("k" + std::to_string(k))},
                              [&](const Row& row) {
                                EXPECT_EQ(row[1].as_string(),
                                          "k" + std::to_string(k));
                                ++rows;
                                return true;
                              })
                      .ok());
    }
    EXPECT_EQ(rows, ts == 2 ? 100u : 101u) << ts;
  }
}

TEST_F(RowStoreTest, SnapshotRoundTrip) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        table_.Insert(1, 0, MakeRow(i, "n" + std::to_string(i), i * 0.5)).ok());
  }
  Commit(1, 5);
  ASSERT_TRUE(Commit1(2, 6, table_.Delete(2, 5, {Value(int64_t{50})})).ok());

  std::string snapshot = table_.SerializeSnapshot(6);

  RowStoreTable restored(TestSchema(), {0}, &locks_, &horizon_);
  ASSERT_TRUE(restored.RestoreSnapshot(snapshot, 1).ok());
  EXPECT_EQ(restored.CountVisible(1), 99u);
  EXPECT_TRUE(restored.Get(9, 1, {Value(int64_t{50})}).status().IsNotFound());
  EXPECT_EQ((*restored.Get(9, 1, {Value(int64_t{42})}))[1], Value("n42"));
}

TEST_F(RowStoreTest, ConcurrentDisjointWritersAllCommit) {
  constexpr int kThreads = 8;
  constexpr int kRows = 500;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> next_ts{10};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRows; ++i) {
        TxnId txn = 1000 + t * kRows + i;
        int64_t id = t * kRows + i;
        ASSERT_TRUE(table_.Insert(txn, 0, MakeRow(id, "w", 0)).ok());
        Commit(txn, next_ts.fetch_add(1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(table_.CountVisible(kTsMax), kThreads * kRows);
}

// Seekers race writers that insert rows under one index prefix and move
// earlier rows to other keys under it. A seek at a published commit ts finds
// every row committed at or below it exactly once, also while a new entry is
// linked but does not yet point at its row.
TEST_F(RowStoreTest, ConcurrentSeeksFindEachCommittedRowOnce) {
  RowStoreTable table(TestSchema(), {0}, &locks_, &horizon_);
  table.AddSecondaryIndex({1, 2});  // by (name, score)
  constexpr int kWriters = 2;
  constexpr int kRows = 300;
  std::mutex commit_mu;
  Timestamp next_ts = 1;
  std::atomic<Timestamp> published{0};
  // commit_ts of row id, 0 while uncommitted.
  std::vector<std::atomic<Timestamp>> committed(kWriters * kRows);
  std::atomic<int> writers_done{0};
  auto commit = [&](TxnId txn, int64_t id) {
    std::lock_guard<std::mutex> lock(commit_mu);
    const Timestamp ts = next_ts++;
    Commit(&table, txn, ts);
    if (id >= 0) committed[id].store(ts);
    published.store(ts);
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // A failed ASSERT returns from the inner lambda only, so the seekers
      // still see this writer done and stop.
      [&] {
        for (int i = 0; i < kRows; ++i) {
          const int64_t id = w * kRows + i;
          const TxnId txn = 1000 + 2 * id;
          ASSERT_TRUE(
              table.Insert(txn, published.load(), MakeRow(id, "p", i)).ok());
          commit(txn, id);
          if (i > 0) {
            // Move the previous row to a new key under the same prefix.
            const TxnId update = txn + 1;
            ASSERT_TRUE(table
                            .Update(update, published.load(), {Value(id - 1)},
                                    MakeRow(id - 1, "p", -i))
                            .ok());
            commit(update, -1);
          }
        }
      }();
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (writers_done.load() < kWriters) {
        const Timestamp ts = published.load();
        std::vector<int64_t> ids;
        ASSERT_TRUE(table
                        .Lookup(1, ts, {1}, {Value("p")},
                                [&](const Row& row) {
                                  ids.push_back(row[0].as_int());
                                  return true;
                                })
                        .ok());
        std::sort(ids.begin(), ids.end());
        std::vector<int64_t> expected;
        for (int64_t id = 0; id < kWriters * kRows; ++id) {
          const Timestamp cts = committed[id].load();
          if (cts != 0 && cts <= ts) expected.push_back(id);
        }
        ASSERT_EQ(ids, expected) << "at ts " << ts;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(table.CountVisible(kTsMax), size_t{kWriters * kRows});
}

TEST_F(RowStoreTest, ConcurrentConflictingWritersOneKeyEachValueWins) {
  // Many txns race on a single key with immediate commit; exactly one
  // insert succeeds, the rest see AlreadyExists or Aborted.
  constexpr int kThreads = 8;
  std::atomic<int> successes{0};
  std::atomic<uint64_t> next_ts{10};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxnId txn = 77 + t;
      Status s = table_.Insert(txn, 0, MakeRow(1, "winner", t));
      if (s.ok()) {
        Commit(txn, next_ts.fetch_add(1));
        successes.fetch_add(1);
      } else {
        Abort(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(successes.load(), 1);
  EXPECT_EQ(table_.CountVisible(kTsMax), 1u);
}

}  // namespace
}  // namespace s2
