#include <gtest/gtest.h>

#include "segment_state.h"
#include "test_util.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "blob/blob_store.h"
#include "common/coding.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "storage/partition.h"
#include "storage/unified_table.h"

namespace s2 {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"tag", DataType::kString},
                 {"amount", DataType::kDouble}});
}

Row MakeRow(int64_t id, std::string tag, double amount) {
  return Row{Value(id), Value(std::move(tag)), Value(amount)};
}

TableOptions SmallTableOptions() {
  TableOptions opts;
  opts.schema = TestSchema();
  opts.sort_key = {0};
  opts.indexes = {{0}, {1}};
  opts.unique_key = {0};
  opts.segment_rows = 64;      // tiny segments force multi-segment LSM
  opts.flush_threshold = 64;
  opts.max_sorted_runs = 4;
  return opts;
}

// SmallTableOptions with a two-column unique key, (id, tag): its lookups
// and duplicate checks go through the tuple index.
TableOptions TwoColumnKeyOptions() {
  TableOptions opts = SmallTableOptions();
  opts.indexes = {{0, 1}};
  opts.unique_key = {0, 1};
  return opts;
}

// The two-column key of the row that InsertRange and RaceWithInstalls
// write for `id`.
Row TwoColumnKey(int64_t id) {
  return {Value(id), Value("t" + std::to_string(id % 7))};
}

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("s2-storage");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    Open();
  }

  void TearDown() override {
    partition_.reset();
    (void)RemoveDirRecursive(dir_);
  }

  void Open(Lsn recover_to = 0) {
    PartitionOptions opts;
    opts.dir = dir_;
    opts.blob = &blob_;
    opts.blob_prefix = "part0/";
    opts.background_uploads = false;
    opts.auto_maintain = false;  // tests drive maintenance explicitly
    opts.recover_to_lsn = recover_to;
    partition_ = std::make_unique<Partition>(opts);
    ASSERT_TRUE(partition_->Init().ok());
  }

  void Reopen(Lsn recover_to = 0) {
    partition_.reset();
    Open(recover_to);
  }

  UnifiedTable* MakeTable(const TableOptions& opts = SmallTableOptions()) {
    auto table = partition_->CreateTable("t", opts);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    return *table;
  }

  // Runs a writer txn to completion (commit), asserting success.
  template <typename Fn>
  void Txn(Fn&& fn) {
    auto h = partition_->Begin();
    Status s = fn(h);
    ASSERT_TRUE(s.ok()) << s.ToString();
    Status cs = partition_->Commit(h.id);
    ASSERT_TRUE(cs.ok()) << cs.ToString();
  }

  // Inserts [lo, hi) as single-row committed transactions.
  void InsertRange(UnifiedTable* table, int64_t lo, int64_t hi,
                   const std::string& tag = "t") {
    for (int64_t i = lo; i < hi; ++i) {
      Txn([&](TxnManager::TxnHandle h) {
        return table
            ->InsertRows(h.id, h.read_ts,
                         {MakeRow(i, tag + std::to_string(i % 7), i * 0.5)})
            .status();
      });
    }
  }

  // Collects all visible rows (rowstore + segments) at a fresh snapshot.
  std::vector<Row> VisibleRows(UnifiedTable* table) {
    auto h = partition_->Begin();
    std::vector<Row> out;
    table->ScanRowstore(h.id, h.read_ts,
                        [&](const Row& row, const RowLocation&) {
                          out.push_back(row);
                          return true;
                        });
    auto segments = table->GetSegments(h.read_ts);
    EXPECT_TRUE(segments.ok());
    for (const SegmentSnapshot& snap : *segments) {
      for (uint32_t r = 0; r < snap.segment->num_rows(); ++r) {
        if (snap.deletes != nullptr && snap.deletes->Get(r)) continue;
        auto row = snap.segment->ReadRow(r);
        EXPECT_TRUE(row.ok());
        out.push_back(*row);
      }
    }
    partition_->EndRead(h.id);
    return out;
  }

  // VisibleRows keyed by the first column.
  std::map<int64_t, Row> AllRows(UnifiedTable* table) {
    std::map<int64_t, Row> out;
    for (Row& row : VisibleRows(table)) out[row[0].as_int()] = std::move(row);
    return out;
  }

  // Rows a latest-state lookup on `cols` returns, with their locations.
  std::vector<std::pair<Row, RowLocation>> LookupLatest(
      UnifiedTable* table, const std::vector<int>& cols, const Row& key) {
    auto h = partition_->Begin();
    std::vector<std::pair<Row, RowLocation>> out;
    Status s = table->LookupByIndex(h.id, h.read_ts, cols, key,
                                    [&](const Row& row, const RowLocation& loc) {
                                      out.emplace_back(row, loc);
                                      return true;
                                    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    partition_->EndRead(h.id);
    return out;
  }

  std::string dir_;
  MemBlobStore blob_;
  std::unique_ptr<Partition> partition_;
};

TEST_F(StorageTest, InsertAndLookupViaIndex) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 10);
  auto h = partition_->Begin();
  int found = 0;
  ASSERT_TRUE(table
                  ->LookupByIndex(h.id, h.read_ts, {0}, {Value(int64_t{7})},
                                  [&](const Row& row, const RowLocation&) {
                                    EXPECT_EQ(row[0], Value(int64_t{7}));
                                    ++found;
                                    return true;
                                  })
                  .ok());
  EXPECT_EQ(found, 1);
  partition_->EndRead(h.id);
}

TEST_F(StorageTest, FlushMovesRowsToSegment) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 100);
  EXPECT_EQ(table->RowstoreRows(), 100u);
  EXPECT_EQ(table->NumSegments(), 0u);

  auto flushed = table->FlushRowstore();
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  EXPECT_EQ(*flushed, 64u) << "one segment worth of rows";
  EXPECT_EQ(table->NumSegments(), 1u);

  // All 100 rows still visible, split across rowstore + segment.
  EXPECT_EQ(AllRows(table).size(), 100u);
  // Point lookup still works through the index after flush.
  auto h = partition_->Begin();
  int found = 0;
  ASSERT_TRUE(table
                  ->LookupByIndex(h.id, h.read_ts, {0}, {Value(int64_t{3})},
                                  [&](const Row&, const RowLocation& loc) {
                                    EXPECT_FALSE(loc.in_rowstore);
                                    ++found;
                                    return true;
                                  })
                  .ok());
  EXPECT_EQ(found, 1);
  partition_->EndRead(h.id);
}

// A snapshot older than a flush reads the flushed rows in level 0, where
// their deletes are too new for it; the new segment is not visible to it.
// That holds also after a purge that frees another row rebuilds the level-0
// indexes.
TEST_F(StorageTest, PurgeRebuildKeepsFlushedRowsForOlderSnapshots) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 10);
  Txn([&](TxnManager::TxnHandle h) {
    return table->DeleteByKey(h.id, h.read_ts, {Value(int64_t{9})});
  });
  auto old = partition_->Begin();
  auto flushed = table->FlushRowstore();
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  ASSERT_EQ(*flushed, 9u);
  table->Vacuum(partition_->txns()->oldest_active());

  auto lookup = [&](TxnManager::TxnHandle h, int col, const Value& value) {
    std::vector<std::pair<int64_t, bool>> found;  // id, in level 0
    EXPECT_TRUE(table
                    ->LookupByIndex(h.id, h.read_ts, {col}, {value},
                                    [&](const Row& row,
                                        const RowLocation& loc) {
                                      found.emplace_back(row[0].as_int(),
                                                         loc.in_rowstore);
                                      return true;
                                    })
                    .ok());
    return found;
  };
  using Found = std::vector<std::pair<int64_t, bool>>;
  EXPECT_EQ(lookup(old, 0, Value(int64_t{3})), (Found{{3, true}}));
  EXPECT_EQ(lookup(old, 1, Value("t3")), (Found{{3, true}}));
  EXPECT_EQ(lookup(old, 0, Value(int64_t{9})), Found{});
  partition_->EndRead(old.id);

  auto latest = partition_->Begin();
  EXPECT_EQ(lookup(latest, 0, Value(int64_t{3})), (Found{{3, false}}));
  EXPECT_EQ(lookup(latest, 1, Value("t3")), (Found{{3, false}}));
  partition_->EndRead(latest.id);
}

TEST_F(StorageTest, UniqueKeyRejectsDuplicates) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 5);
  // Duplicate in rowstore.
  auto h = partition_->Begin();
  auto r = table->InsertRows(h.id, h.read_ts, {MakeRow(3, "dup", 0)});
  EXPECT_TRUE(r.status().IsAlreadyExists());
  partition_->Abort(h.id);

  // Duplicate in a segment (after flush).
  ASSERT_TRUE(table->FlushRowstore().ok());
  EXPECT_EQ(table->RowstoreRows(), 0u);
  auto h2 = partition_->Begin();
  auto r2 = table->InsertRows(h2.id, h2.read_ts, {MakeRow(3, "dup", 0)});
  EXPECT_TRUE(r2.status().IsAlreadyExists())
      << "uniqueness must be enforced through the columnstore index";
  partition_->Abort(h2.id);
}

TEST_F(StorageTest, DupPolicies) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 3);
  ASSERT_TRUE(table->FlushRowstore().ok());

  // kSkip: duplicate silently dropped.
  Txn([&](TxnManager::TxnHandle h) {
    auto r = table->InsertRows(h.id, h.read_ts,
                               {MakeRow(1, "skipped", 9), MakeRow(10, "new", 1)},
                               DupPolicy::kSkip);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(*r, 1u);
    return Status::OK();
  });
  auto rows = AllRows(table);
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_NE(rows[1][1], Value("skipped"));

  // kUpdate: duplicate overwritten in place.
  Txn([&](TxnManager::TxnHandle h) {
    return table
        ->InsertRows(h.id, h.read_ts, {MakeRow(1, "updated", 5)},
                     DupPolicy::kUpdate)
        .status();
  });
  rows = AllRows(table);
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1][1], Value("updated"));

  // kReplace: delete + insert.
  Txn([&](TxnManager::TxnHandle h) {
    return table
        ->InsertRows(h.id, h.read_ts, {MakeRow(2, "replaced", 7)},
                     DupPolicy::kReplace)
        .status();
  });
  rows = AllRows(table);
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[2][1], Value("replaced"));
}

TEST_F(StorageTest, DeleteFromSegmentViaMoveTransaction) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 64);
  ASSERT_TRUE(table->FlushRowstore().ok());
  ASSERT_EQ(table->NumSegments(), 1u);
  uint64_t moves_before = table->stats().rows_moved.load();

  Txn([&](TxnManager::TxnHandle h) {
    return table->DeleteByKey(h.id, h.read_ts, {Value(int64_t{10})});
  });
  EXPECT_EQ(table->stats().rows_moved.load(), moves_before + 1)
      << "segment delete goes through a move transaction";
  auto rows = AllRows(table);
  EXPECT_EQ(rows.size(), 63u);
  EXPECT_EQ(rows.count(10), 0u);
  // The data file itself is immutable: only metadata changed.
  EXPECT_EQ(table->NumSegments(), 1u);
}

TEST_F(StorageTest, UpdateSegmentRowPreservesSnapshot) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 64);
  ASSERT_TRUE(table->FlushRowstore().ok());

  // Take a snapshot before the update.
  auto old_snap = partition_->Begin();

  Txn([&](TxnManager::TxnHandle h) {
    return table->UpdateByKey(h.id, h.read_ts, {Value(int64_t{5})},
                              MakeRow(5, "updated", 99));
  });

  // New snapshot sees the update; old snapshot still sees the original.
  auto rows = AllRows(table);
  EXPECT_EQ(rows[5][1], Value("updated"));

  std::map<int64_t, Row> old_rows;
  table->ScanRowstore(old_snap.id, old_snap.read_ts,
                      [&](const Row& row, const RowLocation&) {
                        old_rows[row[0].as_int()] = row;
                        return true;
                      });
  auto segments = table->GetSegments(old_snap.read_ts);
  ASSERT_TRUE(segments.ok());
  for (const SegmentSnapshot& snap : *segments) {
    for (uint32_t r = 0; r < snap.segment->num_rows(); ++r) {
      if (snap.deletes != nullptr && snap.deletes->Get(r)) continue;
      old_rows[(*snap.segment->ReadRow(r))[0].as_int()] =
          *snap.segment->ReadRow(r);
    }
  }
  EXPECT_EQ(old_rows[5][1], Value("t5")) << "old snapshot must not see the "
                                            "update (delete-vector MVCC)";
  EXPECT_EQ(old_rows.size(), 64u);
  partition_->EndRead(old_snap.id);
}

TEST_F(StorageTest, MergeCompactsRunsAndDropsDeletes) {
  UnifiedTable* table = MakeTable();
  // Build several runs via repeated flushes.
  for (int batch = 0; batch < 6; ++batch) {
    InsertRange(table, batch * 64, (batch + 1) * 64);
    ASSERT_TRUE(table->FlushRowstore().ok());
  }
  EXPECT_EQ(table->NumSegments(), 6u);
  // Delete some rows (they live in segments).
  for (int64_t id : {1, 65, 130, 200}) {
    Txn([&](TxnManager::TxnHandle h) {
      return table->DeleteByKey(h.id, h.read_ts, {Value(id)});
    });
  }
  auto merged = table->MaybeMergeRuns();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(*merged);

  auto rows = AllRows(table);
  EXPECT_EQ(rows.size(), 6 * 64 - 4u);
  for (int64_t id : {1, 65, 130, 200}) EXPECT_EQ(rows.count(id), 0u);
  // Index lookups still resolve to the new segments.
  auto h = partition_->Begin();
  int found = 0;
  ASSERT_TRUE(table
                  ->LookupByIndex(h.id, h.read_ts, {0}, {Value(int64_t{100})},
                                  [&](const Row&, const RowLocation&) {
                                    ++found;
                                    return true;
                                  })
                  .ok());
  EXPECT_EQ(found, 1);
  partition_->EndRead(h.id);
}

TEST_F(StorageTest, DeleteDuringMergeIsRemapped) {
  // Deletes committed between the merge's scan and its install must land
  // in the new segments (Section 4.2 reconciliation). We simulate by
  // deleting from another thread while the merge runs; since the merge is
  // fast we also re-check correctness when the delete happens right
  // before/after. The invariant: no deleted row ever resurfaces.
  UnifiedTable* table = MakeTable();
  for (int batch = 0; batch < 6; ++batch) {
    InsertRange(table, batch * 64, (batch + 1) * 64);
    ASSERT_TRUE(table->FlushRowstore().ok());
  }
  std::thread deleter([&] {
    for (int64_t id = 0; id < 40; ++id) {
      auto h = partition_->Begin();
      Status s = table->DeleteByKey(h.id, h.read_ts, {Value(id)});
      if (s.ok()) {
        (void)partition_->Commit(h.id);
      } else {
        partition_->Abort(h.id);
      }
    }
  });
  (void)*table->MaybeMergeRuns();
  deleter.join();
  // Retry any deletes that aborted due to the merge race.
  for (int64_t id = 0; id < 40; ++id) {
    auto h = partition_->Begin();
    Status s = table->DeleteByKey(h.id, h.read_ts, {Value(id)});
    if (s.ok()) {
      ASSERT_TRUE(partition_->Commit(h.id).ok());
    } else {
      partition_->Abort(h.id);
      EXPECT_TRUE(s.IsNotFound() || s.IsAborted()) << s.ToString();
    }
  }
  auto rows = AllRows(table);
  EXPECT_EQ(rows.size(), 6 * 64 - 40u);
  for (int64_t id = 0; id < 40; ++id) {
    EXPECT_EQ(rows.count(id), 0u) << "deleted row " << id << " resurfaced";
  }
}

TEST_F(StorageTest, AbortRollsBackAcrossStores) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 64);
  ASSERT_TRUE(table->FlushRowstore().ok());

  auto h = partition_->Begin();
  ASSERT_TRUE(table->DeleteByKey(h.id, h.read_ts, {Value(int64_t{5})}).ok());
  ASSERT_TRUE(
      table->InsertRows(h.id, h.read_ts, {MakeRow(100, "x", 1)}).ok());
  partition_->Abort(h.id);

  auto rows = AllRows(table);
  EXPECT_EQ(rows.size(), 64u);
  EXPECT_EQ(rows.count(5), 1u) << "aborted delete must not stick";
  EXPECT_EQ(rows.count(100), 0u) << "aborted insert must not stick";
}

TEST_F(StorageTest, CommitNeverWritesToBlob) {
  UnifiedTable* table = MakeTable();
  uint64_t puts_before = blob_.stats().puts.load();
  InsertRange(table, 0, 50);
  EXPECT_EQ(blob_.stats().puts.load(), puts_before)
      << "commit path must not touch the blob store (Section 3.1)";
  // Uploads happen asynchronously/explicitly.
  ASSERT_TRUE(table->FlushRowstore().ok());
  ASSERT_TRUE(partition_->UploadToBlob().ok());
  EXPECT_GT(blob_.stats().puts.load(), puts_before);
}

TEST_F(StorageTest, RecoveryReplaysLog) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 100);
  ASSERT_TRUE(table->FlushRowstore().ok());
  Txn([&](TxnManager::TxnHandle h) {
    return table->DeleteByKey(h.id, h.read_ts, {Value(int64_t{7})});
  });
  Txn([&](TxnManager::TxnHandle h) {
    return table->UpdateByKey(h.id, h.read_ts, {Value(int64_t{8})},
                              MakeRow(8, "updated", 1));
  });
  auto before = AllRows(table);

  Reopen();
  auto recovered = partition_->GetTable("t");
  ASSERT_TRUE(recovered.ok());
  auto after = AllRows(*recovered);
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [id, row] : before) {
    ASSERT_EQ(after.count(id), 1u) << id;
    EXPECT_EQ(after[id], row) << id;
  }
  EXPECT_EQ(after[8][1], Value("updated"));
  EXPECT_EQ(after.count(7), 0u);
  // Indexes were rebuilt: point lookup works.
  auto h = partition_->Begin();
  int found = 0;
  ASSERT_TRUE((*recovered)
                  ->LookupByIndex(h.id, h.read_ts, {0}, {Value(int64_t{42})},
                                  [&](const Row&, const RowLocation&) {
                                    ++found;
                                    return true;
                                  })
                  .ok());
  EXPECT_EQ(found, 1);
  partition_->EndRead(h.id);
}

TEST_F(StorageTest, UncommittedTxnNotRecovered) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 10);
  // Leave a transaction uncommitted at "crash" time.
  auto h = partition_->Begin();
  ASSERT_TRUE(table->InsertRows(h.id, h.read_ts, {MakeRow(99, "x", 0)}).ok());
  // Note: its records may sit in the unsealed log page or be sealed by
  // later commits; either way replay must not apply them without a commit
  // marker.
  Reopen();
  auto recovered = partition_->GetTable("t");
  auto rows = AllRows(*recovered);
  EXPECT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.count(99), 0u);
}

TEST_F(StorageTest, SnapshotShortensRecovery) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 100);
  ASSERT_TRUE(table->FlushRowstore().ok());
  ASSERT_TRUE(partition_->WriteSnapshot().ok());
  InsertRange(table, 100, 120);

  Reopen();
  auto recovered = partition_->GetTable("t");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(AllRows(*recovered).size(), 120u)
      << "snapshot + tail replay must equal full state";
}

TEST_F(StorageTest, PointInTimeRestore) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 50);
  Lsn checkpoint = partition_->log()->durable_lsn();
  InsertRange(table, 50, 80);
  Txn([&](TxnManager::TxnHandle h) {
    return table->DeleteByKey(h.id, h.read_ts, {Value(int64_t{3})});
  });

  // Restore to the LSN captured mid-history.
  Reopen(checkpoint);
  auto restored = partition_->GetTable("t");
  ASSERT_TRUE(restored.ok());
  auto rows = AllRows(*restored);
  EXPECT_EQ(rows.size(), 50u) << "PITR returns the state as of the target";
  EXPECT_EQ(rows.count(3), 1u) << "later delete undone by PITR";
  EXPECT_EQ(rows.count(60), 0u);
}

TEST_F(StorageTest, ColdReadThroughBlobAfterEviction) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 64);
  ASSERT_TRUE(table->FlushRowstore().ok());
  ASSERT_TRUE(partition_->UploadToBlob().ok());

  // Drop every local copy; reads must fall through to blob.
  Reopen();
  auto recovered = partition_->GetTable("t");
  // Remove local files dir to simulate full local cache loss.
  // (Reopen already reloaded from local; force the blob path instead by
  // evicting.)
  partition_->files()->EvictCold();
  auto rows = AllRows(*recovered);
  EXPECT_EQ(rows.size(), 64u);
}

// A replayed transaction whose second op fails rolls back the first: its
// staged row, the row lock and its snapshot would otherwise leak, so the
// next apply of the same row would wait out the lock timeout.
TEST_F(StorageTest, FailedReplayRollsBackItsTxn) {
  UnifiedTable* table = MakeTable();
  auto insert_pk7 = [](const std::string& table_name) {
    std::string payload;
    PutLengthPrefixed(&payload, table_name);
    payload.push_back(0);  // flags: user rows
    PutVarint64(&payload, 1);
    Row full = MakeRow(7, "seven", 7.0);
    full.emplace_back(int64_t{7});  // $rowid
    for (const Value& v : full) v.EncodeTo(&payload);
    return std::make_pair(LogRecordType::kInsertRows, payload);
  };
  EXPECT_FALSE(
      partition_->ApplyReplicated({insert_pk7("t"), insert_pk7("missing")})
          .ok());
  const Timestamp oldest_before = partition_->txns()->oldest_active();
  auto start = std::chrono::steady_clock::now();
  Status s = partition_->ApplyReplicated({insert_pk7("t")});
  auto took = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_LT(took, std::chrono::milliseconds(100));
  EXPECT_GT(partition_->txns()->oldest_active(), oldest_before);
  EXPECT_EQ(AllRows(table).size(), 1u);
}

TEST_F(StorageTest, WriteWriteConflictOnSameKeyAborts) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 64);
  ASSERT_TRUE(table->FlushRowstore().ok());

  auto h1 = partition_->Begin();
  auto h2 = partition_->Begin();
  ASSERT_TRUE(table->UpdateByKey(h1.id, h1.read_ts, {Value(int64_t{5})},
                                 MakeRow(5, "w1", 0))
                  .ok());
  ASSERT_TRUE(partition_->Commit(h1.id).ok());
  // h2's snapshot predates h1's commit: must abort.
  Status s = table->UpdateByKey(h2.id, h2.read_ts, {Value(int64_t{5})},
                                MakeRow(5, "w2", 0));
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  partition_->Abort(h2.id);
  EXPECT_EQ(AllRows(table)[5][1], Value("w1"));
}

TEST_F(StorageTest, ConcurrentWorkloadModelCheck) {
  // Random inserts/deletes/updates from several threads with retries,
  // model-checked against a mutex-protected std::map at the end.
  TableOptions opts = SmallTableOptions();
  opts.segment_rows = 32;
  opts.flush_threshold = 32;
  UnifiedTable* table = MakeTable(opts);

  std::mutex model_mu;
  std::map<int64_t, std::string> model;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 150;
  const uint64_t seed = TestSeed(1000);
  SCOPED_TRACE("S2_TEST_SEED=" + std::to_string(seed));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        int64_t id = static_cast<int64_t>(rng.Uniform(50));
        std::string tag = "v" + std::to_string(rng.Uniform(1000));
        int op = static_cast<int>(rng.Uniform(3));
        auto h = partition_->Begin();
        // Hold the model lock through commit so model order matches commit
        // order.
        std::unique_lock<std::mutex> model_lock(model_mu);
        Status s;
        if (op == 0) {
          s = table->InsertRows(h.id, h.read_ts, {MakeRow(id, tag, 1.0)})
                  .status();
          if (s.ok()) s = partition_->Commit(h.id);
          if (s.ok()) model[id] = tag;
        } else if (op == 1) {
          s = table->DeleteByKey(h.id, h.read_ts, {Value(id)});
          if (s.ok()) s = partition_->Commit(h.id);
          if (s.ok()) model.erase(id);
        } else {
          s = table->UpdateByKey(h.id, h.read_ts, {Value(id)},
                                 MakeRow(id, tag, 2.0));
          if (s.ok()) s = partition_->Commit(h.id);
          if (s.ok()) model[id] = tag;
        }
        if (!s.ok()) {
          model_lock.unlock();
          partition_->Abort(h.id);
        }
        // Occasional maintenance from a worker thread.
        if (i % 40 == 39 && t == 0) {
          (void)table->FlushRowstore();
          (void)table->MaybeMergeRuns();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  (void)*table->FlushRowstore();
  (void)*table->MaybeMergeRuns();

  auto rows = AllRows(table);
  ASSERT_EQ(rows.size(), model.size());
  for (const auto& [id, tag] : model) {
    ASSERT_EQ(rows.count(id), 1u) << id;
    EXPECT_EQ(rows[id][1], Value(tag)) << id;
  }
}

TEST_F(StorageTest, RecoveryAfterMergePreservesData) {
  UnifiedTable* table = MakeTable();
  for (int batch = 0; batch < 6; ++batch) {
    InsertRange(table, batch * 64, (batch + 1) * 64);
    ASSERT_TRUE(table->FlushRowstore().ok());
  }
  ASSERT_TRUE(*table->MaybeMergeRuns());
  auto before = AllRows(table);

  Reopen();
  auto recovered = partition_->GetTable("t");
  auto after = AllRows(*recovered);
  EXPECT_EQ(after.size(), before.size());
}

TEST_F(StorageTest, RecoveryInstallsSegmentChangesLikeTheMaster) {
  // Flushes, move-transaction delete bits and a merge, installed live by
  // the master, must leave the same segments, runs and index answers when
  // recovery replays them from the log.
  UnifiedTable* table = MakeTable();
  for (int batch = 0; batch < 6; ++batch) {
    InsertRange(table, batch * 64, (batch + 1) * 64);
    ASSERT_TRUE(table->FlushRowstore().ok());
  }
  const std::vector<int64_t> deleted_before = {1, 65, 130, 200};
  const std::vector<int64_t> deleted_after = {7, 300};
  auto delete_keys = [&](const std::vector<int64_t>& ids) {
    for (int64_t id : ids) {
      Txn([&](TxnManager::TxnHandle h) {
        return table->DeleteByKey(h.id, h.read_ts, {Value(id)});
      });
    }
  };
  delete_keys(deleted_before);
  auto merged = table->MaybeMergeRuns();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_TRUE(*merged);
  delete_keys(deleted_after);

  std::vector<int64_t> keys = deleted_before;
  keys.insert(keys.end(), deleted_after.begin(), deleted_after.end());
  keys.push_back(100);  // survives in a segment
  SegmentState live = CaptureSegmentState(partition_.get(), table, keys,
                                          /*live_only=*/false);
  ASSERT_EQ(live.hits[100].size(), 1u);
  for (int64_t id : deleted_after) EXPECT_TRUE(live.hits[id].empty()) << id;
  bool some_bits = false;
  for (const auto& seg : live.segments) {
    some_bits |= std::get<3>(seg) && std::get<2>(seg) > 0;
  }
  EXPECT_TRUE(some_bits) << "post-merge deletes set bits in live segments";

  Reopen();
  auto recovered = partition_->GetTable("t");
  ASSERT_TRUE(recovered.ok());
  SegmentState replayed = CaptureSegmentState(partition_.get(), *recovered,
                                              keys, /*live_only=*/false);
  EXPECT_EQ(replayed.segments, live.segments);
  EXPECT_EQ(replayed.runs, live.runs);
  EXPECT_EQ(replayed.hits, live.hits);
}

TEST_F(StorageTest, MultiColumnIndexLookup) {
  TableOptions opts;
  opts.schema = TestSchema();
  opts.indexes = {{0, 1}};  // multi-column index on (id, tag)
  opts.segment_rows = 32;
  opts.flush_threshold = 32;
  UnifiedTable* table = MakeTable(opts);
  for (int64_t i = 0; i < 64; ++i) {
    Txn([&](TxnManager::TxnHandle h) {
      return table
          ->InsertRows(h.id, h.read_ts,
                       {MakeRow(i % 8, "tag" + std::to_string(i % 4), i)})
          .status();
    });
  }
  ASSERT_TRUE(table->FlushRowstore().ok());
  ASSERT_TRUE(table->FlushRowstore().ok());

  auto h = partition_->Begin();
  // Full composite lookup.
  int full = 0;
  ASSERT_TRUE(table
                  ->LookupByIndex(h.id, h.read_ts, {0, 1},
                                  {Value(int64_t{1}), Value("tag1")},
                                  [&](const Row& row, const RowLocation&) {
                                    EXPECT_EQ(row[0], Value(int64_t{1}));
                                    EXPECT_EQ(row[1], Value("tag1"));
                                    ++full;
                                    return true;
                                  })
                  .ok());
  EXPECT_EQ(full, 8);
  // Partial match on a single indexed column also works (per-column
  // indexes are shared, Section 4.1.1).
  int partial = 0;
  ASSERT_TRUE(table
                  ->LookupByIndex(h.id, h.read_ts, {1}, {Value("tag2")},
                                  [&](const Row& row, const RowLocation&) {
                                    EXPECT_EQ(row[1], Value("tag2"));
                                    ++partial;
                                    return true;
                                  })
                  .ok());
  EXPECT_EQ(partial, 16);
  partition_->EndRead(h.id);
}

// A lookup on the leading columns of an index seeks level 0 rather than
// scanning it, and returns the rows a scan of the whole table finds: over
// level 0 and segments, after updates and deletes that leave stale rowstore
// index entries behind.
TEST_F(StorageTest, PrefixLookupMatchesScan) {
  TableOptions opts;
  opts.schema = TestSchema();
  opts.indexes = {{0, 1}};
  opts.segment_rows = 32;
  opts.flush_threshold = 32;
  UnifiedTable* tagged = MakeTable(opts);
  TableOptions no_opts;
  no_opts.schema = Schema({{"w", DataType::kInt64},
                           {"d", DataType::kInt64},
                           {"o", DataType::kInt64}});
  no_opts.unique_key = {0, 1, 2};
  no_opts.indexes = {{0, 1, 2}};
  no_opts.segment_rows = 32;
  no_opts.flush_threshold = 32;
  auto created = partition_->CreateTable("neworder", no_opts);
  ASSERT_TRUE(created.ok());
  UnifiedTable* neworder = *created;

  for (int64_t i = 0; i < 64; ++i) {
    Txn([&](TxnManager::TxnHandle h) {
      return tagged
          ->InsertRows(h.id, h.read_ts,
                       {MakeRow(i % 8, "tag" + std::to_string(i % 4), i)})
          .status();
    });
  }
  for (int64_t o = 1; o <= 10; ++o) {
    for (int64_t w = 1; w <= 2; ++w) {
      for (int64_t d = 1; d <= 3; ++d) {
        Txn([&](TxnManager::TxnHandle h) {
          return neworder
              ->InsertRows(h.id, h.read_ts, {{Value(w), Value(d), Value(o)}})
              .status();
        });
      }
    }
  }
  // The oldest 32 rows of each table go to a segment; the rest stay in
  // level 0.
  ASSERT_TRUE(tagged->FlushRowstore().ok());
  ASSERT_TRUE(neworder->FlushRowstore().ok());

  // Retag every id-1 row (some in the segment, some in level 0) and delete
  // the id-2 rows; deliver (delete) the oldest orders and renumber others.
  Txn([&](TxnManager::TxnHandle h) -> Status {
    std::vector<std::pair<Row, RowLocation>> hits;
    for (int64_t id : {1, 2}) {
      S2_RETURN_NOT_OK(tagged->LookupByIndex(
          h.id, h.read_ts, {0}, {Value(id)},
          [&](const Row& row, const RowLocation& loc) {
            hits.emplace_back(row, loc);
            return true;
          }));
    }
    for (auto& [row, loc] : hits) {
      if (row[0] == Value(int64_t{2})) {
        S2_RETURN_NOT_OK(tagged->DeleteLocated(h.id, h.read_ts, loc));
      } else {
        Row retagged = row;
        retagged[1] = Value("moved");
        S2_RETURN_NOT_OK(tagged->UpdateLocated(h.id, h.read_ts, loc, retagged));
      }
    }
    return Status::OK();
  });
  Txn([&](TxnManager::TxnHandle h) -> Status {
    for (int64_t w = 1; w <= 2; ++w) {
      for (int64_t d = 1; d <= 3; ++d) {
        for (int64_t o : {1, 7}) {
          S2_RETURN_NOT_OK(neworder->DeleteByKey(
              h.id, h.read_ts, {Value(w), Value(d), Value(o)}));
        }
        for (int64_t o : {2, 9}) {
          S2_RETURN_NOT_OK(neworder->UpdateByKey(
              h.id, h.read_ts, {Value(w), Value(d), Value(o)},
              {Value(w), Value(d), Value(o + 100)}));
        }
      }
    }
    return Status::OK();
  });

  auto scan_where = [&](UnifiedTable* table, const std::vector<int>& cols,
                        const Row& values) {
    std::vector<Row> out;
    for (Row& row : VisibleRows(table)) {
      bool match = true;
      for (size_t i = 0; i < cols.size(); ++i) {
        match &= row[cols[i]] == values[i];
      }
      if (match) out.push_back(std::move(row));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  auto h = partition_->Begin();
  auto lookup = [&](UnifiedTable* table, const std::vector<int>& cols,
                    const Row& values) {
    std::vector<Row> out;
    EXPECT_TRUE(table
                    ->LookupByIndex(h.id, h.read_ts, cols, values,
                                    [&](const Row& row, const RowLocation&) {
                                      out.push_back(row);
                                      return true;
                                    })
                    .ok());
    std::sort(out.begin(), out.end());
    return out;
  };

  Counter& scans = S2_COUNTER("s2_rowstore_scan_lookups_total");
  const uint64_t scans_before = scans.value();
  for (int64_t id = 0; id < 8; ++id) {
    std::vector<Row> expected = scan_where(tagged, {0}, {Value(id)});
    EXPECT_EQ(lookup(tagged, {0}, {Value(id)}), expected) << "id=" << id;
    EXPECT_EQ(expected.size(), id == 2 ? 0u : 8u) << "id=" << id;
  }
  for (int64_t w = 1; w <= 2; ++w) {
    for (int64_t d = 1; d <= 3; ++d) {
      std::vector<Row> expected =
          scan_where(neworder, {0, 1}, {Value(w), Value(d)});
      EXPECT_EQ(lookup(neworder, {0, 1}, {Value(w), Value(d)}), expected)
          << "w=" << w << " d=" << d;
      EXPECT_EQ(expected.size(), 8u) << "w=" << w << " d=" << d;
    }
  }
  EXPECT_EQ(scans.value(), scans_before) << "prefix lookups seek level 0";

  // A column set that leads no index still scans level 0.
  EXPECT_EQ(lookup(tagged, {1}, {Value("moved")}),
            scan_where(tagged, {1}, {Value("moved")}));
  EXPECT_EQ(scans.value(), scans_before + 1);
  partition_->EndRead(h.id);
}

// A snapshot reads level 0 at a registered snapshot, so no version it reads
// is freed under it: recovering from a snapshot taken while one row is
// updated 10k times (and flushed to segments and moved back now and then)
// finds every row.
TEST_F(StorageTest, SnapshotDuringHotRowUpdatesKeepsEveryRow) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 50);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 10000; ++i) {
      auto h = partition_->Begin();
      Status s = table->UpdateByKey(h.id, h.read_ts, {Value(int64_t{7})},
                                    MakeRow(7, "hot", i));
      if (s.ok()) s = partition_->Commit(h.id);
      if (!s.ok()) {
        partition_->Abort(h.id);
        ADD_FAILURE() << s.ToString();
        break;
      }
      if (i % 1000 == 999) (void)table->FlushRowstore();
    }
    done = true;
  });
  int snapshots = 0;
  while (!done.load()) {
    ASSERT_TRUE(partition_->WriteSnapshot().ok());
    ++snapshots;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writer.join();
  EXPECT_GT(snapshots, 0);

  Reopen();
  auto recovered = partition_->GetTable("t");
  ASSERT_TRUE(recovered.ok());
  auto rows = AllRows(*recovered);
  EXPECT_EQ(rows.size(), 50u);
  EXPECT_EQ(rows[7], MakeRow(7, "hot", 9999));
}

TEST_F(StorageTest, IndexProbeCountStaysLogarithmic) {
  UnifiedTable* table = MakeTable();
  for (int batch = 0; batch < 20; ++batch) {
    InsertRange(table, batch * 64, (batch + 1) * 64);
    ASSERT_TRUE(table->FlushRowstore().ok());
    ASSERT_TRUE(table->MaybeMergeRuns().ok());
  }
  EXPECT_GE(table->NumSegments(), 3u);
  EXPECT_LE(table->IndexProbeTables(0), 9u)
      << "global index LSM keeps probe count O(log N), not O(#segments)";
}

// A snapshot taken before a merge still reads the merged-away segments, so
// its index lookups find their rows. Vacuum drops those segments' global-index
// entries only once no snapshot can read them.
TEST_F(StorageTest, LookupAtSnapshotPinnedBeforeMerge) {
  UnifiedTable* table = MakeTable();
  constexpr int64_t kRows = 5 * 64;
  for (int64_t lo = 0; lo < kRows; lo += 64) {
    InsertRange(table, lo, lo + 64);
    ASSERT_TRUE(table->FlushRowstore().ok());
  }
  auto count = [&](TxnManager::TxnHandle h, int64_t key) {
    int found = 0;
    EXPECT_TRUE(table
                    ->LookupByIndex(h.id, h.read_ts, {0}, {Value(key)},
                                    [&](const Row&, const RowLocation&) {
                                      ++found;
                                      return true;
                                    })
                    .ok());
    return found;
  };
  auto missing_at = [&](TxnManager::TxnHandle h) {
    int missing = 0;
    for (int64_t key = 0; key < kRows; ++key) missing += count(h, key) != 1;
    return missing;
  };

  auto pinned = partition_->Begin();
  auto merged = table->MaybeMergeRuns();
  ASSERT_TRUE(merged.ok() && *merged);
  EXPECT_EQ(missing_at(pinned), 0) << "rows of merged-away segments";
  const size_t tables = table->IndexProbeTables(0);

  table->Vacuum(partition_->txns()->oldest_active());
  EXPECT_EQ(missing_at(pinned), 0) << "vacuum under a pinned snapshot";
  EXPECT_EQ(table->IndexProbeTables(0), tables);

  partition_->EndRead(pinned.id);
  table->Vacuum(partition_->txns()->oldest_active());
  EXPECT_LT(table->IndexProbeTables(0), tables)
      << "vacuum drops the merged-away segments' entries";
  auto latest = partition_->Begin();
  EXPECT_EQ(missing_at(latest), 0);
  partition_->EndRead(latest.id);
}

// A writer inserts 64-row batches, and flushes, merges and vacuums after
// each; `probe` runs on a second thread meanwhile, on keys committed before
// it starts, mostly recent ones (the rows being flushed and merged).
// Returns how many probes failed out of how many ran.
template <typename Probe>
std::pair<int, int> RaceWithInstalls(Partition* partition, UnifiedTable* table,
                                     Probe probe) {
  constexpr int kRounds = 100;
  std::atomic<int64_t> committed{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<Row> batch;
      for (int64_t i = 0; i < 64; ++i) {
        int64_t id = round * 64 + i;
        batch.push_back(MakeRow(id, "t" + std::to_string(id % 7), id * 0.5));
      }
      auto h = partition->Begin();
      Status s = table->InsertRows(h.id, h.read_ts, batch).status();
      if (s.ok()) s = partition->Commit(h.id);
      if (!s.ok()) {
        ADD_FAILURE() << s.ToString();
        break;
      }
      committed = (round + 1) * 64;
      EXPECT_TRUE(table->FlushRowstore().ok());
      EXPECT_TRUE(table->MaybeMergeRuns().ok());
      table->Vacuum(partition->txns()->oldest_active());
    }
    done = true;
  });
  Rng rng(TestSeed(20));
  int failed = 0;
  int probes = 0;
  while (!done.load()) {
    int64_t upto = committed.load();
    if (upto == 0) {
      std::this_thread::yield();
      continue;
    }
    uint64_t back = rng.Uniform(std::min<int64_t>(upto, 256));
    failed += !probe(upto - 1 - static_cast<int64_t>(back));
    ++probes;
  }
  writer.join();
  return {failed, probes};
}

// A latest-state lookup racing flush and merge installs finds every
// committed row: a flush installs its segment before its rows leave level 0,
// and a lookup sees a merge's install entirely or not at all.
TEST_F(StorageTest, LatestLookupsRacingInstallsFindEveryRow) {
  UnifiedTable* table = MakeTable();
  auto [missed, probes] =
      RaceWithInstalls(partition_.get(), table, [&](int64_t key) {
        auto h = partition_->Begin();
        int found = 0;
        Status s = table->LookupByIndex(h.id, kTsMax, {0}, {Value(key)},
                                        [&](const Row&, const RowLocation&) {
                                          ++found;
                                          return true;
                                        });
        partition_->EndRead(h.id);
        return s.ok() && found >= 1;
      });
  EXPECT_EQ(missed, 0) << "of " << probes << " lookups";
  EXPECT_GT(probes, 0);
}

// A unique-key insert racing flush and merge installs never admits a key
// that is already committed.
TEST_F(StorageTest, DuplicateInsertsRacingInstallsAreRejected) {
  UnifiedTable* table = MakeTable();
  auto [admitted, probes] =
      RaceWithInstalls(partition_.get(), table, [&](int64_t key) {
        auto h = partition_->Begin();
        Status s =
            table->InsertRows(h.id, h.read_ts, {MakeRow(key, "dup", 0)})
                .status();
        partition_->Abort(h.id);
        return s.IsAlreadyExists();
      });
  EXPECT_EQ(admitted, 0) << "of " << probes << " inserts";
  EXPECT_GT(probes, 0);
}

// The two races above on a table whose unique key has two columns: the
// lookups and duplicate checks go through the tuple index.
TEST_F(StorageTest, TwoColumnKeyLookupsRacingInstallsFindEveryRow) {
  UnifiedTable* table = MakeTable(TwoColumnKeyOptions());
  auto [missed, probes] =
      RaceWithInstalls(partition_.get(), table, [&](int64_t key) {
        auto h = partition_->Begin();
        int found = 0;
        Status s = table->LookupByIndex(h.id, kTsMax, {0, 1},
                                        TwoColumnKey(key),
                                        [&](const Row&, const RowLocation&) {
                                          ++found;
                                          return true;
                                        });
        partition_->EndRead(h.id);
        return s.ok() && found >= 1;
      });
  EXPECT_EQ(missed, 0) << "of " << probes << " lookups";
  EXPECT_GT(probes, 0);
}

TEST_F(StorageTest, TwoColumnKeyDuplicateInsertsRacingInstallsAreRejected) {
  UnifiedTable* table = MakeTable(TwoColumnKeyOptions());
  auto [admitted, probes] =
      RaceWithInstalls(partition_.get(), table, [&](int64_t key) {
        Row row = TwoColumnKey(key);
        row.push_back(Value(0.0));
        auto h = partition_->Begin();
        Status s = table->InsertRows(h.id, h.read_ts, {row}).status();
        partition_->Abort(h.id);
        return s.IsAlreadyExists();
      });
  EXPECT_EQ(admitted, 0) << "of " << probes << " inserts";
  EXPECT_GT(probes, 0);
}

// A unique-key check needs only a row's location, so a duplicate found in
// a segment reads no row; a lookup reads the one row it returns.
TEST_F(StorageTest, UniqueKeyCheckReadsNoSegmentRow) {
  UnifiedTable* table = MakeTable();
  InsertRange(table, 0, 64);
  ASSERT_TRUE(table->FlushRowstore().ok());
  ASSERT_EQ(table->RowstoreRows(), 0u);
  Counter& rows_read = S2_COUNTER("s2_segment_rows_read_total");

  auto h = partition_->Begin();
  uint64_t before = rows_read.value();
  auto r = table->InsertRows(h.id, h.read_ts, {MakeRow(5, "dup", 0)},
                             DupPolicy::kError);
  EXPECT_TRUE(r.status().IsAlreadyExists());
  EXPECT_EQ(rows_read.value(), before);
  partition_->Abort(h.id);

  auto h2 = partition_->Begin();
  before = rows_read.value();
  std::vector<Row> found;
  ASSERT_TRUE(table
                  ->LookupByIndex(h2.id, h2.read_ts, {0}, {Value(int64_t{5})},
                                  [&](const Row& row, const RowLocation& loc) {
                                    EXPECT_FALSE(loc.in_rowstore);
                                    found.push_back(row);
                                    return true;
                                  })
                  .ok());
  partition_->EndRead(h2.id);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0][0], Value(int64_t{5}));
  EXPECT_EQ(rows_read.value(), before + 1);
}

// The two-column twin of UniqueKeyCheckReadsNoSegmentRow: the duplicate
// check reads no segment row, and a key whose columns match rows only one
// at a time finds nothing.
TEST_F(StorageTest, TwoColumnKeyCheckReadsNoSegmentRow) {
  UnifiedTable* table = MakeTable(TwoColumnKeyOptions());
  InsertRange(table, 0, 64);
  ASSERT_TRUE(table->FlushRowstore().ok());
  ASSERT_EQ(table->RowstoreRows(), 0u);
  Counter& rows_read = S2_COUNTER("s2_segment_rows_read_total");

  auto h = partition_->Begin();
  uint64_t before = rows_read.value();
  auto r = table->InsertRows(h.id, h.read_ts, {MakeRow(5, "t5", 0)},
                             DupPolicy::kError);
  EXPECT_TRUE(r.status().IsAlreadyExists());
  EXPECT_EQ(rows_read.value(), before);
  partition_->Abort(h.id);

  before = rows_read.value();
  auto found = LookupLatest(table, {0, 1}, TwoColumnKey(5));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_FALSE(found[0].second.in_rowstore);
  EXPECT_EQ(found[0].first[0], Value(int64_t{5}));
  EXPECT_EQ(rows_read.value(), before + 1);
  // id 5 and tag "t6" each have rows, but no row has both.
  before = rows_read.value();
  EXPECT_TRUE(
      LookupLatest(table, {0, 1}, {Value(int64_t{5}), Value("t6")}).empty());
  EXPECT_EQ(rows_read.value(), before);
}

// A row that UpdateByKey moved to level 0 is found once by its two-column
// key, before and after the next flush; a deleted row is not found.
TEST_F(StorageTest, TwoColumnKeyFindsMovedRowOnceAndNoDeletedRow) {
  UnifiedTable* table = MakeTable(TwoColumnKeyOptions());
  InsertRange(table, 0, 64);
  ASSERT_TRUE(table->FlushRowstore().ok());
  Txn([&](TxnManager::TxnHandle h) {
    return table->UpdateByKey(h.id, h.read_ts, TwoColumnKey(7),
                              MakeRow(7, "t0", 99.0));
  });
  Txn([&](TxnManager::TxnHandle h) {
    return table->DeleteByKey(h.id, h.read_ts, TwoColumnKey(9));
  });
  ASSERT_GT(table->stats().rows_moved.load(), 0u);

  auto moved = LookupLatest(table, {0, 1}, TwoColumnKey(7));
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_TRUE(moved[0].second.in_rowstore);
  EXPECT_EQ(moved[0].first[2], Value(99.0));
  EXPECT_TRUE(LookupLatest(table, {0, 1}, TwoColumnKey(9)).empty());

  // Refill level 0 and flush, so the moved row's new version lands in a
  // segment next to its deleted old one.
  InsertRange(table, 64, 126);
  ASSERT_TRUE(table->FlushRowstore().ok());
  table->Vacuum(partition_->txns()->oldest_active());
  moved = LookupLatest(table, {0, 1}, TwoColumnKey(7));
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].first[2], Value(99.0));
  EXPECT_TRUE(LookupLatest(table, {0, 1}, TwoColumnKey(9)).empty());
  for (int64_t id : {0, 8, 63, 64, 125}) {
    EXPECT_EQ(LookupLatest(table, {0, 1}, TwoColumnKey(id)).size(), 1u) << id;
  }
}

// A row with a NULL in a tuple's column has no tuple entry, and a lookup
// with a NULL component returns nothing from segments.
TEST_F(StorageTest, TwoColumnLookupWithNullFindsNoSegmentRow) {
  TableOptions opts = SmallTableOptions();
  opts.indexes = {{0, 1}};
  UnifiedTable* table = MakeTable(opts);
  for (int64_t i = 0; i < 64; ++i) {
    Txn([&](TxnManager::TxnHandle h) {
      Row row = MakeRow(i, "x", i * 0.5);
      if (i % 2 == 0) row[1] = Value::Null();
      return table->InsertRows(h.id, h.read_ts, {row}).status();
    });
  }
  ASSERT_TRUE(table->FlushRowstore().ok());
  ASSERT_EQ(table->RowstoreRows(), 0u);
  EXPECT_TRUE(
      LookupLatest(table, {0, 1}, {Value(int64_t{4}), Value::Null()}).empty());
  EXPECT_TRUE(LookupLatest(table, {1}, {Value::Null()}).empty());
  EXPECT_EQ(LookupLatest(table, {0, 1}, {Value(int64_t{5}), Value("x")}).size(),
            1u);
  EXPECT_TRUE(
      LookupLatest(table, {0, 1}, {Value(int64_t{4}), Value("x")}).empty());
}

// After a reopen, the tuple entries are registered from the segment files:
// two-column lookups find every row once and duplicates are rejected.
TEST_F(StorageTest, TwoColumnKeyLookupsAndDuplicateChecksAfterReopen) {
  UnifiedTable* table = MakeTable(TwoColumnKeyOptions());
  for (int64_t lo = 0; lo < 320; lo += 64) {
    InsertRange(table, lo, lo + 64);
    ASSERT_TRUE(table->FlushRowstore().ok());
  }
  ASSERT_TRUE(table->MaybeMergeRuns().ok());
  InsertRange(table, 320, 330);  // some rows stay in level 0
  Reopen();
  auto recovered = partition_->GetTable("t");
  ASSERT_TRUE(recovered.ok());
  table = *recovered;
  ASSERT_GT(table->NumSegments(), 0u);
  for (int64_t id = 0; id < 330; ++id) {
    ASSERT_EQ(LookupLatest(table, {0, 1}, TwoColumnKey(id)).size(), 1u) << id;
  }
  for (int64_t id : {3, 200, 325}) {
    auto h = partition_->Begin();
    Row row = TwoColumnKey(id);
    row.push_back(Value(0.0));
    EXPECT_TRUE(
        table->InsertRows(h.id, h.read_ts, {row}).status().IsAlreadyExists())
        << id;
    partition_->Abort(h.id);
  }
}

// A segment whose LZ column body fails to decompress (outside the footer
// CRC) fails the lookup and the move transaction with Corruption instead
// of handing out, or copying into the rowstore and log, a NULL field.
TEST_F(StorageTest, DamagedSegmentColumnFailsLookupAndMove) {
  UnifiedTable* table = MakeTable();
  std::string payload;
  for (int64_t i = 0; i < 64; ++i) {
    std::string tag = "tag-" + std::to_string(i) + "-" + std::string(90, 'x');
    payload += tag;
    Txn([&](TxnManager::TxnHandle h) {
      return table->InsertRows(h.id, h.read_ts, {MakeRow(i, tag, i * 0.5)})
          .status();
    });
  }
  ASSERT_TRUE(table->FlushRowstore().ok());
  ASSERT_EQ(table->NumSegments(), 1u);
  const std::string path =
      dir_ + "/files/" + table->DebugSegments()[0].file_name;

  partition_.reset();
  auto file = ReadFileToString(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE(ZeroLzBlock(&*file, payload));
  ASSERT_TRUE(WriteFileAtomic(path, *file).ok());
  Open();
  table = *partition_->GetTable("t");
  ASSERT_EQ(table->NumSegments(), 1u);

  auto h = partition_->Begin();
  Status lookup = table->LookupByIndex(
      h.id, h.read_ts, {0}, {Value(int64_t{5})},
      [](const Row&, const RowLocation&) { return true; });
  EXPECT_TRUE(lookup.IsCorruption()) << lookup.ToString();
  partition_->EndRead(h.id);

  const size_t rowstore_rows = table->RowstoreRows();
  auto h2 = partition_->Begin();
  Status del = table->DeleteByKey(h2.id, h2.read_ts, {Value(int64_t{5})});
  EXPECT_TRUE(del.IsCorruption()) << del.ToString();
  partition_->Abort(h2.id);
  EXPECT_EQ(table->stats().rows_moved.load(), 0u);
  EXPECT_EQ(table->RowstoreRows(), rowstore_rows);
  EXPECT_EQ(table->DebugSegments()[0].deleted_rows, 0u);
}

// Holds every segment data-file write until Release(), so a flush stalls
// after it has taken its table's maintenance lock.
class BlockingSegmentWritesEnv : public PosixEnv {
 public:
  Status WriteStringToFile(const std::string& path, const std::string& data,
                           bool sync) override {
    if (path.find("/files/seg_") != std::string::npos) {
      std::unique_lock<std::mutex> lock(mu_);
      ++blocked_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return PosixEnv::WriteStringToFile(path, data, sync);
  }

  void WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ > 0; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int blocked_ = 0;
  bool released_ = false;
};

// Post-commit maintenance runs on one committer of a partition at a time.
// While committer A's flush is stalled writing its segment, committer B,
// whose table is still over its flush threshold, returns from Commit
// instead of waiting for A's flush to finish.
TEST_F(StorageTest, CommitReturnsWhileAnotherCommitterFlushes) {
  BlockingSegmentWritesEnv env;
  PartitionOptions opts;
  opts.dir = dir_ + "/auto";
  opts.background_uploads = false;
  opts.env = &env;
  ASSERT_TRUE(opts.auto_maintain);
  Partition partition(opts);
  ASSERT_TRUE(partition.Init().ok());
  TableOptions topts = SmallTableOptions();
  topts.flush_threshold = 4;
  auto table = partition.CreateTable("t", topts);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto insert_and_commit = [&](int64_t lo, int64_t hi) {
    std::vector<Row> rows;
    for (int64_t i = lo; i < hi; ++i) rows.push_back(MakeRow(i, "t", 0));
    auto h = partition.Begin();
    Status s = (*table)->InsertRows(h.id, h.read_ts, rows).status();
    if (!s.ok()) {
      partition.Abort(h.id);
      return s;
    }
    return partition.Commit(h.id);
  };

  std::thread a([&] { EXPECT_TRUE(insert_and_commit(0, 8).ok()); });
  env.WaitUntilBlocked();
  std::atomic<bool> b_returned{false};
  std::thread b([&] {
    EXPECT_TRUE(insert_and_commit(8, 9).ok());
    b_returned.store(true);
  });
  // Let A's flush go once B has returned, or after 2 s, so that a B that
  // waits for A fails the test instead of hanging it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!b_returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool returned_while_a_flushed = b_returned.load();
  env.Release();
  a.join();
  b.join();
  EXPECT_TRUE(returned_while_a_flushed)
      << "B's commit waited for A's flush";
  EXPECT_GE((*table)->NumSegments(), 1u);
  auto h = partition.Begin();
  for (int64_t id = 0; id < 9; ++id) {
    int found = 0;
    ASSERT_TRUE((*table)
                    ->LookupByIndex(h.id, h.read_ts, {0}, {Value(id)},
                                    [&](const Row&, const RowLocation&) {
                                      ++found;
                                      return true;
                                    })
                    .ok());
    EXPECT_EQ(found, 1) << "id=" << id;
  }
  partition.EndRead(h.id);
}

}  // namespace
}  // namespace s2
