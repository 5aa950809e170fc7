// Crash-recovery torture harness: a randomized OLTP + maintenance workload
// runs against a partition whose filesystem is a FaultInjectionEnv; at each
// enumerated failpoint a fault fires (IO error, torn write, dropped sync,
// frozen process), the partition "crashes" (destroyed, optionally with
// unsynced data dropped to simulate power loss), recovery itself is crashed
// twice mid-flight, and the finally recovered state is checked against a
// model folded from the acknowledged commits:
//   - every acknowledged commit is visible,
//   - no unacknowledged commit is visible (acked-prefix under power loss),
//   - multi-row transactions are atomic,
//   - secondary indexes agree with table contents,
//   - recovery is idempotent (a second clean reopen yields the same state),
//   - the partition accepts new commits after recovery.
//
// Every run prints its RNG seed via SCOPED_TRACE; rerun a failure with
// S2_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blob/blob_store.h"
#include "common/env.h"
#include "common/fault_env.h"
#include "common/flight_recorder.h"
#include "common/rng.h"
#include "storage/partition.h"
#include "test_util.h"

namespace s2 {
namespace {

Schema LedgerSchema() {
  return Schema({{"account", DataType::kInt64},
                 {"owner", DataType::kString},
                 {"balance", DataType::kDouble}});
}

TableOptions LedgerTable() {
  TableOptions t;
  t.schema = LedgerSchema();
  t.unique_key = {0};
  t.indexes = {{0}, {1}};
  t.sort_key = {0};
  t.segment_rows = 32;
  t.flush_threshold = 32;
  t.max_sorted_runs = 3;
  return t;
}

std::string OwnerOf(int64_t account) {
  return "o" + std::to_string(account % 5);
}

/// One write of a recorded transaction: an upsert or a tombstone.
struct WriteOp {
  int64_t account = 0;
  bool tombstone = false;
  double value = 0;
};

/// One transaction the workload attempted to commit.
struct TxnRec {
  std::vector<WriteOp> writes;
  bool acked = false;  // Partition::Commit returned OK
};

using Model = std::map<int64_t, double>;

/// Folds the first `acked_limit` acknowledged transactions (unacknowledged
/// ones never apply: the log withdraws the commit marker when the local
/// append fails, and frozen/torn writes never reach disk).
Model Fold(const std::vector<TxnRec>& history, size_t acked_limit) {
  Model m;
  size_t acked_seen = 0;
  for (const TxnRec& rec : history) {
    if (!rec.acked) continue;
    if (acked_seen++ >= acked_limit) break;
    for (const WriteOp& w : rec.writes) {
      if (w.tombstone) {
        m.erase(w.account);
      } else {
        m[w.account] = w.value;
      }
    }
  }
  return m;
}

/// What a failpoint run injects and which end-state invariant applies.
struct FaultPlan {
  bool use_env_fault = true;
  EnvOp op = EnvOp::kAppend;
  std::string tag;
  FaultSpec spec;
  /// Simulate power loss at the crash: unsynced bytes vanish.
  bool power_loss = false;
  /// Dropped syncs can lose an acked suffix; accept any acked prefix
  /// instead of requiring exact equality with the full acked fold.
  bool accept_acked_prefix = false;
  /// Script this many MemBlobStore Put failures instead of an env fault.
  int blob_put_failures = 0;
};

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = TestSeed(20260807);
    auto dir = MakeTempDir("s2-crash");
    ASSERT_TRUE(dir.ok());
    base_dir_ = *dir;
  }

  void TearDown() override {
    // On a torture failure, dump a flight-recorder bundle (metrics,
    // journal tail) for the post-mortem before the scratch state goes
    // away. S2_FLIGHT_DIR overrides the destination; CI uploads it
    // as a workflow artifact.
    if (::testing::Test::HasFailure()) {
      const char* flight_dir = std::getenv("S2_FLIGHT_DIR");
      FlightRecorderOptions fr;
      fr.dir = std::string(flight_dir != nullptr ? flight_dir
                                                 : "crash-flight-recorder") +
               "/" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
      Status s = DumpFlightRecorder(fr);
      if (s.ok()) {
        fprintf(stderr, "flight recorder bundle: %s\n", fr.dir.c_str());
      }
    }
    partition_.reset();
    (void)RemoveDirRecursive(base_dir_);
  }

  void Open(const std::string& dir, FaultInjectionEnv* env) {
    PartitionOptions opts;
    opts.dir = dir;
    opts.blob = &blob_;
    opts.blob_prefix = "p/";
    opts.background_uploads = false;
    opts.auto_maintain = true;
    opts.sync_to_disk = true;
    opts.env = env;
    partition_ = std::make_unique<Partition>(opts);
    ASSERT_TRUE(partition_->Init().ok());
  }

  /// Runs `ops` randomized transactions with maintenance interleaved,
  /// recording every attempted commit into `history`.
  void RunWorkload(Rng* rng, int ops, std::vector<TxnRec>* history) {
    auto table = partition_->GetTable("ledger");
    ASSERT_TRUE(table.ok());
    UnifiedTable* ledger = *table;
    for (int i = 0; i < ops; ++i) {
      if (i % 7 == 5) (void)partition_->Maintain();
      if (i % 13 == 11) (void)partition_->WriteSnapshot();
      if (i % 17 == 16) (void)partition_->UploadToBlob();

      TxnRec rec;
      auto h = partition_->Begin();
      Status s;
      int kind = static_cast<int>(rng->Uniform(4));
      if (kind == 3) {
        // Paired upsert: two accounts written atomically with the same
        // value; recovery must never show one without the other.
        int64_t a = 2000 + 2 * static_cast<int64_t>(rng->Uniform(15));
        double v = static_cast<double>(rng->Uniform(100000));
        s = ledger
                ->InsertRows(h.id, h.read_ts,
                             {{Value(a), Value(OwnerOf(a)), Value(v)},
                              {Value(a + 1), Value(OwnerOf(a + 1)), Value(v)}},
                             DupPolicy::kUpdate)
                .status();
        rec.writes = {{a, false, v}, {a + 1, false, v}};
      } else {
        int64_t account = static_cast<int64_t>(rng->Uniform(60));
        double v = static_cast<double>(rng->Uniform(100000));
        if (kind == 0) {
          s = ledger
                  ->InsertRows(
                      h.id, h.read_ts,
                      {{Value(account), Value(OwnerOf(account)), Value(v)}},
                      DupPolicy::kUpdate)
                  .status();
          rec.writes = {{account, false, v}};
        } else if (kind == 1) {
          s = ledger->UpdateByKey(
              h.id, h.read_ts, {Value(account)},
              {Value(account), Value(OwnerOf(account)), Value(v)});
          rec.writes = {{account, false, v}};
        } else {
          s = ledger->DeleteByKey(h.id, h.read_ts, {Value(account)});
          rec.writes = {{account, true, 0}};
        }
      }
      if (!s.ok()) {
        // Staging failed (e.g. update/delete of an absent key, or the env
        // is frozen): nothing to commit.
        partition_->Abort(h.id);
        continue;
      }
      Status cs = partition_->Commit(h.id);
      rec.acked = cs.ok();
      if (!cs.ok()) partition_->Abort(h.id);
      history->push_back(std::move(rec));
    }
  }

  /// Full logical content: rowstore scan + visible segment rows.
  Model Balances() {
    Model out;
    auto table = partition_->GetTable("ledger");
    if (!table.ok()) return out;
    auto h = partition_->Begin();
    (*table)->ScanRowstore(h.id, h.read_ts,
                           [&](const Row& row, const RowLocation&) {
                             out[row[0].as_int()] = row[2].as_double();
                             return true;
                           });
    auto segments = (*table)->GetSegments(h.read_ts);
    EXPECT_TRUE(segments.ok());
    for (const SegmentSnapshot& snap : *segments) {
      for (uint32_t r = 0; r < snap.segment->num_rows(); ++r) {
        if (snap.deletes != nullptr && snap.deletes->Get(r)) continue;
        Row row = *snap.segment->ReadRow(r);
        out[row[0].as_int()] = row[2].as_double();
      }
    }
    partition_->EndRead(h.id);
    return out;
  }

  /// Index-vs-content agreement: every present account resolves through
  /// the unique-key index to exactly one row with the scanned balance;
  /// absent accounts resolve to nothing; the owner index counts match.
  void CheckIndexesAgree(const Model& state) {
    auto table = partition_->GetTable("ledger");
    ASSERT_TRUE(table.ok());
    auto h = partition_->Begin();
    for (const auto& [account, balance] : state) {
      int found = 0;
      double got = 0;
      ASSERT_TRUE((*table)
                      ->LookupByIndex(h.id, h.read_ts, {0}, {Value(account)},
                                      [&](const Row& row, const RowLocation&) {
                                        ++found;
                                        got = row[2].as_double();
                                        return true;
                                      })
                      .ok());
      EXPECT_EQ(found, 1) << "unique-key lookup of account " << account;
      EXPECT_EQ(got, balance) << "account " << account;
    }
    for (int64_t absent : {int64_t{100}, int64_t{101}, int64_t{900000}}) {
      if (state.count(absent) > 0) continue;
      int found = 0;
      (void)(*table)->LookupByIndex(h.id, h.read_ts, {0}, {Value(absent)},
                                    [&](const Row&, const RowLocation&) {
                                      ++found;
                                      return true;
                                    });
      EXPECT_EQ(found, 0) << "absent account " << absent;
    }
    std::map<std::string, int> owner_counts;
    for (const auto& [account, balance] : state) ++owner_counts[OwnerOf(account)];
    for (int o = 0; o < 5; ++o) {
      std::string owner = "o" + std::to_string(o);
      int found = 0;
      ASSERT_TRUE((*table)
                      ->LookupByIndex(h.id, h.read_ts, {1}, {Value(owner)},
                                      [&](const Row&, const RowLocation&) {
                                        ++found;
                                        return true;
                                      })
                      .ok());
      EXPECT_EQ(found, owner_counts[owner]) << "owner index " << owner;
    }
    partition_->EndRead(h.id);
  }

  /// Paired accounts must be both present (with equal balances, since every
  /// pair transaction writes the same value to both) or both absent.
  void CheckPairAtomicity(const Model& state) {
    for (int64_t a = 2000; a < 2030; a += 2) {
      auto left = state.find(a);
      auto right = state.find(a + 1);
      ASSERT_EQ(left != state.end(), right != state.end())
          << "pair (" << a << ", " << a + 1 << ") is torn";
      if (left != state.end()) {
        EXPECT_EQ(left->second, right->second)
            << "pair (" << a << ", " << a + 1 << ") diverged";
      }
    }
  }

  /// The complete failpoint scenario; see the file comment.
  void RunTorture(const std::string& name, const FaultPlan& plan) {
    SCOPED_TRACE("failpoint=" + name +
                 " S2_TEST_SEED=" + std::to_string(seed_));
    std::string dir = base_dir_ + "/" + name;
    FaultInjectionEnv env;
    Rng rng(seed_);
    std::vector<TxnRec> history;

    Open(dir, &env);
    ASSERT_TRUE(partition_->CreateTable("ledger", LedgerTable()).ok());

    // Warmup: committed baseline with snapshots, flushes, and uploads on
    // disk before any fault is armed. Every commit must ack. (Ops whose
    // staging fails — updates/deletes of absent keys — are not recorded.)
    RunWorkload(&rng, 40, &history);
    for (const TxnRec& rec : history) ASSERT_TRUE(rec.acked);
    size_t warmup_recorded = history.size();
    ASSERT_TRUE(partition_->WriteSnapshot().ok());

    // Arm the failpoint, then keep the workload running through it. Tags
    // are anchored to this run's directory so a failpoint name like
    // "log-append-error" in the path can't accidentally match a "/log"
    // substring.
    if (plan.use_env_fault) {
      env.InjectFault(plan.op, plan.tag.empty() ? "" : dir + plan.tag,
                      plan.spec);
    }
    if (plan.blob_put_failures > 0) blob_.FailNextPuts(plan.blob_put_failures);
    RunWorkload(&rng, 120, &history);
    if (plan.use_env_fault) {
      EXPECT_TRUE(env.FaultFired()) << "failpoint never hit; workload or "
                                       "tag is wrong";
    } else {
      // The scripted blob failures parked uploads; a retry must succeed
      // once the schedule is exhausted.
      EXPECT_TRUE(partition_->UploadToBlob().ok());
    }

    // Crash. Under power loss, everything not fsync'd is gone.
    env.Crash();
    partition_.reset();
    if (plan.power_loss) {
      ASSERT_TRUE(env.DropUnsyncedData().ok());
    }
    env.Unfreeze();

    // Crash recovery itself, twice, at successively deeper read points
    // (the log open, then the replay). Each attempt must fail cleanly.
    for (int attempt = 0; attempt < 2; ++attempt) {
      env.ClearFaults();
      FaultSpec read_fault;
      read_fault.mode = FaultSpec::Mode::kError;
      read_fault.skip = attempt;
      env.InjectFault(EnvOp::kRead, dir + "/log", read_fault);
      PartitionOptions opts;
      opts.dir = dir;
      opts.blob = &blob_;
      opts.blob_prefix = "p/";
      opts.background_uploads = false;
      opts.sync_to_disk = true;
      opts.env = &env;
      partition_ = std::make_unique<Partition>(opts);
      EXPECT_FALSE(partition_->Init().ok())
          << "recovery attempt " << attempt << " should have crashed";
      partition_.reset();
    }

    // Clean recovery must now succeed.
    env.ClearFaults();
    Open(dir, &env);

    Model recovered = Balances();
    Model full = Fold(history, ~size_t{0});
    if (plan.accept_acked_prefix) {
      // Dropped syncs + power loss: some acked suffix may be lost, but the
      // survivors must be a prefix of the acked history (no gaps, no
      // reordering, no partial transactions).
      size_t total_acked = 0;
      for (const TxnRec& rec : history) total_acked += rec.acked ? 1 : 0;
      bool is_prefix = false;
      size_t prefix_len = 0;
      // Scan from the longest prefix down so a coincidental earlier match
      // (states can repeat across delete/re-insert cycles) doesn't
      // understate how much survived.
      for (size_t k = total_acked + 1; k-- > 0;) {
        if (recovered == Fold(history, k)) {
          is_prefix = true;
          prefix_len = k;
          break;
        }
      }
      EXPECT_TRUE(is_prefix)
          << "recovered state is not a prefix of the acked history";
      // The warmup was fully synced (and snapshotted) before the fault
      // armed, so at least those commits must have survived.
      EXPECT_GE(prefix_len, warmup_recorded);
    } else {
      EXPECT_EQ(recovered, full)
          << "recovered state differs from the acked-commit fold";
    }
    CheckIndexesAgree(recovered);
    CheckPairAtomicity(recovered);

    // The recovered partition must accept and persist new commits.
    auto table = partition_->GetTable("ledger");
    ASSERT_TRUE(table.ok());
    for (int64_t account : {int64_t{5000}, int64_t{5001}, int64_t{5002}}) {
      auto h = partition_->Begin();
      ASSERT_TRUE((*table)
                      ->InsertRows(h.id, h.read_ts,
                                   {{Value(account), Value(OwnerOf(account)),
                                     Value(1.0)}},
                                   DupPolicy::kUpdate)
                      .ok());
      ASSERT_TRUE(partition_->Commit(h.id).ok());
    }
    Model after_writes = Balances();
    for (int64_t account : {int64_t{5000}, int64_t{5001}, int64_t{5002}}) {
      EXPECT_EQ(after_writes.count(account), 1u);
    }

    // Idempotence: recovering again from the same on-disk state yields the
    // identical result.
    partition_.reset();
    Open(dir, &env);
    EXPECT_EQ(Balances(), after_writes) << "second recovery diverged";
    partition_.reset();
  }

  uint64_t seed_ = 0;
  std::string base_dir_;
  MemBlobStore blob_;
  std::unique_ptr<Partition> partition_;
};

// ---------------------------------------------------------------------
// The failpoint catalog (see DESIGN.md). Each failpoint is one test so a
// failure names the exact broken recovery path.
// ---------------------------------------------------------------------

TEST_F(CrashRecoveryTest, LogAppendError) {
  FaultPlan plan;
  plan.op = EnvOp::kAppend;
  plan.tag = "/log";
  plan.spec.mode = FaultSpec::Mode::kError;
  RunTorture("log-append-error", plan);
}

TEST_F(CrashRecoveryTest, LogAppendTorn) {
  FaultPlan plan;
  plan.op = EnvOp::kAppend;
  plan.tag = "/log";
  plan.spec.mode = FaultSpec::Mode::kTorn;
  plan.spec.seed = seed_ + 1;
  RunTorture("log-append-torn", plan);
}

TEST_F(CrashRecoveryTest, LogAppendFreeze) {
  FaultPlan plan;
  plan.op = EnvOp::kAppend;
  plan.tag = "/log";
  plan.spec.mode = FaultSpec::Mode::kFreeze;
  RunTorture("log-append-freeze", plan);
}

TEST_F(CrashRecoveryTest, LogSyncDroppedThenPowerLoss) {
  FaultPlan plan;
  plan.op = EnvOp::kSync;
  plan.tag = "";  // a lying disk drops every fsync from here on
  plan.spec.mode = FaultSpec::Mode::kDropSync;
  plan.spec.count = 1 << 20;
  plan.power_loss = true;
  plan.accept_acked_prefix = true;
  RunTorture("log-sync-drop", plan);
}

TEST_F(CrashRecoveryTest, SnapshotWriteError) {
  FaultPlan plan;
  plan.op = EnvOp::kWrite;
  plan.tag = "/snapshots/";
  plan.spec.mode = FaultSpec::Mode::kError;
  plan.spec.count = 2;
  RunTorture("snapshot-write-error", plan);
}

TEST_F(CrashRecoveryTest, SnapshotRenameError) {
  // The rename fails after the temp file was written and synced: a stray
  // snap_<lsn>.tmp is left behind, which recovery must ignore.
  FaultPlan plan;
  plan.op = EnvOp::kRename;
  plan.tag = "/snapshots/";
  plan.spec.mode = FaultSpec::Mode::kError;
  plan.spec.count = 2;
  RunTorture("manifest-rename-error", plan);
}

TEST_F(CrashRecoveryTest, SegmentFileWriteError) {
  FaultPlan plan;
  plan.op = EnvOp::kWrite;
  plan.tag = "/files/";
  plan.spec.mode = FaultSpec::Mode::kError;
  plan.spec.count = 2;
  RunTorture("segment-file-write-error", plan);
}

TEST_F(CrashRecoveryTest, SegmentFileWriteFreeze) {
  FaultPlan plan;
  plan.op = EnvOp::kWrite;
  plan.tag = "/files/";
  plan.spec.mode = FaultSpec::Mode::kFreeze;
  RunTorture("segment-file-freeze", plan);
}

TEST_F(CrashRecoveryTest, BlobPutError) {
  FaultPlan plan;
  plan.use_env_fault = false;
  plan.blob_put_failures = 4;
  RunTorture("blob-put-error", plan);
}

}  // namespace
}  // namespace s2
