#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "log/log_record.h"
#include "log/partition_log.h"
#include "log/snapshot.h"

namespace s2 {
namespace {

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("s2-log-test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { (void)RemoveDirRecursive(dir_); }

  std::string dir_;
};

LogRecord MakeRecord(TxnId txn, LogRecordType type, std::string payload) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = type;
  rec.payload = std::move(payload);
  return rec;
}

TEST_F(LogTest, AppendCommitReplay) {
  LogOptions opts;
  opts.dir = dir_;
  auto log = PartitionLog::Open(opts);
  ASSERT_TRUE(log.ok());

  (*log)->Append(MakeRecord(1, LogRecordType::kInsertRows, "row-a"));
  (*log)->Append(MakeRecord(1, LogRecordType::kInsertRows, "row-b"));
  ASSERT_TRUE((*log)->Commit(1).ok());

  std::vector<std::pair<TxnId, std::string>> seen;
  ASSERT_TRUE((*log)
                  ->Replay(0, 0,
                           [&](Lsn, const LogRecord& rec) {
                             seen.emplace_back(rec.txn_id, rec.payload);
                             return Status::OK();
                           })
                  .ok());
  ASSERT_EQ(seen.size(), 3u);  // two inserts + commit marker
  EXPECT_EQ(seen[0].second, "row-a");
  EXPECT_EQ(seen[1].second, "row-b");
}

TEST_F(LogTest, DurableLsnAdvancesOnCommit) {
  LogOptions opts;
  opts.dir = dir_;
  auto log = PartitionLog::Open(opts);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->durable_lsn(), 0u);
  (*log)->Append(MakeRecord(1, LogRecordType::kInsertRows, "x"));
  EXPECT_EQ((*log)->durable_lsn(), 0u) << "append alone is not durable";
  ASSERT_TRUE((*log)->Commit(1).ok());
  EXPECT_GT((*log)->durable_lsn(), 0u);
  EXPECT_EQ((*log)->durable_lsn(), (*log)->next_lsn() - 12)
      << "durable end == next page's first record position - header";
}

TEST_F(LogTest, ReopenRecoversPosition) {
  LogOptions opts;
  opts.dir = dir_;
  Lsn end;
  {
    auto log = PartitionLog::Open(opts);
    ASSERT_TRUE(log.ok());
    (*log)->Append(MakeRecord(1, LogRecordType::kInsertRows, "persisted"));
    ASSERT_TRUE((*log)->Commit(1).ok());
    end = (*log)->durable_lsn();
  }
  auto log = PartitionLog::Open(opts);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->durable_lsn(), end);
  int count = 0;
  ASSERT_TRUE((*log)
                  ->Replay(0, 0,
                           [&](Lsn, const LogRecord&) {
                             ++count;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(count, 2);
}

TEST_F(LogTest, TornTailTruncatedOnOpen) {
  LogOptions opts;
  opts.dir = dir_;
  {
    auto log = PartitionLog::Open(opts);
    (*log)->Append(MakeRecord(1, LogRecordType::kInsertRows, "good"));
    ASSERT_TRUE((*log)->Commit(1).ok());
  }
  // Simulate a crash mid-append: garbage at the tail.
  ASSERT_TRUE(AppendToFile(dir_ + "/log", "garbage-torn-page").ok());
  auto log = PartitionLog::Open(opts);
  ASSERT_TRUE(log.ok());
  int count = 0;
  ASSERT_TRUE((*log)
                  ->Replay(0, 0,
                           [&](Lsn, const LogRecord&) {
                             ++count;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(count, 2) << "valid prefix survives, torn tail dropped";
  // And the log accepts new appends after recovery.
  (*log)->Append(MakeRecord(2, LogRecordType::kInsertRows, "after"));
  ASSERT_TRUE((*log)->Commit(2).ok());
}

// Torn-write sweep: cut the log at EVERY byte offset (simulating a crash
// partway through the tail append) and reopen. Recovery must stop cleanly
// at the last CRC-valid page — never fail, never read garbage — and the
// reopened log must accept new appends.
TEST_F(LogTest, TornWriteSweepEveryByteOffset) {
  LogOptions opts;
  opts.dir = dir_;
  std::vector<size_t> boundaries = {0};  // file size after each commit
  {
    auto log = PartitionLog::Open(opts);
    ASSERT_TRUE(log.ok());
    for (TxnId txn = 1; txn <= 3; ++txn) {
      (*log)->Append(MakeRecord(txn, LogRecordType::kInsertRows,
                                "payload-" + std::to_string(txn)));
      ASSERT_TRUE((*log)->Commit(txn).ok());
      auto size = FileSize(dir_ + "/log");
      ASSERT_TRUE(size.ok());
      boundaries.push_back(*size);
    }
  }
  auto pristine = ReadFileToString(dir_ + "/log");
  ASSERT_TRUE(pristine.ok());
  ASSERT_EQ(pristine->size(), boundaries.back());

  Env* env = Env::Default();
  std::string cut_dir = dir_ + "/cut";
  ASSERT_TRUE(env->CreateDirs(cut_dir).ok());
  LogOptions cut_opts;
  cut_opts.dir = cut_dir;
  for (size_t cut = 0; cut <= pristine->size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    ASSERT_TRUE(env->WriteStringToFile(cut_dir + "/log",
                                       pristine->substr(0, cut),
                                       /*sync=*/false)
                    .ok());
    auto log = PartitionLog::Open(cut_opts);
    ASSERT_TRUE(log.ok()) << "open must succeed at any torn offset";
    // Whole pages below the cut survive; a partially written page is
    // dropped in full. Each committed page holds 2 records.
    size_t complete_pages = 0;
    while (complete_pages + 1 < boundaries.size() &&
           boundaries[complete_pages + 1] <= cut) {
      ++complete_pages;
    }
    size_t count = 0;
    ASSERT_TRUE((*log)
                    ->Replay(0, 0,
                             [&](Lsn, const LogRecord&) {
                               ++count;
                               return Status::OK();
                             })
                    .ok());
    EXPECT_EQ(count, 2 * complete_pages);
    // The recovered log keeps working.
    (*log)->Append(MakeRecord(99, LogRecordType::kInsertRows, "resumed"));
    ASSERT_TRUE((*log)->Commit(99).ok());
    count = 0;
    ASSERT_TRUE((*log)
                    ->Replay(0, 0,
                             [&](Lsn, const LogRecord&) {
                               ++count;
                               return Status::OK();
                             })
                    .ok());
    EXPECT_EQ(count, 2 * complete_pages + 2);
  }
}

// A sink that records pages and can simulate being down.
class TestSink : public ReplicationSink {
 public:
  bool OnPage(Lsn lsn, Slice bytes) override {
    if (down) return false;
    pages[lsn] = bytes.ToString();
    return true;
  }
  bool acks() const override { return acking; }

  // Replica-side view: contiguous byte stream rebuilt from pages.
  std::string Stream() const {
    std::string out;
    for (const auto& [lsn, bytes] : pages) {
      if (lsn < out.size()) continue;  // duplicate redelivery
      out.resize(lsn, 0);
      out += bytes;
    }
    return out;
  }

  std::map<Lsn, std::string> pages;
  bool down = false;
  bool acking = true;
};

TEST_F(LogTest, ReplicationDeliversPagesAndAcks) {
  LogOptions opts;
  opts.dir = dir_;
  auto log = PartitionLog::Open(opts);
  TestSink sink;
  ASSERT_TRUE((*log)->AddSink(&sink).ok());

  (*log)->Append(MakeRecord(1, LogRecordType::kInsertRows, "r1"));
  ASSERT_TRUE((*log)->Commit(1).ok());
  (*log)->Append(MakeRecord(2, LogRecordType::kInsertRows, "r2"));
  ASSERT_TRUE((*log)->Commit(2).ok());

  // Replica can parse its rebuilt stream into the same records.
  std::vector<std::string> payloads;
  ASSERT_TRUE(PartitionLog::ParseStream(sink.Stream(), 0,
                                        [&](Lsn, const LogRecord& rec) {
                                          payloads.push_back(rec.payload);
                                          return Status::OK();
                                        })
                  .ok());
  ASSERT_EQ(payloads.size(), 4u);
  EXPECT_EQ(payloads[0], "r1");
  EXPECT_EQ(payloads[2], "r2");
}

TEST_F(LogTest, CommitFailsWithoutAckThenRecovers) {
  LogOptions opts;
  opts.dir = dir_;
  auto log = PartitionLog::Open(opts);
  TestSink sink;
  ASSERT_TRUE((*log)->AddSink(&sink).ok());

  sink.down = true;
  (*log)->Append(MakeRecord(1, LogRecordType::kInsertRows, "r1"));
  Status s = (*log)->Commit(1);
  EXPECT_TRUE(s.IsUnavailable());
  Lsn stalled = (*log)->durable_lsn();

  // Replica comes back; the pending page is redelivered on next commit.
  sink.down = false;
  (*log)->Append(MakeRecord(2, LogRecordType::kInsertRows, "r2"));
  ASSERT_TRUE((*log)->Commit(2).ok());
  EXPECT_GT((*log)->durable_lsn(), stalled);
  EXPECT_EQ(sink.pages.size(), 2u);
}

TEST_F(LogTest, LateSinkCatchesUp) {
  LogOptions opts;
  opts.dir = dir_;
  auto log = PartitionLog::Open(opts);
  (*log)->Append(MakeRecord(1, LogRecordType::kInsertRows, "early"));
  ASSERT_TRUE((*log)->Commit(1).ok());

  TestSink sink;
  ASSERT_TRUE((*log)->AddSink(&sink).ok());
  int count = 0;
  ASSERT_TRUE(PartitionLog::ParseStream(sink.Stream(), 0,
                                        [&](Lsn, const LogRecord&) {
                                          ++count;
                                          return Status::OK();
                                        })
                  .ok());
  EXPECT_EQ(count, 2) << "sink added later still sees earlier pages";
}

TEST_F(LogTest, BigTransactionSealsPagesEarly) {
  LogOptions opts;
  opts.dir = dir_;
  opts.page_size = 1024;
  auto log = PartitionLog::Open(opts);
  TestSink sink;
  ASSERT_TRUE((*log)->AddSink(&sink).ok());

  // One large uncommitted transaction spanning many pages: replica should
  // already have pages before the commit ("replicated early").
  for (int i = 0; i < 100; ++i) {
    (*log)->Append(MakeRecord(7, LogRecordType::kInsertRows,
                              std::string(100, 'x')));
  }
  EXPECT_GT(sink.pages.size(), 5u);
  ASSERT_TRUE((*log)->Commit(7).ok());
}

TEST_F(LogTest, ReadRangeReturnsChunks) {
  LogOptions opts;
  opts.dir = dir_;
  auto log = PartitionLog::Open(opts);
  (*log)->Append(MakeRecord(1, LogRecordType::kInsertRows, "chunk-data"));
  ASSERT_TRUE((*log)->Commit(1).ok());
  Lsn durable = (*log)->durable_lsn();

  auto chunk = (*log)->ReadRange(0, durable);
  ASSERT_TRUE(chunk.ok());
  // The chunk parses standalone — this is what gets uploaded to blob.
  int count = 0;
  ASSERT_TRUE(PartitionLog::ParseStream(*chunk, 0,
                                        [&](Lsn, const LogRecord&) {
                                          ++count;
                                          return Status::OK();
                                        })
                  .ok());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE((*log)->ReadRange(0, durable + 999).ok());
}

TEST_F(LogTest, ParseStreamStopsAtAnIncompleteTrailingPage) {
  LogOptions opts;
  opts.dir = dir_;
  auto log = PartitionLog::Open(opts);
  (*log)->Append(MakeRecord(1, LogRecordType::kInsertRows, "first"));
  ASSERT_TRUE((*log)->Commit(1).ok());
  const Lsn first_page_end = (*log)->durable_lsn();
  (*log)->Append(MakeRecord(2, LogRecordType::kInsertRows, "second"));
  ASSERT_TRUE((*log)->Commit(2).ok());
  auto stream = (*log)->ReadRange(0, (*log)->durable_lsn());
  ASSERT_TRUE(stream.ok());

  // Every cut inside the second page (its header or its payload) parses the
  // first page alone and reports the bytes it took.
  for (size_t cut = first_page_end; cut < stream->size(); ++cut) {
    std::vector<std::string> payloads;
    auto parsed = PartitionLog::ParseStream(
        Slice(stream->data(), cut), 0, [&](Lsn, const LogRecord& rec) {
          payloads.push_back(rec.payload);
          return Status::OK();
        });
    ASSERT_TRUE(parsed.ok()) << "cut " << cut << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(*parsed, first_page_end) << "cut " << cut;
    ASSERT_EQ(payloads.size(), 2u) << "cut " << cut;
    EXPECT_EQ(payloads[0], "first");
  }
  auto whole = PartitionLog::ParseStream(
      *stream, 0, [](Lsn, const LogRecord&) { return Status::OK(); });
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(*whole, stream->size());

  // A complete page whose payload was damaged is Corruption, not a stop.
  std::string damaged = *stream;
  damaged[damaged.size() - 1] ^= 0x20;
  int records = 0;
  auto bad = PartitionLog::ParseStream(damaged, 0,
                                       [&](Lsn, const LogRecord&) {
                                         ++records;
                                         return Status::OK();
                                       });
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  EXPECT_EQ(records, 2) << "the intact first page was parsed before it";
}

TEST_F(LogTest, OnlyAckingSinksCountTowardDurability) {
  LogOptions opts;
  opts.dir = dir_;
  auto log = PartitionLog::Open(opts);
  TestSink ha;
  TestSink workspace;
  workspace.acking = false;
  ASSERT_TRUE((*log)->AddSink(&ha).ok());
  ASSERT_TRUE((*log)->AddSink(&workspace).ok());

  // The acking sink is down: a page the other sink holds is not durable.
  ha.down = true;
  (*log)->Append(MakeRecord(1, LogRecordType::kInsertRows, "r1"));
  EXPECT_TRUE((*log)->Commit(1).IsUnavailable());
  EXPECT_EQ(workspace.pages.size(), 1u) << "non-acking sinks still receive";

  // Without an acking sink the log is durable once written locally.
  (*log)->RemoveSink(&ha);
  (*log)->Append(MakeRecord(2, LogRecordType::kInsertRows, "r2"));
  ASSERT_TRUE((*log)->Commit(2).ok());
  auto durable = (*log)->ReadRange(0, (*log)->durable_lsn());
  ASSERT_TRUE(durable.ok());
  int records = 0;
  ASSERT_TRUE(PartitionLog::ParseStream(*durable, 0,
                                        [&](Lsn, const LogRecord&) {
                                          ++records;
                                          return Status::OK();
                                        })
                  .ok());
  EXPECT_EQ(records, 4) << "the stalled page is durable too";
}

TEST_F(LogTest, AbortMarkerWritten) {
  LogOptions opts;
  opts.dir = dir_;
  auto log = PartitionLog::Open(opts);
  (*log)->Append(MakeRecord(5, LogRecordType::kInsertRows, "doomed"));
  (*log)->Abort(5);
  (*log)->Append(MakeRecord(6, LogRecordType::kInsertRows, "ok"));
  ASSERT_TRUE((*log)->Commit(6).ok());

  bool saw_abort = false;
  ASSERT_TRUE((*log)
                  ->Replay(0, 0,
                           [&](Lsn, const LogRecord& rec) {
                             if (rec.type == LogRecordType::kAbort &&
                                 rec.txn_id == 5) {
                               saw_abort = true;
                             }
                             return Status::OK();
                           })
                  .ok());
  EXPECT_TRUE(saw_abort);
}

TEST(SnapshotTest, WriteListLoadTrim) {
  auto dir = MakeTempDir("s2-snap-test");
  ASSERT_TRUE(dir.ok());
  SnapshotStore store(*dir);

  ASSERT_TRUE(store.Write(100, "state-at-100").ok());
  ASSERT_TRUE(store.Write(500, "state-at-500").ok());
  ASSERT_TRUE(store.Write(900, "state-at-900").ok());

  auto lsns = store.List();
  ASSERT_TRUE(lsns.ok());
  EXPECT_EQ(*lsns, (std::vector<Lsn>{100, 500, 900}));

  auto at_600 = store.LatestAtOrBelow(600);
  ASSERT_TRUE(at_600.ok());
  EXPECT_EQ(at_600->first, 500u);
  EXPECT_EQ(at_600->second, "state-at-500");

  auto latest = store.LatestAtOrBelow(~0ULL);
  EXPECT_EQ(latest->first, 900u);

  EXPECT_TRUE(store.LatestAtOrBelow(50).status().IsNotFound());

  ASSERT_TRUE(store.TrimBelow(500).ok());
  EXPECT_EQ(*store.List(), (std::vector<Lsn>{500, 900}));
  (void)RemoveDirRecursive(*dir);
}

TEST(SnapshotTest, CorruptSnapshotRejected) {
  auto dir = MakeTempDir("s2-snap-test");
  ASSERT_TRUE(dir.ok());
  SnapshotStore store(*dir);
  ASSERT_TRUE(store.Write(10, "good-state").ok());
  // Flip a byte in the middle of the file.
  std::string path = *dir + "/" + SnapshotStore::FileName(10);
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  (*data)[2] ^= 0xff;
  ASSERT_TRUE(WriteFileAtomic(path, *data).ok());
  EXPECT_TRUE(store.LatestAtOrBelow(10).status().IsCorruption());
  (void)RemoveDirRecursive(*dir);
}

}  // namespace
}  // namespace s2
