#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "txn/lock_table.h"
#include "txn/txn_manager.h"

namespace s2 {
namespace {

TEST(TxnManagerTest, BeginAssignsFreshIdsAndSnapshot) {
  TxnManager txns;
  auto a = txns.Begin();
  auto b = txns.Begin();
  EXPECT_NE(a.id, b.id);
  EXPECT_EQ(a.read_ts, 0u) << "no commits yet";
  txns.EndRead(a.id);
  txns.EndRead(b.id);
}

TEST(TxnManagerTest, WatermarkAdvancesOnlyAfterFinish) {
  TxnManager txns;
  auto writer = txns.Begin();
  Timestamp cts = txns.PrepareCommit(writer.id);
  EXPECT_EQ(txns.watermark(), 0u)
      << "commit in progress: new readers must not see it yet";
  auto reader = txns.Begin();
  EXPECT_LT(reader.read_ts, cts);
  txns.FinishCommit(writer.id, cts);
  EXPECT_EQ(txns.watermark(), cts);
  auto reader2 = txns.Begin();
  EXPECT_EQ(reader2.read_ts, cts);
  txns.EndRead(reader.id);
  txns.EndRead(reader2.id);
}

TEST(TxnManagerTest, WatermarkHeldBackByOldestInFlightCommit) {
  TxnManager txns;
  auto t1 = txns.Begin();
  auto t2 = txns.Begin();
  Timestamp c1 = txns.PrepareCommit(t1.id);
  Timestamp c2 = txns.PrepareCommit(t2.id);
  EXPECT_LT(c1, c2);
  // Finish the NEWER commit first: watermark must stay below the older
  // still-stamping commit, or readers would see half of t1.
  txns.FinishCommit(t2.id, c2);
  EXPECT_LT(txns.watermark(), c1);
  txns.FinishCommit(t1.id, c1);
  EXPECT_EQ(txns.watermark(), c2);
}

TEST(TxnManagerTest, OldestActiveTracksReaders) {
  TxnManager txns;
  auto w = txns.Begin();
  txns.FinishCommit(w.id, txns.PrepareCommit(w.id));
  Timestamp after_first = txns.watermark();

  auto old_reader = txns.Begin();
  auto w2 = txns.Begin();
  txns.FinishCommit(w2.id, txns.PrepareCommit(w2.id));
  // The old reader pins the GC horizon at its snapshot.
  EXPECT_EQ(txns.oldest_active(), after_first);
  txns.EndRead(old_reader.id);
  EXPECT_EQ(txns.oldest_active(), txns.watermark());
}

TEST(TxnManagerTest, AbortReleasesSnapshot) {
  TxnManager txns;
  auto t = txns.Begin();
  txns.Abort(t.id);
  EXPECT_EQ(txns.oldest_active(), txns.watermark());
}

TEST(TxnManagerTest, AdvanceToBumpsClockAndWatermark) {
  TxnManager txns;
  txns.AdvanceTo(100);
  EXPECT_EQ(txns.watermark(), 100u);
  auto t = txns.Begin();
  Timestamp c = txns.PrepareCommit(t.id);
  EXPECT_GT(c, 100u);
  txns.FinishCommit(t.id, c);
}

TEST(TxnManagerTest, ConcurrentCommitTimestampsAreUniqueAndMonotonic) {
  TxnManager txns;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::vector<Timestamp>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto h = txns.Begin();
        Timestamp c = txns.PrepareCommit(h.id);
        per_thread[t].push_back(c);
        txns.FinishCommit(h.id, c);
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<Timestamp> all;
  for (const auto& v : per_thread) {
    Timestamp prev = 0;
    for (Timestamp c : v) {
      EXPECT_GT(c, prev) << "per-thread monotonicity";
      prev = c;
      EXPECT_TRUE(all.insert(c).second) << "duplicate commit ts " << c;
    }
  }
  EXPECT_EQ(all.size(), size_t{kThreads} * kPerThread);
  EXPECT_EQ(txns.watermark(), size_t{kThreads} * kPerThread);
}

// --- LockTable ---

// Blocks until `n` transactions are parked in locks.Lock.
void AwaitWaiters(const LockTable& locks, size_t n) {
  while (locks.num_waiting() < n) std::this_thread::yield();
}

TEST(LockTableTest, BasicLockUnlock) {
  LockTable locks;
  ASSERT_TRUE(locks.Lock(1, 'a').ok());
  ASSERT_TRUE(locks.Lock(1, 'b').ok());
  EXPECT_EQ(locks.num_locked(), 2u);
  // Re-entrant for the same txn.
  ASSERT_TRUE(locks.Lock(1, 'b').ok());
  ASSERT_TRUE(locks.Lock(1, 'c').ok());
  EXPECT_EQ(locks.num_locked(), 3u);
  // A conflicting txn parks until the owner releases.
  std::thread waiter([&] { EXPECT_TRUE(locks.Lock(2, 'b').ok()); });
  AwaitWaiters(locks, 1);
  locks.ReleaseAll(1);
  waiter.join();
  EXPECT_EQ(locks.num_locked(), 1u);
  locks.ReleaseAll(2);
  EXPECT_EQ(locks.num_locked(), 0u);
}

TEST(LockTableTest, ContendedHandoff) {
  LockTable locks;
  ASSERT_TRUE(locks.Lock(1, 'k').ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    EXPECT_TRUE(locks.Lock(2, 'k').ok());
    acquired = true;
    locks.ReleaseAll(2);
  });
  AwaitWaiters(locks, 1);
  EXPECT_FALSE(acquired.load());
  locks.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(locks.num_locked(), 0u);
}

TEST(LockTableTest, SortedAcquisitionAvoidsDeadlock) {
  // Two txns lock overlapping ids in the same (sorted) order: one waits
  // for the other, neither aborts.
  LockTable locks;
  std::atomic<int> successes{0};
  auto run = [&](TxnId txn) {
    if (locks.Lock(txn, 'x').ok() && locks.Lock(txn, 'y').ok()) {
      successes.fetch_add(1);
    }
    locks.ReleaseAll(txn);
  };
  std::thread t1(run, 1);
  std::thread t2(run, 2);
  t1.join();
  t2.join();
  EXPECT_EQ(successes.load(), 2);
}

TEST(LockTableTest, RequestClosingACycleAbortsAtOnce) {
  LockTable locks;
  Counter& deadlocks = S2_COUNTER("s2_lock_deadlocks_total");
  const uint64_t deadlocks_before = deadlocks.value();
  ASSERT_TRUE(locks.Lock(1, 'x').ok());
  ASSERT_TRUE(locks.Lock(2, 'y').ok());
  std::thread t1([&] { EXPECT_TRUE(locks.Lock(1, 'y').ok()); });
  AwaitWaiters(locks, 1);
  // 2 -> x (owned by 1) -> y (owned by 2): the edge closes the cycle.
  Status s = locks.Lock(2, 'x');
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(s.message(), "deadlock");
  EXPECT_EQ(deadlocks.value(), deadlocks_before + 1);
  // The victim's locks stay held until its transaction ends.
  EXPECT_EQ(locks.num_waiting(), 1u);
  locks.ReleaseAll(2);
  t1.join();
  locks.ReleaseAll(1);
  EXPECT_EQ(locks.num_locked(), 0u);
}

TEST(LockTableTest, ThreeTransactionCycle) {
  LockTable locks;
  for (TxnId txn = 1; txn <= 3; ++txn) ASSERT_TRUE(locks.Lock(txn, txn).ok());
  std::thread t1([&] { EXPECT_TRUE(locks.Lock(1, 2).ok()); });
  AwaitWaiters(locks, 1);
  std::thread t2([&] { EXPECT_TRUE(locks.Lock(2, 3).ok()); });
  AwaitWaiters(locks, 2);
  // 3 -> 1 -> 2 -> 3.
  EXPECT_EQ(locks.Lock(3, 1).message(), "deadlock");
  locks.ReleaseAll(3);
  t2.join();
  locks.ReleaseAll(2);
  t1.join();
  locks.ReleaseAll(1);
  EXPECT_EQ(locks.num_locked(), 0u);
}

TEST(LockTableTest, TimeoutIsTheBackstop) {
  // No cycle this table can see (the owner is not waiting here, as when a
  // cycle runs through another partition): the wait times out.
  LockTable locks;
  Counter& timeouts = S2_COUNTER("s2_lock_timeouts_total");
  const uint64_t timeouts_before = timeouts.value();
  ASSERT_TRUE(locks.Lock(1, 'k').ok());
  auto start = std::chrono::steady_clock::now();
  Status s = locks.Lock(2, 'k');
  auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(s.IsAborted());
  EXPECT_NE(s.message().find("lock timeout"), std::string::npos);
  EXPECT_GE(waited, std::chrono::milliseconds(LockTable::kTimeoutMs));
  EXPECT_EQ(timeouts.value(), timeouts_before + 1);
  locks.ReleaseAll(1);
  locks.ReleaseAll(2);
}

TEST(TxnManagerTest, CommitAndAbortReleaseLocks) {
  TxnManager txns;
  auto a = txns.Begin();
  auto b = txns.Begin();
  ASSERT_TRUE(txns.locks()->Lock(a.id, 1).ok());
  ASSERT_TRUE(txns.locks()->Lock(b.id, 2).ok());
  txns.FinishCommit(a.id, txns.PrepareCommit(a.id));
  EXPECT_EQ(txns.locks()->num_locked(), 1u);
  txns.Abort(b.id);
  EXPECT_EQ(txns.locks()->num_locked(), 0u);
}

}  // namespace
}  // namespace s2
