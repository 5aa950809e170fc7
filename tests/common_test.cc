#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/bitvector.h"
#include "common/coding.h"
#include "common/env.h"
#include "common/executor.h"
#include "common/fault_env.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "common/types.h"

namespace s2 {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing key");
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::Aborted("conflict");
  Status t = s;
  EXPECT_TRUE(t.IsAborted());
  EXPECT_EQ(t.message(), "conflict");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

Result<int> UseAssignOrReturn(int x) {
  S2_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = ParsePositive(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 8);

  Result<int> err = ParsePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
  EXPECT_EQ(err.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*UseAssignOrReturn(3), 7);
  EXPECT_FALSE(UseAssignOrReturn(0).ok());
}

TEST(SliceTest, CompareAndEquality) {
  EXPECT_EQ(Slice("abc"), Slice("abc"));
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);
  EXPECT_GT(Slice("b").Compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice().empty());
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  const uint64_t cases[] = {0,    1,        127,        128,
                            300,  16383,    16384,      (1ULL << 32),
                            ~0ULL, (1ULL << 63), 0xdeadbeefULL};
  for (uint64_t v : cases) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : cases) {
    auto r = GetVarint64(&in);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  EXPECT_FALSE(GetVarint64(&in).ok());
}

TEST(CodingTest, ZigZag) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-12345},
                    INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Slice in(buf);
  EXPECT_EQ(GetLengthPrefixed(&in)->ToString(), "hello");
  EXPECT_EQ(GetLengthPrefixed(&in)->ToString(), "");
  EXPECT_EQ(GetLengthPrefixed(&in)->size(), 1000u);
}

TEST(BitVectorTest, SetGetCount) {
  BitVector bv(130);
  EXPECT_EQ(bv.Count(), 0u);
  bv.Set(0);
  bv.Set(64);
  bv.Set(129);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(129));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_EQ(bv.Count(), 3u);
  bv.Clear(64);
  EXPECT_FALSE(bv.Get(64));
  EXPECT_EQ(bv.Count(), 2u);
}

TEST(BitVectorTest, EncodeDecodeRoundTrip) {
  Rng rng(42);
  BitVector bv(257);
  for (int i = 0; i < 100; ++i) bv.Set(static_cast<uint32_t>(rng.Uniform(257)));
  std::string buf;
  bv.EncodeTo(&buf);
  Slice in(buf);
  auto r = BitVector::DecodeFrom(&in);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, bv);
  EXPECT_TRUE(in.empty());
}

TEST(BitVectorTest, UnionAndResize) {
  BitVector a(10), b(10);
  a.Set(1);
  b.Set(2);
  a.Union(b);
  EXPECT_TRUE(a.Get(1));
  EXPECT_TRUE(a.Get(2));
  a.Resize(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_TRUE(a.Get(1));
  EXPECT_FALSE(a.Get(99));
}

TEST(HashTest, DeterministicAndSpread) {
  EXPECT_EQ(Hash64("hello"), Hash64("hello"));
  EXPECT_NE(Hash64("hello"), Hash64("hellp"));
  EXPECT_NE(Hash64("a"), Hash64("b"));
  // Seed changes the hash.
  EXPECT_NE(Hash64("hello", 1), Hash64("hello", 2));
  // Spread check: hash many keys, expect few collisions in 64-bit space.
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    std::string key = "key" + std::to_string(i);
    seen.insert(Hash64(key));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(RngTest, DeterministicSequences) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformRangeBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
    }
    pool.Shutdown();  // every task accepted before Shutdown still runs
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, WaitIdleCoversTasksThatEnqueueMoreTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  // A chain: each task enqueues the next; WaitIdle must not return while
  // any link is still queued or running.
  std::function<void(int)> chain = [&](int depth) {
    count.fetch_add(1);
    if (depth > 0) pool.Submit([&chain, depth] { chain(depth - 1); });
  };
  ASSERT_TRUE(pool.Submit([&chain] { chain(20); }));
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 21);
}

TEST(ExecutorTest, ParallelForEmptyRange) {
  Executor exec(4);
  int calls = 0;
  EXPECT_TRUE(exec.ParallelFor(0, [&](size_t) {
    ++calls;
    return Status::OK();
  }).ok());
  EXPECT_EQ(calls, 0);
}

TEST(ExecutorTest, ParallelForVisitsEveryIndexOnce) {
  Executor exec(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ASSERT_TRUE(exec.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  }).ok());
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ExecutorTest, ParallelForPropagatesFirstErrorAndCancels) {
  Executor exec(4);
  CancelToken cancel;
  std::atomic<int> after_error{0};
  Status s = exec.ParallelFor(
      1000,
      [&](size_t i) -> Status {
        if (i == 3) return Status::Internal("boom");
        if (cancel.cancelled()) after_error.fetch_add(1);
        return Status::OK();
      },
      &cancel);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "boom");
  EXPECT_TRUE(cancel.cancelled());  // error trips the token for siblings
}

TEST(ExecutorTest, ParallelForPreCancelledAborts) {
  Executor exec(2);
  CancelToken cancel;
  cancel.Cancel();
  int calls = 0;
  Status s = exec.ParallelFor(
      10,
      [&](size_t) {
        ++calls;
        return Status::OK();
      },
      &cancel);
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(calls, 0);
}

TEST(ExecutorTest, NestedParallelForDoesNotDeadlock) {
  // Nested loops whose outer iterations occupy every pool thread: the
  // inner loops' helpers sit in the queue behind them. Each caller runs
  // the indexes no started helper claimed and never waits on a queued
  // helper, so every size completes, including 1 (all inline).
  for (size_t threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    Executor exec(threads);
    std::atomic<int> total{0};
    ASSERT_TRUE(exec.ParallelFor(8, [&](size_t) {
      return exec.ParallelFor(8, [&](size_t) {
        total.fetch_add(1);
        return Status::OK();
      });
    }).ok());
    EXPECT_EQ(total.load(), 64);
  }
}

TEST(ExecutorTest, SubmitWithResultDeliversValue) {
  Executor exec(2);
  auto fut = exec.SubmitWithResult([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ExecutorTest, SerialExecutorStillRunsLoops) {
  // The caller counts as one of the executor's threads, so a 1-thread
  // executor submits no helper task and runs every body on the caller.
  Executor exec(1);
  Counter& tasks = S2_COUNTER("s2_exec_tasks_total");
  const uint64_t tasks_before = tasks.value();
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> count{0};
  std::atomic<int> off_caller{0};
  ASSERT_TRUE(exec.ParallelFor(100, [&](size_t) {
    count.fetch_add(1);
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    return Status::OK();
  }).ok());
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(off_caller.load(), 0);
  exec.WaitIdle();
  EXPECT_EQ(tasks.value(), tasks_before);
}

TEST(ValueTest, CompareOrdering) {
  EXPECT_LT(Value::Null().Compare(Value(int64_t{0})), 0);
  EXPECT_EQ(Value(int64_t{5}).Compare(Value(int64_t{5})), 0);
  EXPECT_LT(Value(int64_t{4}).Compare(Value(int64_t{5})), 0);
  EXPECT_EQ(Value(int64_t{5}).Compare(Value(5.0)), 0);  // cross-numeric
  EXPECT_LT(Value(4.5).Compare(Value(int64_t{5})), 0);
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  // Numerics order before strings, deterministically.
  EXPECT_LT(Value(int64_t{5}).Compare(Value("5")), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{1}).Hash(), Value(1.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_NE(Value("x").Hash(), Value("y").Hash());
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  Row row = {Value::Null(), Value(int64_t{-42}), Value(3.25), Value("hi"),
             Value(std::string(500, 'z'))};
  std::string buf;
  for (const Value& v : row) v.EncodeTo(&buf);
  Slice in(buf);
  for (const Value& v : row) {
    auto r = Value::DecodeFrom(&in);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, v) << v.ToString();
  }
  EXPECT_TRUE(in.empty());
}

TEST(ValueTest, SameEncodingMatchesEncodeTo) {
  const Row values = {Value::Null(),   Value(int64_t{0}), Value(int64_t{1}),
                      Value(0.0),      Value(-0.0),       Value(1.0),
                      Value(""),       Value("1"),        Value("a"),
                      Value(int64_t{-1})};
  for (const Value& a : values) {
    std::string ea;
    a.EncodeTo(&ea);
    for (const Value& b : values) {
      std::string eb;
      b.EncodeTo(&eb);
      EXPECT_EQ(a.SameEncoding(b), ea == eb)
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(ValueTest, EncodeKeyDistinguishesTuples) {
  EXPECT_NE(EncodeKey(Row{Value("ab"), Value("c")}),
            EncodeKey(Row{Value("a"), Value("bc")}));
  EXPECT_EQ(EncodeKey(Row{Value(int64_t{1}), Value("x")}),
            EncodeKey(Row{Value(int64_t{1}), Value("x")}));
}

TEST(SchemaTest, FindColumn) {
  Schema schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
  EXPECT_EQ(*schema.FindColumn("id"), 0);
  EXPECT_EQ(*schema.FindColumn("name"), 1);
  EXPECT_FALSE(schema.FindColumn("absent").ok());
  EXPECT_EQ(schema.num_columns(), 2u);
}

class EnvFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = env_.MakeTempDir("s2-env-fault");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { (void)env_.RemoveDirRecursive(dir_); }

  FaultInjectionEnv env_;
  std::string dir_;
};

// WriteFileAtomic's crash-safety recipe, white-box: the temp file is
// written AND fsync'd before the rename, and the parent directory is
// fsync'd after — in that order. Skipping either step makes the rename
// non-durable (see the power-loss tests below).
TEST_F(EnvFaultTest, WriteFileAtomicSyncsTempThenRenamesThenSyncsDir) {
  std::string target = dir_ + "/target";
  ASSERT_TRUE(env_.WriteFileAtomic(target, "payload").ok());
  EXPECT_EQ(*env_.ReadFileToString(target), "payload");

  std::vector<EnvOp> ops;
  for (const auto& [op, path] : env_.History()) ops.push_back(op);
  std::vector<EnvOp> want = {EnvOp::kWrite, EnvOp::kSync, EnvOp::kRename,
                             EnvOp::kSyncDir};
  // `want` must appear as an ordered subsequence (MakeTempDir and the
  // read add other entries around it).
  size_t next = 0;
  for (EnvOp op : ops) {
    if (next < want.size() && op == want[next]) ++next;
  }
  EXPECT_EQ(next, want.size())
      << "temp write, temp fsync, rename, dir fsync must happen in order";
}

TEST_F(EnvFaultTest, WriteFileAtomicTempSyncFailureKeepsOldContents) {
  std::string target = dir_ + "/target";
  ASSERT_TRUE(env_.WriteFileAtomic(target, "old").ok());

  FaultSpec spec;
  spec.mode = FaultSpec::Mode::kError;
  env_.InjectFault(EnvOp::kSync, ".tmp", spec);
  EXPECT_FALSE(env_.WriteFileAtomic(target, "new").ok());
  EXPECT_TRUE(env_.FaultFired());
  EXPECT_EQ(*env_.ReadFileToString(target), "old");

  // Even after power loss the old contents survive: the failed update
  // never renamed over the target.
  ASSERT_TRUE(env_.DropUnsyncedData().ok());
  EXPECT_EQ(*env_.ReadFileToString(target), "old");
}

TEST_F(EnvFaultTest, WriteFileAtomicRenameFailureKeepsOldContents) {
  std::string target = dir_ + "/target";
  ASSERT_TRUE(env_.WriteFileAtomic(target, "old").ok());

  FaultSpec spec;
  spec.mode = FaultSpec::Mode::kError;
  env_.InjectFault(EnvOp::kRename, "/target", spec);
  EXPECT_FALSE(env_.WriteFileAtomic(target, "new").ok());
  EXPECT_EQ(*env_.ReadFileToString(target), "old");
}

// The parent-directory fsync is what makes the rename durable: when a
// lying device drops it and power is lost, the freshly renamed file
// vanishes — it never holds a partial write.
TEST_F(EnvFaultTest, WriteFileAtomicDroppedDirSyncLosesFileWholesale) {
  std::string target = dir_ + "/fresh";
  FaultSpec spec;
  spec.mode = FaultSpec::Mode::kDropSync;
  env_.InjectFault(EnvOp::kSyncDir, dir_, spec);
  ASSERT_TRUE(env_.WriteFileAtomic(target, "payload").ok());  // device lies
  EXPECT_TRUE(env_.FileExists(target));

  ASSERT_TRUE(env_.DropUnsyncedData().ok());
  EXPECT_FALSE(env_.FileExists(target))
      << "a rename without a durable dir entry must vanish at power loss";
}

// Control for the previous test: with every fsync honored, the atomic
// write survives power loss with its full contents.
TEST_F(EnvFaultTest, WriteFileAtomicSurvivesPowerLossIntact) {
  std::string target = dir_ + "/fresh";
  ASSERT_TRUE(env_.WriteFileAtomic(target, "payload").ok());
  ASSERT_TRUE(env_.DropUnsyncedData().ok());
  EXPECT_EQ(*env_.ReadFileToString(target), "payload");
}

TEST_F(EnvFaultTest, TornAppendWritesStrictPrefixThenFreezes) {
  std::string path = dir_ + "/file";
  ASSERT_TRUE(env_.AppendToFile(path, "0123456789", /*sync=*/true).ok());

  FaultSpec spec;
  spec.mode = FaultSpec::Mode::kTorn;
  spec.seed = 42;
  env_.InjectFault(EnvOp::kAppend, "/file", spec);
  EXPECT_FALSE(env_.AppendToFile(path, "abcdefghij", /*sync=*/true).ok());
  EXPECT_TRUE(env_.frozen());

  auto size = env_.FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_GE(*size, 10u);  // the synced first append is intact
  EXPECT_LT(*size, 20u);  // the torn append is a strict prefix

  // Frozen: mutating calls fail, reads still work (recovery code reads
  // the "disk image" after the crash).
  EXPECT_FALSE(env_.AppendToFile(path, "x", false).ok());
  EXPECT_TRUE(env_.ReadFileToString(path).ok());
  env_.Unfreeze();
  EXPECT_TRUE(env_.AppendToFile(path, "x", false).ok());
}

TEST_F(EnvFaultTest, DropUnsyncedDataTruncatesUnsyncedAppends) {
  std::string path = dir_ + "/log";
  ASSERT_TRUE(env_.AppendToFile(path, "synced", /*sync=*/true).ok());

  FaultSpec spec;
  spec.mode = FaultSpec::Mode::kDropSync;
  spec.count = 1 << 20;
  env_.InjectFault(EnvOp::kSync, "", spec);
  ASSERT_TRUE(env_.AppendToFile(path, "-lost", /*sync=*/true).ok());
  EXPECT_EQ(*env_.ReadFileToString(path), "synced-lost");

  ASSERT_TRUE(env_.DropUnsyncedData().ok());
  EXPECT_EQ(*env_.ReadFileToString(path), "synced");
}

TEST_F(EnvFaultTest, ErrorFaultHonorsSkipAndCount) {
  std::string path = dir_ + "/f";
  FaultSpec spec;
  spec.mode = FaultSpec::Mode::kError;
  spec.skip = 1;
  spec.count = 2;
  env_.InjectFault(EnvOp::kWrite, "/f", spec);
  EXPECT_TRUE(env_.WriteStringToFile(path, "a", false).ok());   // skipped
  EXPECT_FALSE(env_.WriteStringToFile(path, "b", false).ok());  // fires
  EXPECT_FALSE(env_.WriteStringToFile(path, "c", false).ok());  // fires
  EXPECT_TRUE(env_.WriteStringToFile(path, "d", false).ok());   // exhausted
  EXPECT_EQ(*env_.ReadFileToString(path), "d");
}

}  // namespace
}  // namespace s2
