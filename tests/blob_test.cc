#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blob/blob_store.h"
#include "blob/data_file_store.h"
#include "common/env.h"
#include "common/metrics.h"

namespace s2 {
namespace {

std::shared_ptr<const std::string> Bytes(std::string s) {
  return std::make_shared<const std::string>(std::move(s));
}

TEST(MemBlobStoreTest, PutGetDeleteList) {
  MemBlobStore blob;
  ASSERT_TRUE(blob.Put("a/1", "one").ok());
  ASSERT_TRUE(blob.Put("a/2", "two").ok());
  ASSERT_TRUE(blob.Put("b/1", "three").ok());

  EXPECT_EQ(*blob.Get("a/1"), "one");
  EXPECT_TRUE(blob.Get("a/9").status().IsNotFound());
  EXPECT_TRUE(blob.Exists("b/1"));

  auto listed = blob.List("a/");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, (std::vector<std::string>{"a/1", "a/2"}));

  ASSERT_TRUE(blob.Delete("a/1").ok());
  EXPECT_FALSE(blob.Exists("a/1"));
}

TEST(MemBlobStoreTest, OutageInjection) {
  MemBlobStore blob;
  ASSERT_TRUE(blob.Put("k", "v").ok());
  blob.set_available(false);
  EXPECT_TRUE(blob.Put("k2", "v").IsUnavailable());
  EXPECT_TRUE(blob.Get("k").status().IsUnavailable());
  blob.set_available(true);
  EXPECT_EQ(*blob.Get("k"), "v");
}

TEST(MemBlobStoreTest, StatsCount) {
  MemBlobStore blob;
  ASSERT_TRUE(blob.Put("k", "12345").ok());
  (void)*blob.Get("k");
  EXPECT_EQ(blob.stats().puts.load(), 1u);
  EXPECT_EQ(blob.stats().gets.load(), 1u);
  EXPECT_EQ(blob.stats().bytes_uploaded.load(), 5u);
  EXPECT_EQ(blob.stats().bytes_downloaded.load(), 5u);
}

TEST(LocalDirBlobStoreTest, RoundTrip) {
  auto dir = MakeTempDir("s2-blobdir");
  ASSERT_TRUE(dir.ok());
  LocalDirBlobStore blob(*dir);
  ASSERT_TRUE(blob.Put("db/part0/file_1", "contents").ok());
  EXPECT_EQ(*blob.Get("db/part0/file_1"), "contents");
  EXPECT_TRUE(blob.Exists("db/part0/file_1"));
  auto listed = blob.List("db/");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 1u);
  ASSERT_TRUE(blob.Delete("db/part0/file_1").ok());
  EXPECT_FALSE(blob.Exists("db/part0/file_1"));
  (void)RemoveDirRecursive(*dir);
}

DataFileStoreOptions SyncOptions() {
  DataFileStoreOptions opts;
  opts.blob_prefix = "part0/";
  opts.background_uploads = false;
  return opts;
}

TEST(DataFileStoreTest, WriteIsLocalUploadIsAsync) {
  MemBlobStore blob;
  DataFileStore store(&blob, SyncOptions());
  ASSERT_TRUE(store.Write("f1", Bytes("data1")).ok());
  // Commit path: zero blob writes so far.
  EXPECT_EQ(blob.stats().puts.load(), 0u);
  EXPECT_EQ(store.PendingUploads(), 1u);
  EXPECT_TRUE(store.IsLocal("f1"));

  ASSERT_TRUE(store.DrainUploads().ok());
  EXPECT_EQ(blob.stats().puts.load(), 1u);
  EXPECT_EQ(store.PendingUploads(), 0u);
  EXPECT_TRUE(blob.Exists("part0/f1"));
}

TEST(DataFileStoreTest, ReadThroughAfterEviction) {
  MemBlobStore blob;
  auto opts = SyncOptions();
  opts.local_cache_bytes = 10;  // tiny cache forces eviction
  DataFileStore store(&blob, opts);
  ASSERT_TRUE(store.Write("f1", Bytes(std::string(8, 'a'))).ok());
  ASSERT_TRUE(store.Write("f2", Bytes(std::string(8, 'b'))).ok());
  // Not yet uploaded: both pinned despite cache pressure.
  EXPECT_TRUE(store.IsLocal("f1"));
  EXPECT_TRUE(store.IsLocal("f2"));

  ASSERT_TRUE(store.DrainUploads().ok());
  store.EvictCold();
  // Cache budget is 10 bytes; at least one file must have been evicted.
  EXPECT_TRUE(!store.IsLocal("f1") || !store.IsLocal("f2"));

  auto f1 = store.Read("f1");
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(**f1, std::string(8, 'a'));
  EXPECT_GE(store.stats().blob_fetches.load() +
                store.stats().local_hits.load(),
            1u);
}

TEST(DataFileStoreTest, UploadFailureKeepsFilePinned) {
  MemBlobStore blob;
  auto opts = SyncOptions();
  opts.local_cache_bytes = 1;  // pressure on, but unuploaded files pinned
  DataFileStore store(&blob, opts);
  blob.set_available(false);
  ASSERT_TRUE(store.Write("f1", Bytes("important")).ok());
  EXPECT_TRUE(store.DrainUploads().IsUnavailable());
  // Blob outage must not lose the file or evict it.
  EXPECT_TRUE(store.IsLocal("f1"));
  EXPECT_EQ(**store.Read("f1"), "important");

  blob.set_available(true);
  ASSERT_TRUE(store.DrainUploads().ok());
  EXPECT_TRUE(blob.Exists("part0/f1"));
}

TEST(DataFileStoreTest, SteadyStateSurvivesOutageWithinWorkingSet) {
  MemBlobStore blob;
  DataFileStore store(&blob, SyncOptions());
  ASSERT_TRUE(store.Write("hot", Bytes("hot-data")).ok());
  ASSERT_TRUE(store.DrainUploads().ok());

  blob.set_available(false);
  // Reads within the cached working set keep working through the outage.
  auto r = store.Read("hot");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, "hot-data");
  // New writes also keep working (local-first, upload deferred).
  ASSERT_TRUE(store.Write("new", Bytes("new-data")).ok());
  EXPECT_EQ(**store.Read("new"), "new-data");
}

TEST(DataFileStoreTest, RemoveKeepsBlobHistory) {
  MemBlobStore blob;
  DataFileStore store(&blob, SyncOptions());
  ASSERT_TRUE(store.Write("f1", Bytes("v")).ok());
  ASSERT_TRUE(store.DrainUploads().ok());
  ASSERT_TRUE(store.Remove("f1").ok());
  EXPECT_FALSE(store.IsLocal("f1"));
  // History retained in blob for PITR.
  EXPECT_TRUE(blob.Exists("part0/f1"));
  // And still readable (re-fetched from history).
  EXPECT_EQ(**store.Read("f1"), "v");
}

TEST(DataFileStoreTest, DuplicateWriteRejected) {
  MemBlobStore blob;
  DataFileStore store(&blob, SyncOptions());
  std::vector<std::string> replicated;
  store.SetFileHook(
      [&](const std::string&, std::shared_ptr<const std::string> data) {
        replicated.push_back(*data);
      });
  ASSERT_TRUE(store.Write("f1", Bytes("v")).ok());
  EXPECT_TRUE(store.Write("f1", Bytes("w")).IsAlreadyExists());
  // The rejected write never reaches replicas.
  EXPECT_EQ(replicated, std::vector<std::string>{"v"});
}

TEST(DataFileStoreTest, CacheBytesGaugeSumsEveryStore) {
  // s2_cache_bytes is process-wide: with a partition and its replicas each
  // owning a store, it must read their total, not the last writer's size.
  Gauge* gauge = MetricsRegistry::Global()->gauge("s2_cache_bytes");
  const int64_t base = gauge->value();
  const std::string a(300, 'a');
  const std::string b(70, 'b');
  MemBlobStore blob;
  auto first = std::make_unique<DataFileStore>(&blob, SyncOptions());
  DataFileStore second(nullptr, SyncOptions());
  ASSERT_TRUE(first->Write("fa", Bytes(a)).ok());
  ASSERT_TRUE(second.Write("fb", Bytes(b)).ok());
  EXPECT_EQ(gauge->value() - base, static_cast<int64_t>(a.size() + b.size()));
  first.reset();
  EXPECT_EQ(gauge->value() - base, static_cast<int64_t>(b.size()));
  ASSERT_TRUE(second.Remove("fb").ok());
  EXPECT_EQ(gauge->value(), base);
}

// Every stats field bound to a registry counter moves that counter by
// exactly its own delta: over puts, gets, a delete, an upload retry, a
// memory hit, evictions, a cold re-read and a failed cold read (a blob Get
// error, which is not a fetch).
TEST(DataFileStoreTest, StatsFieldsAgreeWithRegistryCounters) {
  MemBlobStore blob;
  auto opts = SyncOptions();
  opts.local_cache_bytes = 10;  // one 8-byte file fits
  DataFileStore store(&blob, opts);
  const BlobStats& b = blob.stats();
  const DataFileStats& f = store.stats();
  const std::vector<std::pair<const char*, std::function<uint64_t()>>> bound =
      {
          {"s2_blob_put_total", [&] { return b.puts.load(); }},
          {"s2_blob_get_total", [&] { return b.gets.load(); }},
          {"s2_blob_delete_total", [&] { return b.deletes.load(); }},
          {"s2_blob_put_bytes_total", [&] { return b.bytes_uploaded.load(); }},
          {"s2_blob_get_bytes_total",
           [&] { return b.bytes_downloaded.load(); }},
          {"s2_cache_local_hits_total", [&] { return f.local_hits.load(); }},
          {"s2_cache_misses_total", [&] { return f.blob_fetches.load(); }},
          {"s2_cache_evictions_total", [&] { return f.files_evicted.load(); }},
          {"s2_cache_wait_total", [&] { return f.coalesced_reads.load(); }},
          {"s2_blob_upload_retries_total",
           [&] { return f.upload_retries.load(); }},
      };
  MetricsRegistry* reg = MetricsRegistry::Global();
  std::vector<uint64_t> before;
  for (const auto& [metric, field] : bound) {
    before.push_back(reg->counter(metric)->value());
  }

  blob.FailNextPuts(1);
  ASSERT_TRUE(store.Write("f1", Bytes(std::string(8, 'a'))).ok());
  ASSERT_TRUE(store.Write("f2", Bytes(std::string(8, 'b'))).ok());
  EXPECT_FALSE(store.DrainUploads().ok());  // the first upload is retried
  ASSERT_TRUE(store.DrainUploads().ok());   // uploaded: f1 is evicted
  EXPECT_FALSE(store.IsLocal("f1"));
  EXPECT_EQ(**store.Read("f2"), std::string(8, 'b'));  // memory hit
  EXPECT_EQ(**store.Read("f1"), std::string(8, 'a'));  // cold; evicts f2
  blob.FailNextGets(1);
  EXPECT_FALSE(store.Read("f2").ok());  // failed cold read
  ASSERT_TRUE(blob.Put("x", "xyz").ok());
  EXPECT_EQ(*blob.Get("x"), "xyz");
  ASSERT_TRUE(blob.Delete("x").ok());

  EXPECT_EQ(f.upload_retries.load(), 1u);
  EXPECT_EQ(f.local_hits.load(), 1u);
  EXPECT_EQ(f.blob_fetches.load(), 1u);
  EXPECT_EQ(f.files_evicted.load(), 2u);
  for (size_t i = 0; i < bound.size(); ++i) {
    const auto& [metric, field] = bound[i];
    EXPECT_EQ(reg->counter(metric)->value() - before[i], field()) << metric;
  }
}

TEST(DataFileStoreTest, WorksWithoutBlobStore) {
  DataFileStore store(nullptr, SyncOptions());
  ASSERT_TRUE(store.Write("f1", Bytes("local-only")).ok());
  EXPECT_EQ(**store.Read("f1"), "local-only");
  EXPECT_TRUE(store.DrainUploads().ok());
  EXPECT_TRUE(store.Read("missing").status().IsNotFound());
}

TEST(MemBlobStoreTest, ScriptedFailureSchedule) {
  MemBlobStore blob;
  blob.ScriptPutFailures({true, false, true});
  EXPECT_TRUE(blob.Put("a", "1").IsUnavailable());
  EXPECT_TRUE(blob.Put("b", "2").ok());
  EXPECT_TRUE(blob.Put("c", "3").IsUnavailable());
  EXPECT_TRUE(blob.Put("d", "4").ok());  // schedule exhausted: back to normal
  EXPECT_FALSE(blob.Exists("a"));        // failed puts store nothing
  EXPECT_TRUE(blob.Exists("b"));
  EXPECT_EQ(blob.stats().puts.load(), 2u);  // only successes counted

  blob.FailNextGets(1);
  EXPECT_TRUE(blob.Get("b").status().IsUnavailable());
  EXPECT_EQ(*blob.Get("b"), "2");
}

// The first N uploads fail on a script; every DrainUploads retry makes
// progress and once the schedule is exhausted all files land in blob
// storage — each uploaded exactly once, never dropped, never duplicated.
TEST(DataFileStoreTest, ScriptedPutFailuresRetryUploadsExactlyOnce) {
  MemBlobStore blob;
  DataFileStore store(&blob, SyncOptions());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Write("f" + std::to_string(i), Bytes("data")).ok());
  }
  blob.FailNextPuts(3);
  int failed_drains = 0;
  Status s;
  for (int attempt = 0; attempt < 10; ++attempt) {
    s = store.DrainUploads();
    if (s.ok()) break;
    EXPECT_TRUE(s.IsUnavailable());
    ++failed_drains;
  }
  ASSERT_TRUE(s.ok()) << "DrainUploads never succeeded: " << s.ToString();
  EXPECT_EQ(failed_drains, 3);  // one parked drain per scripted failure
  EXPECT_EQ(store.PendingUploads(), 0u);
  EXPECT_EQ(store.stats().files_uploaded.load(), 5u);
  EXPECT_EQ(blob.stats().puts.load(), 5u);  // exactly once each
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(blob.Exists("part0/f" + std::to_string(i)));
  }
}

// Background-upload flavor: the pump hits a scripted failure, parks (no
// busy retry loop against a down blob store), and later retries triggered
// by Write/DrainUploads finish the job exactly once.
TEST(DataFileStoreTest, BackgroundPumpParksOnFailureThenRecovers) {
  MemBlobStore blob;
  DataFileStoreOptions opts;
  opts.blob_prefix = "p/";
  opts.background_uploads = true;
  DataFileStore store(&blob, opts);
  blob.FailNextPuts(2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.Write("f" + std::to_string(i), Bytes("data")).ok());
  }
  // The background pump and these drains race for the scripted failures;
  // regardless of interleaving, a few retries must finish the uploads.
  Status s;
  for (int attempt = 0; attempt < 10; ++attempt) {
    s = store.DrainUploads();
    if (s.ok()) break;
    EXPECT_TRUE(s.IsUnavailable());
  }
  ASSERT_TRUE(s.ok()) << "uploads never recovered: " << s.ToString();
  EXPECT_EQ(store.PendingUploads(), 0u);
  EXPECT_EQ(store.stats().files_uploaded.load(), 4u);
  EXPECT_EQ(blob.stats().puts.load(), 4u);  // exactly once each
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(blob.Exists("p/f" + std::to_string(i)));
  }
}

TEST(DataFileStoreTest, BackgroundUploaderDrains) {
  MemBlobStore blob;
  DataFileStoreOptions opts;
  opts.blob_prefix = "p/";
  opts.background_uploads = true;
  DataFileStore store(&blob, opts);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.Write("f" + std::to_string(i), Bytes("data")).ok());
  }
  ASSERT_TRUE(store.DrainUploads().ok());
  EXPECT_EQ(store.PendingUploads(), 0u);
  EXPECT_EQ(blob.stats().puts.load(), 20u);
}

// A blob store whose Get first waits until `get_gate` returns true (for at
// most 10 s, so a gate that never opens fails the test instead of hanging).
class GatedBlobStore : public MemBlobStore {
 public:
  std::function<bool()> get_gate;

 protected:
  Result<std::string> DoGet(const std::string& key) override {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (get_gate != nullptr && !get_gate() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return MemBlobStore::DoGet(key);
  }
};

// Regression: concurrent cold reads of the same file must coalesce into one
// blob Get (single-flight). The Get holds until every other reader has
// joined it, so the check does not depend on thread start-up timing.
TEST(DataFileStoreTest, ConcurrentColdReadsSingleFlight) {
  GatedBlobStore blob;
  auto opts = SyncOptions();
  opts.local_cache_bytes = 4;  // smaller than the file: evictable once cold
  DataFileStore store(&blob, opts);
  const std::string payload(64, 'x');
  ASSERT_TRUE(store.Write("cold", Bytes(payload)).ok());
  ASSERT_TRUE(store.DrainUploads().ok());
  store.EvictCold();
  ASSERT_FALSE(store.IsLocal("cold"));
  uint64_t gets_before = blob.stats().gets.load();

  constexpr int kReaders = 8;
  blob.get_gate = [&] {
    return store.stats().coalesced_reads.load() >=
           static_cast<uint64_t>(kReaders - 1);
  };
  std::atomic<int> ok_count{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      auto r = store.Read("cold");
      if (r.ok() && **r == payload) ok_count.fetch_add(1);
    });
  }
  for (auto& t : readers) t.join();

  EXPECT_EQ(ok_count.load(), kReaders);
  // The leader's fetch served everyone: exactly one blob Get.
  EXPECT_EQ(blob.stats().gets.load() - gets_before, 1u);
  EXPECT_GE(store.stats().coalesced_reads.load(),
            static_cast<uint64_t>(kReaders - 1));
}

// A failed single-flight fetch must propagate the error to every waiter and
// leave the store usable (the next read retries).
TEST(DataFileStoreTest, SingleFlightPropagatesFetchError) {
  MemBlobStore blob;
  auto opts = SyncOptions();
  opts.local_cache_bytes = 1;
  DataFileStore store(&blob, opts);
  ASSERT_TRUE(store.Write("f", Bytes(std::string(32, 'z'))).ok());
  ASSERT_TRUE(store.DrainUploads().ok());
  store.EvictCold();
  ASSERT_FALSE(store.IsLocal("f"));

  blob.set_get_latency_us(5000);
  blob.FailNextGets(1);  // the leader's Get fails; followers share the error
  constexpr int kReaders = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      if (!store.Read("f").ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : readers) t.join();
  // All readers in the failed flight saw the error... unless a late reader
  // started a second (successful) flight after the first completed; either
  // way at least the leader failed and the store must recover below.
  EXPECT_GE(failures.load(), 1);

  blob.set_get_latency_us(0);
  auto r = store.Read("f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, std::string(32, 'z'));
}

// Stress: cold reads racing evictions and writes with a slow blob backend.
// Checks single-fetch behaviour in aggregate, cached_bytes_ accounting, the
// cache budget, and that nothing deadlocks.
TEST(DataFileStoreTest, ConcurrentColdReadEvictionStress) {
  MemBlobStore blob;
  auto opts = SyncOptions();
  const size_t file_size = 128;
  const int num_files = 8;
  opts.local_cache_bytes = 2 * file_size;  // holds ~2 of 8 files
  DataFileStore store(&blob, opts);
  std::vector<std::string> names;
  for (int i = 0; i < num_files; ++i) {
    names.push_back("f" + std::to_string(i));
    ASSERT_TRUE(
        store.Write(names.back(), Bytes(std::string(file_size, 'a' + i)))
            .ok());
  }
  ASSERT_TRUE(store.DrainUploads().ok());
  store.EvictCold();
  EXPECT_LE(store.CachedBytes(), opts.local_cache_bytes);

  blob.set_get_latency_us(500);
  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 40;
  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        // Deterministic per-thread pattern spreading load over all files.
        const std::string& name = names[(t * 3 + i) % num_files];
        auto r = store.Read(name);
        if (!r.ok() ||
            (*r)->front() != static_cast<char>('a' + (t * 3 + i) % num_files)) {
          errors.fetch_add(1);
        }
        if (i % 16 == 0) store.EvictCold();
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(errors.load(), 0);

  // cached_bytes_ must equal the sum of resident file sizes...
  size_t resident = 0;
  store.ForEachFile([&](const std::string&,
                        std::shared_ptr<const std::string> data) {
    resident += data->size();
  });
  EXPECT_EQ(store.CachedBytes(), resident);
  // ...and after a final eviction pass the budget holds again.
  store.EvictCold();
  EXPECT_LE(store.CachedBytes(), opts.local_cache_bytes);

  // Single-flight in aggregate: every blob Get was a real miss, never more
  // Gets than reads issued, and the store still serves reads afterwards.
  blob.set_get_latency_us(0);
  for (const auto& name : names) {
    auto r = store.Read(name);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)->size(), file_size);
  }
}

}  // namespace
}  // namespace s2
