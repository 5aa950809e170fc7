#ifndef S2_BLOB_DATA_FILE_STORE_H_
#define S2_BLOB_DATA_FILE_STORE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blob/blob_store.h"
#include "common/executor.h"
#include "common/result.h"

namespace s2 {

struct DataFileStoreOptions {
  /// Key prefix within the blob store (e.g. "db1/part3/files/").
  std::string blob_prefix;
  /// When non-empty, files are also persisted to this local directory
  /// ("local disk"), so a process restart recovers them without the blob
  /// store. Evicting a cold file removes its local copy too.
  std::string local_dir;
  /// Max bytes of file content kept in the local cache. Files that are not
  /// yet uploaded are pinned and never evicted regardless of this limit.
  size_t local_cache_bytes = 256ull << 20;
  /// When false, uploads only happen via DrainUploads() (deterministic
  /// tests); when true upload tasks are scheduled on `executor` (or the
  /// process-wide Executor::Default() when null) as files are written.
  bool background_uploads = true;
  /// Shared executor for background upload work. Not owned; must outlive
  /// the store. Null = Executor::Default().
  Executor* executor = nullptr;
  /// Filesystem for the local tier. Not owned; null = Env::Default().
  /// Tests inject a FaultInjectionEnv to fail segment-file writes.
  Env* env = nullptr;
};

/// Per-store counters; the StatCounter fields also feed their registry
/// counters.
struct DataFileStats {
  /// Reads served locally: from memory or from the local-disk copy.
  StatCounter local_hits{"s2_cache_local_hits_total"};
  /// Cold reads served by a successful blob Get.
  StatCounter blob_fetches{"s2_cache_misses_total"};
  std::atomic<uint64_t> files_written{0};
  std::atomic<uint64_t> files_uploaded{0};
  StatCounter files_evicted{"s2_cache_evictions_total"};
  /// Readers that joined another reader's in-flight fetch of the same file
  /// instead of issuing their own (single-flight coalescing).
  StatCounter coalesced_reads{"s2_cache_wait_total"};
  /// Failed uploads put back on the queue for a later retry.
  StatCounter upload_retries{"s2_blob_upload_retries_total"};
};

/// Manages the immutable columnstore data files of one partition across the
/// storage hierarchy: local cache ("local disk") and blob storage.
///
/// Paper Section 3.1 semantics:
///  - Write() stores the file locally and schedules an asynchronous upload;
///    the caller's commit never waits for the blob store.
///  - Read() serves from local cache; on miss it fetches from blob storage
///    on demand and re-caches.
///  - Cold files (uploaded + least recently used) are evicted from local
///    storage when the cache exceeds its budget, letting the partition hold
///    more data than fits on local disk.
///  - Remove() drops a file from local storage only; blob history is
///    retained, enabling point-in-time restore without explicit backups.
///
/// Background uploads run as tasks on the shared Executor (no private
/// thread): at most one "pump" task exists per store at a time; it drains
/// the upload queue and exits, and is rescheduled by the next Write. On an
/// upload error the pump parks (the file stays pinned and queued) until the
/// next Write or DrainUploads retries.
///
/// Works without a blob store too (`blob == nullptr`): then it behaves like
/// plain local storage and never evicts.
class DataFileStore {
 public:
  DataFileStore(BlobStore* blob, DataFileStoreOptions options);
  ~DataFileStore();

  DataFileStore(const DataFileStore&) = delete;
  DataFileStore& operator=(const DataFileStore&) = delete;

  /// Adds a newly created immutable file. Local-only until the async upload
  /// completes.
  Status Write(const std::string& name,
               std::shared_ptr<const std::string> data);

  /// Hook invoked on every Write: the cluster uses it to replicate data
  /// files to HA replicas as soon as they are written ("each file is
  /// replicated as soon as it's written on the master without need to wait
  /// for the transaction to commit", paper Section 3).
  using FileHook =
      std::function<void(const std::string&, std::shared_ptr<const std::string>)>;
  void SetFileHook(FileHook hook);

  /// Returns the file contents from local cache or blob storage.
  Result<std::shared_ptr<const std::string>> Read(const std::string& name);

  /// Whether the file is currently resident in local cache.
  bool IsLocal(const std::string& name) const;

  /// Drops the local copy (segment merged away / table dropped). The blob
  /// object is kept as history.
  Status Remove(const std::string& name);

  /// Blocks until every pending upload has been attempted once; returns the
  /// first upload error if any (files stay pinned and queued on failure).
  /// The caller's thread participates in draining the queue, so this is
  /// safe to call from an executor task (it never waits on a task that
  /// cannot be scheduled).
  Status DrainUploads();

  /// Number of files written but not yet uploaded.
  size_t PendingUploads() const;

  /// Age (env clock) of the oldest file still waiting for its blob upload;
  /// 0 when nothing is pending. Ages survive retry re-queues — the clock
  /// starts at the original enqueue — so a stuck blob store shows as
  /// monotonically growing age. This feeds the upload_queue_age watchdog.
  uint64_t OldestPendingUploadAgeNs() const;

  /// Evicts uploaded cold files until the cache is within its budget. Runs
  /// automatically after writes/uploads; exposed for tests.
  void EvictCold();

  /// Iterates every locally resident file (used to seed a new replica when
  /// no blob store exists to bootstrap from).
  void ForEachFile(
      const std::function<void(const std::string&,
                               std::shared_ptr<const std::string>)>& cb) const;

  const DataFileStats& stats() const { return stats_; }
  BlobStore* blob() const { return blob_; }
  const std::string& blob_prefix() const { return options_.blob_prefix; }

  /// Bytes of file content currently resident in the in-memory cache.
  size_t CachedBytes() const;

 private:
  struct Entry {
    std::shared_ptr<const std::string> data;  // null when evicted
    bool uploaded = false;
    std::list<std::string>::iterator lru_it;  // valid when data != null
  };

  /// Single-flight state for one cold read: the first reader (the leader)
  /// performs the disk/blob fetch while later readers of the same file wait
  /// on `cv` — without holding mu_, so cache hits on other files proceed
  /// while a slow blob backend is mid-fetch.
  struct InflightFetch {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Status status;  // fetch outcome; data valid iff ok
    std::shared_ptr<const std::string> data;
  };

  std::string BlobKey(const std::string& name) const {
    return options_.blob_prefix + name;
  }
  /// Submits the upload pump to the executor if it is not already queued
  /// or running. mu_ must be held.
  void SchedulePumpLocked();
  /// The executor task: drains the upload queue, then exits. At most one
  /// instance exists at a time (pump_scheduled_).
  void PumpUploads();
  /// One upload step, shared by the pump and DrainUploads: pops the front
  /// of the (non-empty) queue and uploads it with mu_ released. On failure
  /// the file goes back to the front, a retry is counted and the error is
  /// kept in last_upload_error_. `lock` holds mu_ on entry and on return.
  void UploadFrontLocked(std::unique_lock<std::mutex>* lock);
  Status UploadOne(const std::string& name);
  /// Changes cached_bytes_ and this store's share of the s2_cache_bytes
  /// gauge together. mu_ must be held.
  void AddCachedBytesLocked(int64_t delta);
  void TouchLocked(const std::string& name, Entry* entry);
  void EvictColdLocked();

  BlobStore* blob_;  // not owned; may be null
  DataFileStoreOptions options_;
  DataFileStats stats_;
  Executor* exec_ = nullptr;  // non-null iff background uploads are on
  Env* env_ = nullptr;        // resolved from options_.env in the ctor

  /// The leader's fetch for `name`; called without mu_ held.
  Result<std::shared_ptr<const std::string>> FetchAndInsert(
      const std::string& name);

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  std::unordered_map<std::string, Entry> files_;
  std::unordered_map<std::string, std::shared_ptr<InflightFetch>> inflight_;
  std::list<std::string> lru_;  // front = most recent
  std::deque<std::string> upload_queue_;
  /// First-enqueue timestamp per pending upload (kept across retries,
  /// erased on upload success / Remove).
  std::unordered_map<std::string, uint64_t> upload_enqueued_ns_;
  size_t cached_bytes_ = 0;
  FileHook file_hook_;
  bool shutdown_ = false;
  bool pump_scheduled_ = false;  // a pump task is queued or running
  size_t uploads_inflight_ = 0;  // UploadOne calls currently executing
  Status last_upload_error_;
};

}  // namespace s2

#endif  // S2_BLOB_DATA_FILE_STORE_H_
