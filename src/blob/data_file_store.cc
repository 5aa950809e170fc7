#include "blob/data_file_store.h"

#include <cassert>

#include "common/env.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "common/profile.h"

namespace s2 {

DataFileStore::DataFileStore(BlobStore* blob, DataFileStoreOptions options)
    : blob_(blob), options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  if (!options_.local_dir.empty()) (void)env_->CreateDirs(options_.local_dir);
  if (blob_ != nullptr && options_.background_uploads) {
    exec_ = options_.executor != nullptr ? options_.executor
                                         : Executor::Default();
  }
}

DataFileStore::~DataFileStore() {
  // No private thread to join; wait for the executor-scheduled pump (if
  // queued or running) to observe shutdown_ and exit, so no task touches
  // this store afterwards.
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  drain_cv_.wait(lock, [this] {
    return !pump_scheduled_ && uploads_inflight_ == 0;
  });
  // The gauge sums every store in the process; take this one's share out.
  AddCachedBytesLocked(-static_cast<int64_t>(cached_bytes_));
}

void DataFileStore::SetFileHook(FileHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  file_hook_ = std::move(hook);
}

void DataFileStore::SchedulePumpLocked() {
  if (exec_ == nullptr || pump_scheduled_ || shutdown_ ||
      upload_queue_.empty()) {
    return;
  }
  pump_scheduled_ = true;
  if (!exec_->Submit([this] { PumpUploads(); })) pump_scheduled_ = false;
}

void DataFileStore::PumpUploads() {
  std::unique_lock<std::mutex> lock(mu_);
  // Park on shutdown, an empty queue, or a sticky error (the file was
  // requeued; the next Write or DrainUploads retries).
  while (!shutdown_ && !upload_queue_.empty() && last_upload_error_.ok()) {
    UploadFrontLocked(&lock);
  }
  pump_scheduled_ = false;
  drain_cv_.notify_all();
}

void DataFileStore::UploadFrontLocked(std::unique_lock<std::mutex>* lock) {
  std::string name = std::move(upload_queue_.front());
  upload_queue_.pop_front();
  ++uploads_inflight_;
  lock->unlock();
  Status s = UploadOne(name);
  lock->lock();
  --uploads_inflight_;
  if (!s.ok()) {
    upload_queue_.push_front(std::move(name));
    stats_.upload_retries.Add();
    last_upload_error_ = s;
  }
  if (upload_queue_.empty() || !s.ok()) drain_cv_.notify_all();
}

void DataFileStore::AddCachedBytesLocked(int64_t delta) {
  cached_bytes_ += static_cast<size_t>(delta);
  S2_GAUGE("s2_cache_bytes").Add(delta);
}

Status DataFileStore::Write(const std::string& name,
                            std::shared_ptr<const std::string> data) {
  FileHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Reject a duplicate before the hook fires, so a losing writer's bytes
    // never reach replicas under the winner's name.
    auto it = files_.find(name);
    if (it != files_.end() && it->second.data != nullptr) {
      return Status::AlreadyExists("data file exists: " + name);
    }
    hook = file_hook_;
  }
  // Replicate outside the lock: the hook delivers to replica stores.
  if (hook) hook(name, data);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = files_.try_emplace(name);
  if (!inserted && it->second.data != nullptr) {
    return Status::AlreadyExists("data file exists: " + name);
  }
  if (!options_.local_dir.empty()) {
    // Persist to local disk so a process restart recovers the file without
    // the blob store (the paper's local-storage tier).
    Status s = env_->WriteFileAtomic(options_.local_dir + "/" + name, *data);
    if (!s.ok()) {
      if (inserted) files_.erase(it);
      return s;
    }
  }
  AddCachedBytesLocked(static_cast<int64_t>(data->size()));
  it->second.data = std::move(data);
  it->second.uploaded = false;
  lru_.push_front(name);
  it->second.lru_it = lru_.begin();
  stats_.files_written.fetch_add(1);
  if (blob_ != nullptr) {
    upload_queue_.push_back(name);
    upload_enqueued_ns_.try_emplace(name, env_->NowNs());
    // A retry on a parked error: give the queue another chance.
    last_upload_error_ = Status::OK();
    SchedulePumpLocked();
  }
  EvictColdLocked();
  return Status::OK();
}

Result<std::shared_ptr<const std::string>> DataFileStore::Read(
    const std::string& name) {
  std::shared_ptr<InflightFetch> fetch;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(name);
    if (it != files_.end() && it->second.data != nullptr) {
      stats_.local_hits.Add();
      ProfileCollector::CountHere("cache_mem_hits", 1);
      TouchLocked(name, &it->second);
      return it->second.data;
    }
    // Cold read. Single-flight: the first reader of a missing file becomes
    // the leader and performs the fetch; concurrent readers of the same
    // file share its result instead of issuing duplicate blob Gets.
    auto [fit, inserted] = inflight_.try_emplace(name);
    if (inserted) {
      fit->second = std::make_shared<InflightFetch>();
      leader = true;
    }
    fetch = fit->second;
  }

  if (!leader) {
    stats_.coalesced_reads.Add();
    // Wait on the fetch's own mutex/cv — never on mu_ — so a slow blob
    // backend only stalls readers of this file.
    std::unique_lock<std::mutex> flock(fetch->m);
    fetch->cv.wait(flock, [&fetch] { return fetch->done; });
    if (!fetch->status.ok()) return fetch->status;
    return fetch->data;
  }

  auto result = FetchAndInsert(name);
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(name);
  }
  {
    std::lock_guard<std::mutex> flock(fetch->m);
    fetch->done = true;
    if (result.ok()) {
      fetch->data = *result;
    } else {
      fetch->status = result.status();
    }
  }
  fetch->cv.notify_all();
  return result;
}

Result<std::shared_ptr<const std::string>> DataFileStore::FetchAndInsert(
    const std::string& name) {
  ScopedTimer timer(&S2_HISTOGRAM("s2_cache_fetch_ns"));
  // Memory miss: try the local disk copy, then blob storage (cold data
  // pulled on demand), then re-cache.
  std::string bytes;
  bool have_bytes = false;
  bool from_disk = false;
  if (!options_.local_dir.empty()) {
    std::string path = options_.local_dir + "/" + name;
    if (env_->FileExists(path)) {
      auto local = env_->ReadFileToString(path);
      if (local.ok()) {
        bytes = std::move(*local);
        have_bytes = true;
        from_disk = true;
        stats_.local_hits.Add();
        ProfileCollector::CountHere("cache_disk_hits", 1);
      }
    }
  }
  if (!have_bytes) {
    if (blob_ == nullptr) {
      timer.Cancel();
      return Status::NotFound("no data file " + name);
    }
    ScopedTimer blob_timer(nullptr);
    auto fetched = blob_->Get(BlobKey(name));
    if (!fetched.ok()) {
      timer.Cancel();
      return fetched.status();
    }
    bytes = std::move(*fetched);
    stats_.blob_fetches.Add();
    ProfileCollector::CountHere("blob_fetches", 1);
    ProfileCollector::CountHere("blob_fetch_wait_ns", blob_timer.ElapsedNs());
  }
  // A disk-recovered file may not have been uploaded before the crash;
  // probe blob existence *before* taking mu_ (the probe may be a remote
  // round-trip) so the cache stays responsive during it. A blob-fetched
  // file trivially exists in the blob store; skip the probe.
  bool in_blob = !from_disk;
  if (from_disk && blob_ != nullptr) in_blob = blob_->Exists(BlobKey(name));

  auto data = std::make_shared<const std::string>(std::move(bytes));
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = files_[name];
  if (entry.data == nullptr) {
    entry.data = data;
    entry.uploaded = blob_ != nullptr && in_blob;
    if (blob_ != nullptr && !entry.uploaded) {
      // Re-queue so blob history stays complete.
      upload_queue_.push_back(name);
      upload_enqueued_ns_.try_emplace(name, env_->NowNs());
      SchedulePumpLocked();
    }
    AddCachedBytesLocked(static_cast<int64_t>(data->size()));
    lru_.push_front(name);
    entry.lru_it = lru_.begin();
    EvictColdLocked();
  }
  return entry.data != nullptr ? entry.data : data;
}

bool DataFileStore::IsLocal(const std::string& name) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(name);
    if (it != files_.end() && it->second.data != nullptr) return true;
  }
  return !options_.local_dir.empty() &&
         env_->FileExists(options_.local_dir + "/" + name);
}

Status DataFileStore::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no data file " + name);
  if (it->second.data != nullptr) {
    AddCachedBytesLocked(-static_cast<int64_t>(it->second.data->size()));
    lru_.erase(it->second.lru_it);
  }
  files_.erase(it);
  upload_enqueued_ns_.erase(name);
  if (!options_.local_dir.empty()) {
    std::string path = options_.local_dir + "/" + name;
    if (env_->FileExists(path)) (void)env_->RemoveFile(path);
  }
  // Blob object intentionally retained: history for PITR.
  return Status::OK();
}

Status DataFileStore::DrainUploads() {
  if (blob_ == nullptr) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  // A stale error from a parked pump is retried below, not re-reported.
  last_upload_error_ = Status::OK();
  // The calling thread drains the queue itself, cooperating with any
  // running pump task through the shared queue. It therefore never blocks
  // on a task that cannot be scheduled (safe inside executor tasks).
  for (;;) {
    // Our attempt failed, or a concurrent pump attempt did.
    if (!last_upload_error_.ok()) return last_upload_error_;
    if (!upload_queue_.empty()) {
      UploadFrontLocked(&lock);
    } else if (uploads_inflight_ == 0) {
      return Status::OK();
    } else {
      drain_cv_.wait(lock);  // a pump attempt is mid-flight; let it land
    }
  }
}

size_t DataFileStore::PendingUploads() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [name, entry] : files_) {
    if (!entry.uploaded) ++n;
  }
  return n;
}

uint64_t DataFileStore::OldestPendingUploadAgeNs() const {
  // Read the clock before taking mu_ (an injected env clock has its own
  // mutex; keep the two un-nested).
  uint64_t now = env_->NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t oldest = UINT64_MAX;
  for (const auto& [name, ts] : upload_enqueued_ns_) {
    if (ts < oldest) oldest = ts;
  }
  if (oldest == UINT64_MAX || oldest >= now) return 0;
  return now - oldest;
}

void DataFileStore::EvictCold() {
  std::lock_guard<std::mutex> lock(mu_);
  EvictColdLocked();
}

size_t DataFileStore::CachedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_bytes_;
}

void DataFileStore::ForEachFile(
    const std::function<void(const std::string&,
                             std::shared_ptr<const std::string>)>& cb) const {
  std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>
      resident;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : files_) {
      if (entry.data != nullptr) resident.emplace_back(name, entry.data);
    }
  }
  for (auto& [name, data] : resident) cb(name, data);
}

Status DataFileStore::UploadOne(const std::string& name) {
  std::shared_ptr<const std::string> data;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(name);
    if (it == files_.end() || it->second.uploaded) return Status::OK();
    data = it->second.data;
  }
  assert(data != nullptr);
  S2_RETURN_NOT_OK(blob_->Put(BlobKey(name), *data));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it != files_.end()) {
    it->second.uploaded = true;
    stats_.files_uploaded.fetch_add(1);
  }
  upload_enqueued_ns_.erase(name);
  EvictColdLocked();
  return Status::OK();
}

void DataFileStore::TouchLocked(const std::string& name, Entry* entry) {
  lru_.erase(entry->lru_it);
  lru_.push_front(name);
  entry->lru_it = lru_.begin();
}

void DataFileStore::EvictColdLocked() {
  if (blob_ == nullptr) return;  // nothing backs the data; never evict
  size_t evicted = 0;
  size_t evicted_bytes = 0;
  auto it = lru_.end();
  while (cached_bytes_ > options_.local_cache_bytes && it != lru_.begin()) {
    --it;
    auto fit = files_.find(*it);
    assert(fit != files_.end());
    if (!fit->second.uploaded || fit->second.data == nullptr) {
      continue;  // pinned until uploaded
    }
    evicted_bytes += fit->second.data->size();
    AddCachedBytesLocked(-static_cast<int64_t>(fit->second.data->size()));
    fit->second.data = nullptr;
    if (!options_.local_dir.empty()) {
      // Cold + uploaded: drop the local-disk copy too; it can always be
      // re-fetched from blob storage.
      std::string path = options_.local_dir + "/" + fit->first;
      if (env_->FileExists(path)) (void)env_->RemoveFile(path);
    }
    stats_.files_evicted.Add();
    ++evicted;
    it = lru_.erase(it);
  }
  if (evicted > 0) {
    S2_JOURNAL("storage", "eviction",
               "prefix=" + options_.blob_prefix +
                   " files=" + std::to_string(evicted) +
                   " bytes=" + std::to_string(evicted_bytes) +
                   " cached_bytes=" + std::to_string(cached_bytes_));
  }
}

}  // namespace s2
