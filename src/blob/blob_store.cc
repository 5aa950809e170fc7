#include "blob/blob_store.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common/env.h"
#include "common/metrics.h"

namespace s2 {

namespace {
void MaybeSleepUs(uint64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}
}  // namespace

// --- BlobStore (instrumented wrappers) ---

Status BlobStore::Put(const std::string& key, const std::string& data) {
  ScopedTimer timer(&S2_HISTOGRAM("s2_blob_put_ns"));
  Status s = DoPut(key, data);
  if (s.ok()) {
    stats_.puts.Add();
    stats_.bytes_uploaded.Add(data.size());
  } else {
    timer.Cancel();  // keep the success-latency histogram clean
    S2_COUNTER("s2_blob_put_errors_total").Add();
  }
  return s;
}

Result<std::string> BlobStore::Get(const std::string& key) {
  ScopedTimer timer(&S2_HISTOGRAM("s2_blob_get_ns"));
  Result<std::string> r = DoGet(key);
  if (r.ok()) {
    stats_.gets.Add();
    stats_.bytes_downloaded.Add(r->size());
  } else {
    timer.Cancel();
    S2_COUNTER("s2_blob_get_errors_total").Add();
  }
  return r;
}

Status BlobStore::Delete(const std::string& key) {
  Status s = DoDelete(key);
  if (s.ok()) stats_.deletes.Add();
  return s;
}

Result<std::vector<std::string>> BlobStore::List(const std::string& prefix) {
  return DoList(prefix);
}

bool BlobStore::Exists(const std::string& key) {
  S2_COUNTER("s2_blob_exists_total").Add();
  return DoExists(key);
}

// --- MemBlobStore ---

Status MemBlobStore::CheckAvailable() const {
  if (!available_.load()) {
    return Status::Unavailable("blob store outage (injected)");
  }
  return Status::OK();
}

bool MemBlobStore::ConsumeScript(std::deque<bool>* schedule) {
  if (schedule->empty()) return false;
  bool fail = schedule->front();
  schedule->pop_front();
  return fail;
}

void MemBlobStore::ScriptPutFailures(std::vector<bool> schedule) {
  std::lock_guard<std::mutex> lock(mu_);
  put_failures_.assign(schedule.begin(), schedule.end());
}

void MemBlobStore::FailNextPuts(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  put_failures_.assign(n, true);
}

void MemBlobStore::ScriptGetFailures(std::vector<bool> schedule) {
  std::lock_guard<std::mutex> lock(mu_);
  get_failures_.assign(schedule.begin(), schedule.end());
}

void MemBlobStore::FailNextGets(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  get_failures_.assign(n, true);
}

Status MemBlobStore::DoPut(const std::string& key, const std::string& data) {
  S2_RETURN_NOT_OK(CheckAvailable());
  MaybeSleepUs(put_latency_us_.load());
  std::lock_guard<std::mutex> lock(mu_);
  if (ConsumeScript(&put_failures_)) {
    return Status::Unavailable("blob put failure (scripted): " + key);
  }
  objects_[key] = data;
  return Status::OK();
}

Result<std::string> MemBlobStore::DoGet(const std::string& key) {
  S2_RETURN_NOT_OK(CheckAvailable());
  MaybeSleepUs(get_latency_us_.load());
  std::lock_guard<std::mutex> lock(mu_);
  if (ConsumeScript(&get_failures_)) {
    return Status::Unavailable("blob get failure (scripted): " + key);
  }
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::NotFound("no blob object " + key);
  return it->second;
}

Status MemBlobStore::DoDelete(const std::string& key) {
  S2_RETURN_NOT_OK(CheckAvailable());
  std::lock_guard<std::mutex> lock(mu_);
  objects_.erase(key);
  return Status::OK();
}

Result<std::vector<std::string>> MemBlobStore::DoList(
    const std::string& prefix) {
  S2_RETURN_NOT_OK(CheckAvailable());
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  for (auto it = objects_.lower_bound(prefix);
       it != objects_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    keys.push_back(it->first);
  }
  return keys;
}

bool MemBlobStore::DoExists(const std::string& key) {
  if (!available_.load()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return objects_.count(key) > 0;
}

// --- LocalDirBlobStore ---

LocalDirBlobStore::LocalDirBlobStore(std::string root, Env* env)
    : root_(std::move(root)), env_(env != nullptr ? env : Env::Default()) {
  (void)env_->CreateDirs(root_);
}

std::string LocalDirBlobStore::PathFor(const std::string& key) const {
  // Keys may contain '/', which maps to subdirectories.
  return root_ + "/" + key;
}

Status LocalDirBlobStore::DoPut(const std::string& key,
                              const std::string& data) {
  std::string path = PathFor(key);
  auto slash = path.find_last_of('/');
  S2_RETURN_NOT_OK(env_->CreateDirs(path.substr(0, slash)));
  S2_RETURN_NOT_OK(env_->WriteFileAtomic(path, data));
  return Status::OK();
}

Result<std::string> LocalDirBlobStore::DoGet(const std::string& key) {
  std::string path = PathFor(key);
  if (!env_->FileExists(path)) return Status::NotFound("no blob object " + key);
  S2_ASSIGN_OR_RETURN(std::string data, env_->ReadFileToString(path));
  return data;
}

Status LocalDirBlobStore::DoDelete(const std::string& key) {
  return env_->RemoveFile(PathFor(key));
}

Result<std::vector<std::string>> LocalDirBlobStore::DoList(
    const std::string& prefix) {
  namespace fs = std::filesystem;
  std::vector<std::string> keys;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    std::string rel = fs::relative(it->path(), root_, ec).string();
    if (rel.compare(0, prefix.size(), prefix) == 0) keys.push_back(rel);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool LocalDirBlobStore::DoExists(const std::string& key) {
  return env_->FileExists(PathFor(key));
}

}  // namespace s2
