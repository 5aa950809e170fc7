#ifndef S2_BLOB_BLOB_STORE_H_
#define S2_BLOB_BLOB_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"

namespace s2 {

class Env;

/// Counters every BlobStore maintains. Benchmarks read these to show the
/// commit path performs zero blob writes (paper Section 3.1). Each field
/// also feeds its process-wide registry counter.
struct BlobStats {
  StatCounter puts{"s2_blob_put_total"};
  StatCounter gets{"s2_blob_get_total"};
  StatCounter deletes{"s2_blob_delete_total"};
  StatCounter bytes_uploaded{"s2_blob_put_bytes_total"};
  StatCounter bytes_downloaded{"s2_blob_get_bytes_total"};
};

/// Abstraction of a cloud blob store (S3-like): immutable puts of whole
/// objects, whole-object gets, listing by prefix. High durability, *lower*
/// availability — implementations support injected outages so tests can
/// show steady-state workloads survive blob unavailability when reads stay
/// within the cached working set.
///
/// The public operations are non-virtual wrappers that maintain BlobStats
/// (which feed the process-wide counters) plus the s2_blob_put_ns /
/// s2_blob_get_ns latency histograms and error counters uniformly across
/// backends; implementations override the Do* hooks.
class BlobStore {
 public:
  virtual ~BlobStore() = default;

  Status Put(const std::string& key, const std::string& data);
  Result<std::string> Get(const std::string& key);
  Status Delete(const std::string& key);
  Result<std::vector<std::string>> List(const std::string& prefix);
  bool Exists(const std::string& key);

  const BlobStats& stats() const { return stats_; }

 protected:
  virtual Status DoPut(const std::string& key, const std::string& data) = 0;
  virtual Result<std::string> DoGet(const std::string& key) = 0;
  virtual Status DoDelete(const std::string& key) = 0;
  virtual Result<std::vector<std::string>> DoList(
      const std::string& prefix) = 0;
  virtual bool DoExists(const std::string& key) = 0;

  BlobStats stats_;
};

/// In-memory blob store with fault and latency injection. The default
/// backend for tests and benchmarks.
class MemBlobStore : public BlobStore {
 public:
  MemBlobStore() = default;

  /// Simulated outage: every operation returns Unavailable while false.
  void set_available(bool available) { available_ = available; }

  /// Injected per-operation latency in microseconds (simulates network
  /// round-trips; lets benches show what synchronous blob commit costs).
  void set_put_latency_us(uint64_t us) { put_latency_us_ = us; }
  void set_get_latency_us(uint64_t us) { get_latency_us_ = us; }

  /// Scripted error schedule: the i-th upcoming Put fails iff schedule[i]
  /// is true. Once the schedule is exhausted Puts succeed again. Replaces
  /// any previous Put schedule.
  void ScriptPutFailures(std::vector<bool> schedule);
  /// Convenience: fail the next `n` Puts, then succeed.
  void FailNextPuts(size_t n);
  /// Same, for Get.
  void ScriptGetFailures(std::vector<bool> schedule);
  void FailNextGets(size_t n);

 protected:
  Status DoPut(const std::string& key, const std::string& data) override;
  Result<std::string> DoGet(const std::string& key) override;
  Status DoDelete(const std::string& key) override;
  Result<std::vector<std::string>> DoList(const std::string& prefix) override;
  bool DoExists(const std::string& key) override;

 private:
  Status CheckAvailable() const;
  /// Pops the front of `schedule`; true means this call must fail.
  static bool ConsumeScript(std::deque<bool>* schedule);

  mutable std::mutex mu_;
  std::map<std::string, std::string> objects_;
  std::deque<bool> put_failures_;
  std::deque<bool> get_failures_;
  std::atomic<bool> available_{true};
  std::atomic<uint64_t> put_latency_us_{0};
  std::atomic<uint64_t> get_latency_us_{0};
};

/// Blob store backed by a local directory. Keys map to file paths under the
/// root; used by examples so blob contents are inspectable on disk.
class LocalDirBlobStore : public BlobStore {
 public:
  /// `env` null means Env::Default(); tests pass a FaultInjectionEnv.
  explicit LocalDirBlobStore(std::string root, Env* env = nullptr);

 protected:
  Status DoPut(const std::string& key, const std::string& data) override;
  Result<std::string> DoGet(const std::string& key) override;
  Status DoDelete(const std::string& key) override;
  Result<std::vector<std::string>> DoList(const std::string& prefix) override;
  bool DoExists(const std::string& key) override;

 private:
  std::string PathFor(const std::string& key) const;
  std::string root_;
  Env* env_;
};

}  // namespace s2

#endif  // S2_BLOB_BLOB_STORE_H_
