#ifndef HTAPBENCH_PROBES_H_
#define HTAPBENCH_PROBES_H_

// Measurement tools the benchmark wraps around the engine from outside:
// latency samples, per-call timers on the storage/cluster entry points,
// counting decorators for Env and BlobStore, and process counters.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "blob/blob_store.h"
#include "common/env.h"

namespace htap {

uint64_t NowNs();

/// Latency samples in nanoseconds with exact nearest-rank quantiles.
class Samples {
 public:
  void Add(uint64_t ns) { ns_.push_back(ns); }
  void Append(const Samples& other);
  size_t count() const { return ns_.size(); }
  /// Quantile q in [0, 1] in milliseconds; 0 when empty.
  double QuantileMs(double q) const;
  double QuantileUs(double q) const { return QuantileMs(q) * 1e3; }
  /// Samples strictly above the q-quantile (how well a tail is supported).
  size_t CountAbove(double q) const;
  /// Sum of the samples added at or after position `first`.
  uint64_t TotalNsSince(size_t first) const;

 private:
  std::vector<uint64_t> ns_;
};

/// Durations of the engine calls a client thread makes while it is
/// attached with ScopedCallStats. Each client owns one; nothing is shared.
struct CallStats {
  Samples lookup;  // UnifiedTable::LookupByIndex
  Samples update;  // UnifiedTable::UpdateByKey
  Samples del;     // UnifiedTable::DeleteByKey
  Samples insert;  // UnifiedTable::InsertRows
  Samples commit;  // Cluster::Txn::Commit
  Samples query;   // Database::Query (the scatter phase)
  uint64_t commits_ok = 0;

  void Append(const CallStats& other);
};

/// Attaches `stats` to the calling thread for the scope's lifetime; a null
/// pointer leaves the thread untimed (the untraced run).
class ScopedCallStats {
 public:
  explicit ScopedCallStats(CallStats* stats);
  ~ScopedCallStats();
  ScopedCallStats(const ScopedCallStats&) = delete;
  ScopedCallStats& operator=(const ScopedCallStats&) = delete;

 private:
  CallStats* prev_;
};

/// Env decorator that counts log and data-file bytes and times writes.
class CountingEnv : public s2::Env {
 public:
  explicit CountingEnv(s2::Env* base) : base_(base) {}

  struct Counts {
    uint64_t log_bytes = 0;   // appends to partition and replica logs
    uint64_t data_bytes = 0;  // segment data files written locally
    Samples write_ns;         // every whole-file write and append
  };
  /// Returns what was counted since the last call and starts afresh.
  Counts Take();

  s2::Status CreateDirs(const std::string& path) override;
  s2::Status WriteStringToFile(const std::string& path,
                               const std::string& data, bool sync) override;
  s2::Status AppendToFile(const std::string& path, const std::string& data,
                          bool sync) override;
  s2::Result<std::string> ReadFileToString(const std::string& path) override;
  s2::Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  s2::Status RemoveFile(const std::string& path) override;
  s2::Status RemoveDirRecursive(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  s2::Result<uint64_t> FileSize(const std::string& path) override;
  s2::Status Truncate(const std::string& path, uint64_t size) override;
  s2::Status RenameFile(const std::string& from,
                        const std::string& to) override;
  s2::Status SyncDir(const std::string& dir) override;
  s2::Result<std::string> MakeTempDir(const std::string& prefix) override;
  uint64_t NowNs() override { return base_->NowNs(); }

 private:
  void Record(uint64_t* bytes_counter, size_t bytes, uint64_t ns);

  s2::Env* base_;
  std::mutex mu_;
  Counts counts_;  // guarded by mu_
};

/// BlobStore decorator over another store (the same MemBlobStore, with the
/// same injected latency, that the untraced run uses directly). Its own
/// stats() count puts/gets/bytes; put latencies are sampled here.
class CountingBlobStore : public s2::BlobStore {
 public:
  explicit CountingBlobStore(s2::BlobStore* base) : base_(base) {}

  /// Put latencies since the last call.
  Samples TakePutLatencies();

 protected:
  s2::Status DoPut(const std::string& key, const std::string& data) override;
  s2::Result<std::string> DoGet(const std::string& key) override;
  s2::Status DoDelete(const std::string& key) override;
  s2::Result<std::vector<std::string>> DoList(
      const std::string& prefix) override;
  bool DoExists(const std::string& key) override;

 private:
  s2::BlobStore* base_;
  std::mutex mu_;
  Samples put_ns_;  // guarded by mu_
};

/// getrusage(RUSAGE_SELF) counters.
struct ProcessUsage {
  uint64_t cpu_ns = 0;
  uint64_t voluntary_switches = 0;
  uint64_t involuntary_switches = 0;

  static ProcessUsage Now();
};

/// Duration of a fixed CPU loop (about 0.3 ms on the 4-core host the
/// benchmark was tuned on): an index of how fast the host runs right now.
uint64_t TimeReferenceLoopNs();

/// Duration of a fixed workload shaped like the engine's query operators:
/// hash aggregation of 200k keys into a growing unordered_map, string
/// building and a string sort (about 9 ms on the same host). Run on a
/// client thread between its queries, it tracks how fast the host runs
/// that thread's query code, which TimeReferenceLoopNs, run on the main
/// thread, tracks less well.
uint64_t TimeHostKernelNs();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace htap

#endif  // HTAPBENCH_PROBES_H_
