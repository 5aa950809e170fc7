#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "engine/database.h"
#include "storage/unified_table.h"

namespace htap {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

void Samples::Append(const Samples& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
}

double Samples::QuantileMs(double q) const {
  if (ns_.empty()) return 0.0;
  std::vector<uint64_t> sorted = ns_;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  rank = std::min(rank, sorted.size() - 1);
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
  return static_cast<double>(sorted[rank]) / 1e6;
}

size_t Samples::CountAbove(double q) const {
  if (ns_.empty()) return 0;
  double cut_ms = QuantileMs(q);
  return static_cast<size_t>(std::count_if(ns_.begin(), ns_.end(), [&](uint64_t ns) {
    return static_cast<double>(ns) / 1e6 > cut_ms;
  }));
}

uint64_t Samples::TotalNsSince(size_t first) const {
  uint64_t total = 0;
  for (size_t i = first; i < ns_.size(); ++i) total += ns_[i];
  return total;
}

void CallStats::Append(const CallStats& other) {
  lookup.Append(other.lookup);
  update.Append(other.update);
  del.Append(other.del);
  insert.Append(other.insert);
  commit.Append(other.commit);
  query.Append(other.query);
  commits_ok += other.commits_ok;
}

// ---------------------------------------------------------------------------
// Per-call timers (linked in with --wrap; see CMakeLists.txt)
// ---------------------------------------------------------------------------

namespace {
thread_local CallStats* tls_calls = nullptr;
}  // namespace

ScopedCallStats::ScopedCallStats(CallStats* stats) : prev_(tls_calls) {
  tls_calls = stats;
}
ScopedCallStats::~ScopedCallStats() { tls_calls = prev_; }

using s2::Row;
using s2::Status;
using LookupCallback = std::function<bool(const Row&, const s2::RowLocation&)>;
using PlanFactory = std::function<s2::PlanPtr()>;

// Each symbol named in CMakeLists.txt mangles exactly these signatures.
static_assert(std::is_same_v<decltype(&s2::UnifiedTable::LookupByIndex),
                             Status (s2::UnifiedTable::*)(
                                 s2::TxnId, s2::Timestamp,
                                 const std::vector<int>&, const Row&,
                                 const LookupCallback&)>);
static_assert(std::is_same_v<decltype(&s2::UnifiedTable::UpdateByKey),
                             Status (s2::UnifiedTable::*)(
                                 s2::TxnId, s2::Timestamp, const Row&,
                                 const Row&)>);
static_assert(std::is_same_v<decltype(&s2::UnifiedTable::DeleteByKey),
                             Status (s2::UnifiedTable::*)(
                                 s2::TxnId, s2::Timestamp, const Row&)>);
static_assert(std::is_same_v<decltype(&s2::UnifiedTable::InsertRows),
                             s2::Result<size_t> (s2::UnifiedTable::*)(
                                 s2::TxnId, s2::Timestamp,
                                 const std::vector<Row>&, s2::DupPolicy)>);
static_assert(std::is_same_v<decltype(&s2::Cluster::Txn::Commit),
                             Status (s2::Cluster::Txn::*)()>);
static_assert(std::is_same_v<decltype(&s2::Database::Query),
                             s2::Result<std::vector<Row>> (s2::Database::*)(
                                 const PlanFactory&, int)>);

// On the Itanium C++ ABI a member function takes `this` as its first
// argument, so a free function with the object pointer prepended has the
// same calling convention. The asm labels bind these declarations to the
// linker's __real_/__wrap_ names.
Status RealLookup(s2::UnifiedTable*, s2::TxnId, s2::Timestamp,
                  const std::vector<int>&, const Row&, const LookupCallback&)
    asm("__real_" HTAP_WRAP_LOOKUP);
Status WrapLookup(s2::UnifiedTable*, s2::TxnId, s2::Timestamp,
                  const std::vector<int>&, const Row&, const LookupCallback&)
    asm("__wrap_" HTAP_WRAP_LOOKUP);
Status RealUpdate(s2::UnifiedTable*, s2::TxnId, s2::Timestamp, const Row&,
                  const Row&) asm("__real_" HTAP_WRAP_UPDATE);
Status WrapUpdate(s2::UnifiedTable*, s2::TxnId, s2::Timestamp, const Row&,
                  const Row&) asm("__wrap_" HTAP_WRAP_UPDATE);
Status RealDelete(s2::UnifiedTable*, s2::TxnId, s2::Timestamp, const Row&)
    asm("__real_" HTAP_WRAP_DELETE);
Status WrapDelete(s2::UnifiedTable*, s2::TxnId, s2::Timestamp, const Row&)
    asm("__wrap_" HTAP_WRAP_DELETE);
s2::Result<size_t> RealInsert(s2::UnifiedTable*, s2::TxnId, s2::Timestamp,
                              const std::vector<Row>&, s2::DupPolicy)
    asm("__real_" HTAP_WRAP_INSERT);
s2::Result<size_t> WrapInsert(s2::UnifiedTable*, s2::TxnId, s2::Timestamp,
                              const std::vector<Row>&, s2::DupPolicy)
    asm("__wrap_" HTAP_WRAP_INSERT);
Status RealCommit(s2::Cluster::Txn*) asm("__real_" HTAP_WRAP_COMMIT);
Status WrapCommit(s2::Cluster::Txn*) asm("__wrap_" HTAP_WRAP_COMMIT);
s2::Result<std::vector<Row>> RealQuery(s2::Database*, const PlanFactory&, int)
    asm("__real_" HTAP_WRAP_QUERY);
s2::Result<std::vector<Row>> WrapQuery(s2::Database*, const PlanFactory&, int)
    asm("__wrap_" HTAP_WRAP_QUERY);

namespace {

/// Runs `call`, adding its duration to `member` of the thread's CallStats
/// when the thread is attached.
template <typename Call>
auto Timed(Samples CallStats::*member, Call&& call) {
  CallStats* stats = tls_calls;
  if (stats == nullptr) return call();
  uint64_t start = NowNs();
  auto result = call();
  (stats->*member).Add(NowNs() - start);
  return result;
}

}  // namespace

Status WrapLookup(s2::UnifiedTable* self, s2::TxnId txn, s2::Timestamp ts,
                  const std::vector<int>& cols, const Row& values,
                  const LookupCallback& cb) {
  return Timed(&CallStats::lookup,
               [&] { return RealLookup(self, txn, ts, cols, values, cb); });
}

Status WrapUpdate(s2::UnifiedTable* self, s2::TxnId txn, s2::Timestamp ts,
                  const Row& key, const Row& row) {
  return Timed(&CallStats::update,
               [&] { return RealUpdate(self, txn, ts, key, row); });
}

Status WrapDelete(s2::UnifiedTable* self, s2::TxnId txn, s2::Timestamp ts,
                  const Row& key) {
  return Timed(&CallStats::del,
               [&] { return RealDelete(self, txn, ts, key); });
}

s2::Result<size_t> WrapInsert(s2::UnifiedTable* self, s2::TxnId txn,
                              s2::Timestamp ts, const std::vector<Row>& rows,
                              s2::DupPolicy policy) {
  return Timed(&CallStats::insert,
               [&] { return RealInsert(self, txn, ts, rows, policy); });
}

Status WrapCommit(s2::Cluster::Txn* self) {
  Status s = Timed(&CallStats::commit, [&] { return RealCommit(self); });
  if (s.ok() && tls_calls != nullptr) ++tls_calls->commits_ok;
  return s;
}

s2::Result<std::vector<Row>> WrapQuery(s2::Database* self,
                                       const PlanFactory& factory,
                                       int workspace) {
  return Timed(&CallStats::query,
               [&] { return RealQuery(self, factory, workspace); });
}

// ---------------------------------------------------------------------------
// CountingEnv
// ---------------------------------------------------------------------------

CountingEnv::Counts CountingEnv::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  Counts out = std::move(counts_);
  counts_ = Counts();
  return out;
}

void CountingEnv::Record(uint64_t* bytes_counter, size_t bytes, uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes_counter != nullptr) *bytes_counter += bytes;
  counts_.write_ns.Add(ns);
}

s2::Status CountingEnv::WriteStringToFile(const std::string& path,
                                          const std::string& data, bool sync) {
  uint64_t start = htap::NowNs();
  s2::Status s = base_->WriteStringToFile(path, data, sync);
  // Segment data files live under <partition>/files/ (written as
  // <name>.tmp, then renamed).
  bool data_file = path.find("/files/") != std::string::npos;
  Record(data_file ? &counts_.data_bytes : nullptr, data.size(),
         htap::NowNs() - start);
  return s;
}

s2::Status CountingEnv::AppendToFile(const std::string& path,
                                     const std::string& data, bool sync) {
  uint64_t start = htap::NowNs();
  s2::Status s = base_->AppendToFile(path, data, sync);
  bool log_file = path.size() >= 4 &&
                  path.compare(path.size() - 4, 4, "/log") == 0;
  Record(log_file ? &counts_.log_bytes : nullptr, data.size(),
         htap::NowNs() - start);
  return s;
}

s2::Status CountingEnv::CreateDirs(const std::string& path) {
  return base_->CreateDirs(path);
}
s2::Result<std::string> CountingEnv::ReadFileToString(const std::string& path) {
  return base_->ReadFileToString(path);
}
s2::Result<std::vector<std::string>> CountingEnv::ListDir(
    const std::string& dir) {
  return base_->ListDir(dir);
}
s2::Status CountingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}
s2::Status CountingEnv::RemoveDirRecursive(const std::string& path) {
  return base_->RemoveDirRecursive(path);
}
bool CountingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}
s2::Result<uint64_t> CountingEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}
s2::Status CountingEnv::Truncate(const std::string& path, uint64_t size) {
  return base_->Truncate(path, size);
}
s2::Status CountingEnv::RenameFile(const std::string& from,
                                   const std::string& to) {
  return base_->RenameFile(from, to);
}
s2::Status CountingEnv::SyncDir(const std::string& dir) {
  return base_->SyncDir(dir);
}
s2::Result<std::string> CountingEnv::MakeTempDir(const std::string& prefix) {
  return base_->MakeTempDir(prefix);
}

// ---------------------------------------------------------------------------
// CountingBlobStore
// ---------------------------------------------------------------------------

Samples CountingBlobStore::TakePutLatencies() {
  std::lock_guard<std::mutex> lock(mu_);
  Samples out = std::move(put_ns_);
  put_ns_ = Samples();
  return out;
}

s2::Status CountingBlobStore::DoPut(const std::string& key,
                                    const std::string& data) {
  uint64_t start = NowNs();
  s2::Status s = base_->Put(key, data);
  uint64_t ns = NowNs() - start;
  std::lock_guard<std::mutex> lock(mu_);
  put_ns_.Add(ns);
  return s;
}
s2::Result<std::string> CountingBlobStore::DoGet(const std::string& key) {
  return base_->Get(key);
}
s2::Status CountingBlobStore::DoDelete(const std::string& key) {
  return base_->Delete(key);
}
s2::Result<std::vector<std::string>> CountingBlobStore::DoList(
    const std::string& prefix) {
  return base_->List(prefix);
}
bool CountingBlobStore::DoExists(const std::string& key) {
  return base_->Exists(key);
}

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

ProcessUsage ProcessUsage::Now() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  auto tv_ns = [](const struct timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  ProcessUsage u;
  u.cpu_ns = tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
  u.voluntary_switches = static_cast<uint64_t>(ru.ru_nvcsw);
  u.involuntary_switches = static_cast<uint64_t>(ru.ru_nivcsw);
  return u;
}

uint64_t TimeReferenceLoopNs() {
  // xorshift64 scattering adds over 256 KiB: ALU work plus cache misses.
  static std::vector<uint64_t> buffer(size_t{1} << 15);
  uint64_t start = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    buffer[x & (buffer.size() - 1)] += x;
  }
  return NowNs() - start;
}

uint64_t TimeHostKernelNs() {
  // Fixed inputs: 200k keys over 20k groups, and one name per group.
  static const auto inputs = [] {
    std::pair<std::vector<int64_t>, std::vector<std::string>> in;
    uint64_t x = 0x2545f4914f6cdd1dull;
    for (int i = 0; i < 200000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      in.first.push_back(static_cast<int64_t>(x % 20000));
    }
    for (int i = 0; i < 20000; ++i) {
      in.second.push_back("Customer#" + std::to_string(1000000 + i * 7));
    }
    return in;
  }();
  uint64_t start = NowNs();
  std::unordered_map<int64_t, std::pair<double, int64_t>> groups;
  for (int64_t key : inputs.first) {
    auto& g = groups[key];
    g.first += static_cast<double>(key) * 0.5;
    ++g.second;
  }
  std::vector<std::string> out;
  for (const auto& [key, g] : groups) {
    if (g.second > 9) {
      out.push_back(inputs.second[static_cast<size_t>(key)] + "|" +
                    std::to_string(g.second));
    }
  }
  std::sort(out.begin(), out.end());
  // Keeps the work from being optimized away.
  volatile size_t sink = out.size() + (out.empty() ? 0 : out.front().size());
  (void)sink;
  return NowNs() - start;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace htap
