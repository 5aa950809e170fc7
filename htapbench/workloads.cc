#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "checks.h"
#include "engine/database.h"
#include "workloads/chbench.h"
#include "workloads/tpcc.h"
#include "workloads/tpch.h"

namespace htap {

const char* const kAbortClassNames[kNumAbortClasses] = {
    "lock_timeout", "conflict", "duplicate", "rollback", "other"};

bool KnownWorkload(const std::string& name) {
  return name == "tpcc" || name == "tpch" || name == "chbench";
}

const std::string& OpTypeName(int type) {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names = {"new_order", "payment", "order_status",
                                      "delivery", "stock_level"};
    for (int q = 1; q <= 22; ++q) {
      char name[16];
      std::snprintf(name, sizeof(name), "tpch_q%02d", q);
      names.push_back(name);
    }
    for (int q = 1; q <= 5; ++q) names.push_back("ch" + std::to_string(q));
    return names;
  }();
  return kNames.at(static_cast<size_t>(type));
}

namespace {

/// Op type of TPC-H query q is kTpchType + q; of CH query q, kChType + q.
constexpr int kTpchType = kNumTxnTypes - 1;
constexpr int kChType = kTpchType + 22;

constexpr double kTpchScaleFactor = 0.02;
/// Injected latency of every blob put: a remote object store's round trip.
constexpr uint64_t kBlobPutLatencyUs = 2000;
/// The host speed tpch window times are scaled to: the speed at which
/// TimeHostKernelNs takes 10 ms.
constexpr double kNominalKernelNs = 10e6;
/// Transactions run during set-up before the clock starts.
constexpr int kWarmTxns = 200;
/// Output checks stop recording after this many failures.
constexpr size_t kMaxErrors = 20;

/// Fixed configuration of one workload (see README.md for the reasons).
struct Spec {
  int partitions = 1;
  int nodes = 1;
  int ha_replicas = 0;
  bool blob = false;
  int oltp_clients = 0;     // TPC-C terminals
  bool ch_client = false;   // one client cycling the CH queries
  bool tpch_client = false; // one client running the 22 TPC-H queries
  s2::tpcc::Scale scale;
};

Spec SpecFor(const std::string& workload) {
  Spec s;
  if (workload == "tpcc") {
    s.partitions = 4;
    s.nodes = 2;
    s.ha_replicas = 1;
    s.blob = true;
    s.oltp_clients = 2;
    s.scale.warehouses = 8;
  } else if (workload == "tpch") {
    s.tpch_client = true;
  } else {
    s.partitions = 2;
    s.blob = true;
    s.oltp_clients = 2;
    s.ch_client = true;
    s.scale.warehouses = 4;
    s.scale.initial_orders_per_district = 150;
  }
  return s;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Prefixes a failed status with the phase it failed in.
s2::Status InPhase(const std::string& phase, const s2::Status& s) {
  if (s.ok()) return s;
  return s2::Status::Internal(phase + ": " + s.ToString());
}

void AddError(std::vector<std::string>* errors, std::string message) {
  if (errors->size() < kMaxErrors) errors->push_back(std::move(message));
}

/// One database and the stores it uses. The database is destroyed before
/// the stores it points into; then its directory is removed.
class Instance {
 public:
  Instance() = default;
  ~Instance() {
    db_.reset();
    if (!dir_.empty()) (void)s2::Env::Default()->RemoveDirRecursive(dir_);
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  s2::Status Open(const Spec& spec, const std::string& dir, bool traced) {
    dir_ = dir;
    s2::DatabaseOptions o;
    o.dir = dir;
    o.num_partitions = spec.partitions;
    o.num_nodes = spec.nodes;
    o.ha_replicas = spec.ha_replicas;
    // With more executor threads the tpcc and tpch loads fail with
    // "AlreadyExists: data file exists" (parallel flushes of one
    // partition pick the same segment file name).
    o.num_exec_threads = 1;
    if (spec.blob) {
      blob_ = std::make_unique<s2::MemBlobStore>();
      blob_->set_put_latency_us(kBlobPutLatencyUs);
      o.blob = blob_.get();
      o.background_uploads = true;
    }
    if (traced) {
      env_ = std::make_unique<CountingEnv>(s2::Env::Default());
      o.env = env_.get();
      if (blob_) {
        counting_blob_ = std::make_unique<CountingBlobStore>(blob_.get());
        o.blob = counting_blob_.get();
      }
      // Profile every query and keep every profile tree.
      o.slow_query_ns = 1;
      o.slow_query_capacity = size_t{1} << 20;
    }
    auto db = s2::Database::Open(o);
    if (!db.ok()) return db.status();
    db_ = std::move(*db);
    return s2::Status::OK();
  }

  s2::Database* db() { return db_.get(); }
  CountingEnv* env() { return env_.get(); }
  CountingBlobStore* counting_blob() { return counting_blob_.get(); }

 private:
  std::string dir_;
  std::unique_ptr<s2::MemBlobStore> blob_;
  std::unique_ptr<CountingBlobStore> counting_blob_;
  std::unique_ptr<CountingEnv> env_;
  std::unique_ptr<s2::Database> db_;
};

/// What one client thread produced; merged into the PhaseResult after
/// the threads are joined.
struct ClientResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t aborts[kNumAbortClasses] = {};
  uint64_t txns_committed = 0;
  uint64_t new_orders = 0;
  uint64_t queries = 0;
  Samples ops;
  Samples txns;
  std::map<std::string, Samples> by_type;
  std::vector<OpSample> timeline;
  std::vector<double> round_ops_per_s;
  std::vector<double> round_geomean_ms;
  std::vector<double> round_kernel_ms;
  std::vector<std::string> errors;
  std::map<int, uint64_t> first_digest;  // tpch: per query, first round
  CallStats calls;
  Samples gather_ns;

  /// Records one attempted operation; `type` is -1 when it failed.
  void Record(uint32_t window, int type, uint64_t ns) {
    ++attempted;
    ops.Add(ns);
    timeline.push_back({window, static_cast<int16_t>(type), ns});
    if (type >= 0) by_type[OpTypeName(type)].Add(ns);
  }
};

/// The whole second of the run, counted from `start_ns`, that `end_ns`
/// falls in.
uint32_t SecondOf(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<uint32_t>((end_ns - start_ns) / 1'000'000'000);
}

AbortClass Classify(const s2::Status& s) {
  const std::string& m = s.message();
  if (s.IsAlreadyExists()) return kDuplicate;
  // UpdateByKey/DeleteByKey locate the row in the latest state; a row the
  // transaction saw in its snapshot but another transaction has since
  // deleted (two Delivery transactions racing for the same oldest
  // new-order) is reported as NotFound. That is a write-write conflict.
  if (s.IsNotFound() && m.find("no row with key") != std::string::npos) {
    return kConflict;
  }
  if (!s.IsAborted()) return kOther;
  if (m.find("invalid item rollback") != std::string::npos) return kRollback;
  if (m.find("lock timeout") != std::string::npos) return kLockTimeout;
  return kConflict;
}

/// A TPC-C terminal: Worker::RunOne in a closed loop. The transaction type
/// of a committed run is read off the worker's per-client counters.
void RunOltpClient(s2::Database* db, const Spec& spec, uint64_t seed,
                   bool traced, uint64_t phase_start,
                   const std::atomic<bool>& stop,
                   s2::tpcc::Counters* counters, ClientResult* r) {
  ScopedCallStats attach(traced ? &r->calls : nullptr);
  s2::tpcc::Worker worker(db, spec.scale, seed, counters);
  auto snapshot = [&](uint64_t* c) {
    c[0] = counters->new_orders.load(std::memory_order_relaxed);
    c[1] = counters->payments.load(std::memory_order_relaxed);
    c[2] = counters->order_status.load(std::memory_order_relaxed);
    c[3] = counters->deliveries.load(std::memory_order_relaxed);
    c[4] = counters->stock_levels.load(std::memory_order_relaxed);
  };
  while (!stop.load(std::memory_order_relaxed)) {
    uint64_t before[5], after[5];
    snapshot(before);
    uint64_t start = NowNs();
    s2::Status s = worker.RunOne();
    uint64_t end = NowNs();
    r->txns.Add(end - start);
    if (!s.ok()) {
      r->Record(SecondOf(phase_start, end), -1, end - start);
      AbortClass c = Classify(s);
      ++r->aborts[c];
      if ((c == kDuplicate || c == kOther) && r->failed++ == 0) {
        std::fprintf(stderr, "htapbench: transaction failed: %s\n",
                     s.ToString().c_str());
      }
      continue;
    }
    ++r->txns_committed;
    snapshot(after);
    int type = 0;  // RunOne bumps exactly one counter on success
    while (type < kNumTxnTypes - 1 && after[type] == before[type]) ++type;
    if (type == 0) ++r->new_orders;
    r->Record(SecondOf(phase_start, end), type, end - start);
  }
}

/// The CH-benCHmark analytical client: cycles the CH queries on the
/// primary tables while the TPC-C terminals write them.
void RunChClient(s2::Database* db, bool traced, uint64_t phase_start,
                 const std::atomic<bool>& stop, ClientResult* r) {
  ScopedCallStats attach(traced ? &r->calls : nullptr);
  int q = 1;
  while (!stop.load(std::memory_order_relaxed)) {
    size_t scatter_first = r->calls.query.count();
    uint64_t start = NowNs();
    auto rows = s2::chbench::RunAnalyticalQuery(db, q);
    uint64_t end = NowNs();
    if (!rows.ok()) {
      ++r->failed;
      AddError(&r->errors, "CH query " + std::to_string(q) +
                               " failed: " + rows.status().ToString());
    } else {
      ++r->queries;
      if (traced) {
        r->gather_ns.Add(end - start -
                         r->calls.query.TotalNsSince(scatter_first));
      }
    }
    r->Record(SecondOf(phase_start, end), rows.ok() ? kChType + q : -1,
              end - start);
    q = q % s2::chbench::kNumQueries + 1;
  }
}

/// Runs the 22 TPC-H queries once in order as window `round`, checking
/// each result digest against the stored one and the first round's.
/// A measured round also times TimeHostKernelNs before every query and
/// scales the round's window times by kNominalKernelNs over the median
/// kernel time (see README.md); the run-wide samples stay as measured.
void RunTpchRound(s2::Database* db, int dataset, uint32_t round,
                  bool measured, ClientResult* r) {
  double log_sum = 0;
  int completed = 0;
  const size_t first = r->timeline.size();
  Samples kernel;
  for (int q = 1; q <= 22; ++q) {
    if (measured) kernel.Add(TimeHostKernelNs());
    uint64_t start = NowNs();
    auto rows = s2::tpch::RunQuery(db, q);
    uint64_t ns = NowNs() - start;
    r->Record(round, rows.ok() ? kTpchType + q : -1, ns);
    if (!rows.ok()) {
      ++r->failed;
      AddError(&r->errors, "TPC-H Q" + std::to_string(q) +
                               " failed: " + rows.status().ToString());
      continue;
    }
    ++r->queries;
    ++completed;
    log_sum += std::log(static_cast<double>(ns) / 1e6);

    uint64_t digest = ResultDigest(*rows);
    auto [first, inserted] = r->first_digest.emplace(q, digest);
    if (!inserted && first->second != digest) {
      AddError(&r->errors, "TPC-H Q" + std::to_string(q) +
                               " result differs between rounds");
    }
    uint64_t expected = ExpectedTpchDigest(dataset, q);
    if (digest != expected) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "TPC-H Q%d on dataset %d: digest %016" PRIx64
                    " != stored %016" PRIx64 " (%zu rows)",
                    q, dataset, digest, expected, rows->size());
      AddError(&r->errors, msg);
    }
  }
  if (completed == 0) return;
  r->round_geomean_ms.push_back(std::exp(log_sum / completed));
  double scale = 1.0;
  if (measured) {
    r->round_kernel_ms.push_back(kernel.QuantileMs(0.5));
    scale = kNominalKernelNs / (kernel.QuantileMs(0.5) * 1e6);
  }
  double query_ns = 0;
  for (size_t i = first; i < r->timeline.size(); ++i) {
    OpSample& s = r->timeline[i];
    s.ns = static_cast<uint64_t>(static_cast<double>(s.ns) * scale);
    query_ns += static_cast<double>(s.ns);
  }
  r->round_ops_per_s.push_back(completed / (query_ns / 1e9));
}

void Merge(ClientResult* c, PhaseResult* out) {
  out->attempted += c->attempted;
  out->failed += c->failed;
  for (int i = 0; i < kNumAbortClasses; ++i) out->aborts[i] += c->aborts[i];
  out->txns_committed += c->txns_committed;
  out->new_orders += c->new_orders;
  out->queries += c->queries;
  out->ops.Append(c->ops);
  out->txns.Append(c->txns);
  for (auto& [type, samples] : c->by_type) out->by_type[type].Append(samples);
  out->timeline.insert(out->timeline.end(), c->timeline.begin(),
                       c->timeline.end());
  out->window_ops_per_s.insert(out->window_ops_per_s.end(),
                               c->round_ops_per_s.begin(),
                               c->round_ops_per_s.end());
  out->round_geomean_ms.insert(out->round_geomean_ms.end(),
                               c->round_geomean_ms.begin(),
                               c->round_geomean_ms.end());
  out->round_kernel_ms.insert(out->round_kernel_ms.end(),
                              c->round_kernel_ms.begin(),
                              c->round_kernel_ms.end());
  for (std::string& e : c->errors) AddError(&out->errors, std::move(e));
  out->calls.Append(c->calls);
  out->gather_ns.Append(c->gather_ns);
}

/// Engine-side counters read from the per-object stats structs.
struct StorageCounters {
  uint64_t flushes = 0, merges = 0, segments_created = 0, rows_moved = 0;
  uint64_t rowstore_rows = 0, segments = 0;
  uint64_t files_written = 0, files_uploaded = 0, local_hits = 0,
           blob_fetches = 0, files_evicted = 0;
};

StorageCounters ReadStorage(s2::Database* db) {
  StorageCounters c;
  s2::Cluster* cluster = db->cluster();
  for (int p = 0; p < cluster->num_partitions(); ++p) {
    s2::Partition* part = cluster->partition(p);
    for (const std::string& name : part->TableNames()) {
      auto table = part->GetTable(name);
      if (!table.ok()) continue;
      const s2::TableStats& s = (*table)->stats();
      c.flushes += s.flushes.load();
      c.merges += s.merges.load();
      c.segments_created += s.segments_created.load();
      c.rows_moved += s.rows_moved.load();
      c.rowstore_rows += (*table)->RowstoreRows();
      c.segments += (*table)->NumSegments();
    }
    const s2::DataFileStats& f = part->files()->stats();
    c.files_written += f.files_written.load();
    c.files_uploaded += f.files_uploaded.load();
    c.local_hits += f.local_hits.load();
    c.blob_fetches += f.blob_fetches.load();
    c.files_evicted += f.files_evicted.load();
  }
  return c;
}

uint64_t PendingUploads(s2::Database* db) {
  uint64_t n = 0;
  s2::Cluster* cluster = db->cluster();
  for (int p = 0; p < cluster->num_partitions(); ++p) {
    n += cluster->partition(p)->files()->PendingUploads();
  }
  return n;
}

uint64_t LastSlowQuerySeq(s2::Database* db) {
  std::vector<s2::SlowQuery> slow = db->SlowQueries();
  return slow.empty() ? 0 : slow.back().seq;
}

/// Scan counters the table scanner attributes to each query's profile.
const char* const kProfileCounters[] = {
    "segments",          "segments_skipped_zone", "segments_skipped_index",
    "rows_considered",   "rows_output",           "index_filter_uses",
    "encoded_filter_uses", "group_filter_uses",   "regular_filter_uses"};

s2::Status SetUp(const Options& opts, const Spec& spec, bool traced,
                 int index, Instance* inst, PhaseResult* out) {
  uint64_t start = NowNs();
  std::string dir = opts.dir + "/" + opts.workload + "-" +
                    std::to_string(getpid()) + (traced ? "-t" : "-u") +
                    std::to_string(index);
  S2_RETURN_NOT_OK(InPhase("open", inst->Open(spec, dir, traced)));
  s2::Database* db = inst->db();
  if (spec.tpch_client) {
    int dataset = static_cast<int>(opts.seed % kTpchDatasets);
    S2_RETURN_NOT_OK(InPhase("create tables", s2::tpch::CreateTables(db)));
    S2_RETURN_NOT_OK(InPhase(
        "load", s2::tpch::Load(db, kTpchScaleFactor, TpchDataSeed(dataset))));
    ClientResult warm;
    RunTpchRound(db, dataset, 0, /*measured=*/false, &warm);
    for (std::string& e : warm.errors) AddError(&out->errors, "warm-up: " + e);
  } else {
    S2_RETURN_NOT_OK(InPhase("create tables", s2::tpcc::CreateTables(db)));
    S2_RETURN_NOT_OK(
        InPhase("load", s2::tpcc::Load(db, spec.scale, opts.seed)));
    s2::tpcc::Counters counters;
    s2::tpcc::Worker warm(db, spec.scale, MixSeed(opts.seed, 1000), &counters);
    for (int i = 0; i < kWarmTxns; ++i) {
      s2::Status s = warm.RunOne();
      if (!s.ok() && !s.IsAborted()) return InPhase("warm-up", s);
    }
    if (spec.ch_client) {
      for (int q = 1; q <= s2::chbench::kNumQueries; ++q) {
        auto rows = s2::chbench::RunAnalyticalQuery(db, q);
        if (!rows.ok()) {
          return InPhase("warm-up CH query " + std::to_string(q),
                         rows.status());
        }
      }
    }
  }
  out->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  return s2::Status::OK();
}

s2::Status Measure(const Options& opts, const Spec& spec, bool traced,
                   Instance* inst, PhaseResult* out) {
  s2::Database* db = inst->db();
  const StorageCounters before = ReadStorage(db);
  const uint64_t slow_seq = LastSlowQuerySeq(db);
  uint64_t blob_puts = 0, blob_put_bytes = 0, blob_gets = 0, blob_get_bytes = 0;
  if (traced) {
    (void)inst->env()->Take();
    if (CountingBlobStore* blob = inst->counting_blob()) {
      (void)blob->TakePutLatencies();
      blob_puts = blob->stats().puts.load();
      blob_put_bytes = blob->stats().bytes_uploaded.load();
      blob_gets = blob->stats().gets.load();
      blob_get_bytes = blob->stats().bytes_downloaded.load();
    }
  }
  const ProcessUsage usage_before = ProcessUsage::Now();

  struct Client {
    s2::tpcc::Counters counters;
    ClientResult result;
  };
  std::vector<std::unique_ptr<Client>> clients;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const uint64_t start = NowNs();
  for (int i = 0; i < spec.oltp_clients; ++i) {
    clients.push_back(std::make_unique<Client>());
    Client* c = clients.back().get();
    uint64_t seed = MixSeed(opts.seed, static_cast<uint64_t>(i));
    threads.emplace_back([&, c, seed] {
      RunOltpClient(db, spec, seed, traced, start, stop, &c->counters,
                    &c->result);
    });
  }
  if (spec.ch_client) {
    clients.push_back(std::make_unique<Client>());
    Client* c = clients.back().get();
    threads.emplace_back(
        [&, c] { RunChClient(db, traced, start, stop, &c->result); });
  }
  if (spec.tpch_client) {
    clients.push_back(std::make_unique<Client>());
    Client* c = clients.back().get();
    int dataset = static_cast<int>(opts.seed % kTpchDatasets);
    threads.emplace_back([&, c, dataset] {
      ScopedCallStats attach(traced ? &c->result.calls : nullptr);
      // Whole rounds only: the client stops between rounds.
      for (uint32_t round = 0; !stop.load(std::memory_order_relaxed); ++round) {
        RunTpchRound(db, dataset, round, /*measured=*/true, &c->result);
      }
    });
  }

  // While the clients run, the main thread samples the upload backlog and
  // the host's speed every 50 ms.
  const uint64_t end = start + static_cast<uint64_t>(opts.seconds * 1e9);
  for (uint64_t now = NowNs(); now < end; now = NowNs()) {
    uint64_t nap = std::min<uint64_t>(end - now, 50'000'000);
    std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
    out->upload_backlog_max = std::max(out->upload_backlog_max,
                                       PendingUploads(db));
    out->host_loop_ns.Add(TimeReferenceLoopNs());
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  out->elapsed_s = static_cast<double>(NowNs() - start) / 1e9;

  const ProcessUsage usage_after = ProcessUsage::Now();
  out->usage.cpu_ns = usage_after.cpu_ns - usage_before.cpu_ns;
  out->usage.voluntary_switches =
      usage_after.voluntary_switches - usage_before.voluntary_switches;
  out->usage.involuntary_switches =
      usage_after.involuntary_switches - usage_before.involuntary_switches;
  for (auto& c : clients) Merge(&c->result, out);

  // Windows: the tpch rounds, or the whole seconds before the stop; the
  // operations that ended after the last whole second are left out.
  if (spec.tpch_client) {
    out->num_windows = static_cast<uint32_t>(out->window_ops_per_s.size());
  } else {
    out->num_windows = static_cast<uint32_t>(opts.seconds);
    std::vector<double> done(out->num_windows), new_orders(out->num_windows);
    for (const OpSample& s : out->timeline) {
      if (s.window >= out->num_windows || s.type < 0) continue;
      ++done[s.window];
      if (s.type == 0) ++new_orders[s.window];
    }
    out->window_ops_per_s = done;
    for (double n : new_orders) out->tpmc_per_s.push_back(n * 60.0);
  }
  std::erase_if(out->timeline, [&](const OpSample& s) {
    return s.window >= out->num_windows;
  });

  const StorageCounters after = ReadStorage(db);
  out->flushes = after.flushes - before.flushes;
  out->merges = after.merges - before.merges;
  out->segments_created = after.segments_created - before.segments_created;
  out->rows_moved = after.rows_moved - before.rows_moved;
  out->rowstore_rows_end = after.rowstore_rows;
  out->segments_end = after.segments;
  out->files_written = after.files_written - before.files_written;
  out->files_uploaded = after.files_uploaded - before.files_uploaded;
  out->local_hits = after.local_hits - before.local_hits;
  out->blob_fetches = after.blob_fetches - before.blob_fetches;
  out->files_evicted = after.files_evicted - before.files_evicted;

  if (traced) {
    out->env = inst->env()->Take();
    if (CountingBlobStore* blob = inst->counting_blob()) {
      out->blob_put_ns = blob->TakePutLatencies();
      out->blob_puts = blob->stats().puts.load() - blob_puts;
      out->blob_put_bytes = blob->stats().bytes_uploaded.load() - blob_put_bytes;
      out->blob_gets = blob->stats().gets.load() - blob_gets;
      out->blob_get_bytes =
          blob->stats().bytes_downloaded.load() - blob_get_bytes;
    }
    for (const s2::SlowQuery& q : db->SlowQueries()) {
      if (q.seq <= slow_seq || !q.tree) continue;
      for (const char* key : kProfileCounters) {
        out->profile[key] += q.tree->TotalCounter(key);
      }
    }
  }
  return s2::Status::OK();
}

}  // namespace

s2::Status RunPhase(const Options& opts, bool traced, int setups,
                    PhaseResult* out) {
  const Spec spec = SpecFor(opts.workload);
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < setups; ++i) {
    inst.reset();  // the previous set-up's database goes first
    inst = std::make_unique<Instance>();
    S2_RETURN_NOT_OK(SetUp(opts, spec, traced, i, inst.get(), out));
  }
  out->rss_setup_mb = PeakRssMb();
  S2_RETURN_NOT_OK(InPhase("measure", Measure(opts, spec, traced, inst.get(), out)));
  if (spec.oltp_clients > 0) {
    std::vector<std::string> errors;
    CheckTpccConsistency(inst->db(), &errors);
    for (std::string& e : errors) AddError(&out->errors, std::move(e));
  }
  out->rss_end_mb = PeakRssMb();
  return s2::Status::OK();
}

s2::Status PrintTpchDigests(const Options& opts, int dataset) {
  Spec spec = SpecFor("tpch");
  Instance inst;
  std::string dir = opts.dir + "/tpch-digests-" + std::to_string(getpid());
  S2_RETURN_NOT_OK(InPhase("open", inst.Open(spec, dir, false)));
  S2_RETURN_NOT_OK(InPhase("create tables", s2::tpch::CreateTables(inst.db())));
  S2_RETURN_NOT_OK(InPhase(
      "load", s2::tpch::Load(inst.db(), kTpchScaleFactor, TpchDataSeed(dataset))));
  std::printf("{");
  for (int q = 1; q <= 22; ++q) {
    auto rows = s2::tpch::RunQuery(inst.db(), q);
    if (!rows.ok()) return InPhase("TPC-H Q" + std::to_string(q), rows.status());
    std::printf("%s0x%016" PRIx64 "ull", q == 1 ? "" : ", ", ResultDigest(*rows));
  }
  std::printf("},\n");
  return s2::Status::OK();
}

}  // namespace htap
