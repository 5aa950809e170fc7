#ifndef S2_ENGINE_DATABASE_H_
#define S2_ENGINE_DATABASE_H_

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/monitor.h"
#include "common/profile.h"
#include "query/plan.h"
#include "storage/table_options.h"

namespace s2 {

/// Which engine personality a Database runs with. The paper's evaluation
/// (Section 6) compares S2DB with a cloud operational database ("CDB") and
/// two cloud data warehouses ("CDW1/CDW2"); the baselines here implement
/// the properties Section 6 attributes to them.
enum class EngineProfile {
  /// The paper's system: unified table storage, async blob uploads,
  /// secondary/unique keys, adaptive execution.
  kUnified,
  /// CDB-like: a rowstore-based operational database. Data stays in the
  /// in-memory rowstore (never flushed to columnstore), so analytics run
  /// row-at-a-time over row-oriented storage.
  kOperationalRowstore,
  /// CDW-like: pure columnstore, commits synchronously persisted to blob
  /// storage, and no secondary indexes, unique keys, or row-level locking
  /// — which is why "CDW1 and CDW2 do not support running TPC-C".
  kCloudWarehouse,
};

struct DatabaseOptions {
  std::string dir;
  BlobStore* blob = nullptr;
  int num_partitions = 1;
  int num_nodes = 1;
  int ha_replicas = 0;
  bool auto_maintain = true;
  bool background_uploads = false;
  /// Per-partition local data-file cache budget ("local disk" size).
  /// Tests shrink this to force cold reads through the blob store.
  size_t cache_bytes = 256ull << 20;
  EngineProfile profile = EngineProfile::kUnified;
  /// Threads in the cluster executor (query fan-out, parallel segment
  /// scans, per-partition maintenance, uploads); see
  /// ClusterOptions::num_exec_threads. 0 = hardware concurrency; 1 runs
  /// every parallel loop inline on the calling thread.
  size_t num_exec_threads = 0;
  /// Filesystem for all local state. Not owned; null = Env::Default().
  /// Crash tests inject a FaultInjectionEnv.
  Env* env = nullptr;
  /// Queries slower than this wall time are profiled and retained in the
  /// slow-query ring (see Database::SlowQueries). 0 disables the log and
  /// keeps unprofiled Query() calls overhead-free.
  uint64_t slow_query_ns = 0;
  /// Bounded retention for the slow-query ring (oldest dropped first).
  size_t slow_query_capacity = 32;
  /// Thresholds for the standard watchdog rules (see Database::monitor).
  WatchdogThresholds watchdog;
};

/// A query result plus its profile tree (see Database::Profile).
struct QueryProfile {
  std::vector<Row> rows;
  /// Root span "query"; per-partition children carry scan/segment spans
  /// with strategy decisions and cache/lock/commit wait counters.
  std::shared_ptr<ProfileCollector> tree;
  uint64_t wall_ns = 0;

  std::string ToText() const { return tree ? tree->ToText() : std::string(); }
  std::string ToJson() const { return tree ? tree->ToJson() : "{}"; }
};

/// One retained slow query: monotonic sequence number, wall time, and the
/// full profile tree captured while it ran.
struct SlowQuery {
  uint64_t seq = 0;
  uint64_t wall_ns = 0;
  std::shared_ptr<ProfileCollector> tree;
};

/// The public façade: open a database, create tables, write rows, run
/// queries, manage workspaces. One Database wraps a (possibly
/// single-partition) simulated cluster.
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  /// Creates a table on every partition. The engine profile adjusts the
  /// physical options (see EngineProfile). Returns InvalidArgument when
  /// the profile cannot support the request (e.g. unique keys on the CDW
  /// profile, matching the paper's "lack of enforced unique constraints").
  Status CreateTable(const std::string& name, TableOptions options,
                     std::vector<int> shard_key);

  /// Autocommit batch insert, routed by shard key.
  Status Insert(const std::string& table, const std::vector<Row>& rows,
                DupPolicy policy = DupPolicy::kError);

  /// Begins an explicit (multi-statement, multi-partition) transaction.
  Cluster::Txn Begin() { return cluster_->BeginTxn(); }

  /// Scatter phase of a query: runs `factory()`-built plans on every
  /// partition (workspace >= 0 targets a read-only workspace) and
  /// concatenates rows; the caller applies the gather/combine step. With
  /// slow_query_ns set, the query runs under a profile collector and is
  /// retained in the slow-query ring when it exceeds the threshold.
  Result<std::vector<Row>> Query(const std::function<PlanPtr()>& factory,
                                 int workspace = -1);

  /// Runs the query under a ProfileCollector and returns rows plus the
  /// span tree: per-partition children (merged on gather), scan/segment
  /// spans with skip/strategy decisions, rows scanned vs skipped, cache
  /// hits vs blob fetches, lock and commit wait time.
  Result<QueryProfile> Profile(const std::function<PlanPtr()>& factory,
                               int workspace = -1);

  /// Snapshot of the slow-query ring, oldest first (see
  /// DatabaseOptions::slow_query_ns).
  std::vector<SlowQuery> SlowQueries() const;

  /// Snapshot + upload everything to blob storage.
  Status Checkpoint() { return cluster_->UploadAllToBlob(); }

  /// Provisions a read-only workspace (requires a blob store).
  Result<int> CreateWorkspace() { return cluster_->CreateWorkspace(); }

  /// Flush/merge/vacuum across partitions.
  Status Maintain() { return cluster_->Maintain(); }

  Cluster* cluster() { return cluster_.get(); }
  EngineProfile profile() const { return options_.profile; }

  /// The continuous-monitoring service, wired to the cluster's health
  /// signals with the standard watchdog rules (replication lag, upload
  /// queue age). It has no thread: it samples and evaluates only when
  /// someone calls TickOnce().
  MonitorService* monitor() { return &monitor_; }

  /// Dumps one flight-recorder bundle to `dir`: the common core (metrics,
  /// monitor history, watchdog states, journal tail) plus the engine's
  /// view — system_tables.json, the retained slow-query profiles as
  /// slow_queries.json, and their Chrome trace (one process per query) as
  /// engine_trace.json.
  Status DumpFlightRecorder(const std::string& dir);

 private:
  explicit Database(DatabaseOptions options);

  /// Shared implementation of Query-with-threshold and Profile: runs the
  /// scatter under a collector, stamps the root, and feeds the slow ring.
  Result<QueryProfile> RunProfiled(const std::function<PlanPtr()>& factory,
                                   int workspace);

  DatabaseOptions options_;
  std::unique_ptr<Cluster> cluster_;
  /// Declared after cluster_ so it is destroyed first: watchdog observe()
  /// callbacks read cluster state.
  MonitorService monitor_;

  mutable std::mutex slow_mu_;
  std::deque<SlowQuery> slow_ring_;  // guarded by slow_mu_
  uint64_t slow_seq_ = 0;            // guarded by slow_mu_
};

}  // namespace s2

#endif  // S2_ENGINE_DATABASE_H_
