#include "engine/database.h"

#include <limits>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/trace_export.h"
#include "engine/system_tables.h"

namespace s2 {

Database::Database(DatabaseOptions options)
    : options_(std::move(options)),
      monitor_(MonitorOptions{.env = options_.env}) {}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  std::unique_ptr<Database> db(new Database(std::move(options)));
  ClusterOptions copts;
  copts.dir = db->options_.dir;
  copts.num_partitions = db->options_.num_partitions;
  copts.num_nodes = db->options_.num_nodes;
  copts.ha_replicas = db->options_.ha_replicas;
  copts.blob = db->options_.blob;
  copts.auto_maintain = db->options_.auto_maintain;
  copts.background_uploads = db->options_.background_uploads;
  copts.cache_bytes = db->options_.cache_bytes;
  copts.sync_blob_commit =
      db->options_.profile == EngineProfile::kCloudWarehouse;
  copts.num_exec_threads = db->options_.num_exec_threads;
  copts.env = db->options_.env;
  db->cluster_ = std::make_unique<Cluster>(copts);
  S2_RETURN_NOT_OK(db->cluster_->Start());

  // The standard watchdog rules; see WatchdogThresholds.
  Cluster* cluster = db->cluster_.get();
  const WatchdogThresholds& t = db->options_.watchdog;
  // Replication consumers (HA replicas, workspaces, blob log tail)
  // trailing the primary's durable log position.
  db->monitor_.AddRule(
      {"replication_lag",
       [cluster] { return static_cast<double>(cluster->ReplicationLagBytes()); },
       static_cast<double>(t.replication_lag_bytes), WatchdogCmp::kAbove,
       t.for_ticks});

  // Data files stuck in the blob upload queue (env clock, so fault
  // injection on the blob store shows up deterministically in tests).
  db->monitor_.AddRule(
      {"upload_queue_age",
       [cluster] { return static_cast<double>(cluster->MaxUploadQueueAgeNs()); },
       static_cast<double>(t.upload_queue_age_ns), WatchdogCmp::kAbove,
       t.for_ticks});
  return db;
}

Status Database::CreateTable(const std::string& name, TableOptions options,
                             std::vector<int> shard_key) {
  switch (options_.profile) {
    case EngineProfile::kUnified:
      break;
    case EngineProfile::kOperationalRowstore:
      // Rowstore-only: nothing ever flushes to columnstore segments, so
      // analytics scan row-oriented storage row-at-a-time.
      options.flush_threshold = std::numeric_limits<uint32_t>::max();
      break;
    case EngineProfile::kCloudWarehouse:
      // CDWs accept unique-key DDL but do not *enforce* it, and they lack
      // fine-grained OLTP indexing: drop both. Scans rely on zone maps
      // only. This is precisely why "CDW1 and CDW2 do not support running
      // TPC-C" in the paper's evaluation.
      options.unique_key.clear();
      options.indexes.clear();
      break;
  }
  return cluster_->CreateTable(name, options, std::move(shard_key));
}

Status Database::Insert(const std::string& table, const std::vector<Row>& rows,
                        DupPolicy policy) {
  return cluster_->InsertRows(table, rows, policy);
}

Result<std::vector<Row>> Database::Query(
    const std::function<PlanPtr()>& factory, int workspace) {
  if (options_.slow_query_ns == 0) {
    return cluster_->ScatterQuery(factory, workspace);
  }
  Result<QueryProfile> profiled = RunProfiled(factory, workspace);
  S2_RETURN_NOT_OK(profiled.status());
  return std::move(profiled->rows);
}

Result<QueryProfile> Database::Profile(
    const std::function<PlanPtr()>& factory, int workspace) {
  return RunProfiled(factory, workspace);
}

Result<QueryProfile> Database::RunProfiled(
    const std::function<PlanPtr()>& factory, int workspace) {
  QueryProfile out;
  out.tree = std::make_shared<ProfileCollector>("query");
  Result<std::vector<Row>> rows =
      cluster_->ScatterQuery(factory, workspace, out.tree.get());
  out.tree->FinishRoot();
  out.wall_ns = out.tree->root()->duration_ns;
  S2_HISTOGRAM("s2_query_ns").Record(out.wall_ns);
  S2_RETURN_NOT_OK(rows.status());
  out.rows = std::move(*rows);
  out.tree->AddCounter(out.tree->root(), "rows",
                       static_cast<int64_t>(out.rows.size()));
  if (options_.slow_query_ns != 0 && out.wall_ns >= options_.slow_query_ns) {
    S2_COUNTER("s2_slow_queries_total").Add();
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_ring_.push_back({++slow_seq_, out.wall_ns, out.tree});
    while (slow_ring_.size() > options_.slow_query_capacity) {
      slow_ring_.pop_front();
    }
  }
  return out;
}

std::vector<SlowQuery> Database::SlowQueries() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return {slow_ring_.begin(), slow_ring_.end()};
}

Status Database::DumpFlightRecorder(const std::string& dir) {
  FlightRecorderOptions opts;
  opts.dir = dir;
  opts.env = options_.env;
  opts.monitor = &monitor_;

  SystemTables tables(cluster_.get());
  opts.extra_files.emplace_back("system_tables.json", tables.ToJson());

  // The slow-query ring, newest last: one JSON array of {seq, wall_ns,
  // profile-tree} objects, and the same trees as a Chrome trace.
  std::string slow = "[";
  bool first = true;
  ChromeTraceBuilder trace;
  int pid = 1;
  for (const SlowQuery& q : SlowQueries()) {
    if (!first) slow += ",";
    first = false;
    slow += "{\"seq\":" + std::to_string(q.seq) +
            ",\"wall_ns\":" + std::to_string(q.wall_ns) +
            ",\"profile\":" + (q.tree ? q.tree->ToJson() : "{}") + "}";
    if (!q.tree) continue;
    trace.AddProfileTree(*q.tree->root(), pid++,
                         "slow_query#" + std::to_string(q.seq));
  }
  slow += "]";
  opts.extra_files.emplace_back("slow_queries.json", std::move(slow));
  opts.extra_files.emplace_back("engine_trace.json", trace.Finish());
  return s2::DumpFlightRecorder(opts);
}

}  // namespace s2
