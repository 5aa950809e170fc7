#ifndef S2_ENGINE_SYSTEM_TABLES_H_
#define S2_ENGINE_SYSTEM_TABLES_H_

#include <string>
#include <vector>

#include "cluster/cluster.h"

namespace s2 {

/// One rendered system table: a named snapshot with a fixed column list
/// and string-rendered rows, iterable by callers and printable for humans
/// (ToText) or tools (ToJson).
struct SystemTableDump {
  std::string name;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;

  /// Column-aligned text table with a header row.
  std::string ToText() const;
  /// JSON array of objects keyed by column name.
  std::string ToJson() const;
};

/// Live introspection over a cluster's internal state, rendered as system
/// tables (the reproduction's information_schema): segment catalog, per-
/// partition LSM/rowstore state, data-file cache residency, and replica
/// log positions. Each call takes a fresh snapshot; nothing is cached.
class SystemTables {
 public:
  explicit SystemTables(Cluster* cluster) : cluster_(cluster) {}

  /// One row per columnstore segment across all partitions and tables:
  /// rows, deleted bits, liveness, local-cache residency (on-disk vs
  /// blob-only), creation timestamp, per-column encodings and min/max.
  SystemTableDump Segments() const;

  /// One row per (partition, table): rowstore size (LSM level 0), live
  /// segment count, sorted-run shape, and lifetime write counters.
  SystemTableDump Tables() const;

  /// One row per partition's data-file cache: resident bytes, upload
  /// queue depth, hit/fetch/eviction counters.
  SystemTableDump Cache() const;

  /// One row per HA/workspace replica: applied vs master-durable log
  /// position and liveness.
  SystemTableDump Replicas() const;

  /// The four tables above.
  std::vector<SystemTableDump> All() const;

  /// Every table, concatenated (text / one JSON object keyed by name).
  std::string ToText() const;
  std::string ToJson() const;

 private:
  Cluster* cluster_;
};

}  // namespace s2

#endif  // S2_ENGINE_SYSTEM_TABLES_H_
