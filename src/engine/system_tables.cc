#include "engine/system_tables.h"

#include <algorithm>

#include "common/json.h"
#include "storage/partition.h"
#include "storage/unified_table.h"

namespace s2 {

namespace {

std::string U64(uint64_t v) { return std::to_string(v); }

}  // namespace

std::string SystemTableDump::ToText() const {
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out = "== " + name + " ==\n";
  auto append_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      out += cell;
      if (c + 1 < widths.size()) {
        out.append(widths[c] - cell.size() + 2, ' ');
      }
    }
    out += '\n';
  };
  append_row(columns);
  for (const auto& row : rows) append_row(row);
  return out;
}

std::string SystemTableDump::ToJson() const {
  std::string out = "[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out += ",";
    out += "{";
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out += ",";
      const std::string& cell = c < rows[r].size() ? rows[r][c] : "";
      out += JsonQuote(columns[c]) + ":" + JsonQuote(cell);
    }
    out += "}";
  }
  out += "]";
  return out;
}

SystemTableDump SystemTables::Segments() const {
  SystemTableDump dump;
  dump.name = "segments";
  dump.columns = {"partition", "table",      "segment",   "file",
                  "rows",      "deleted",    "live",      "local",
                  "created_ts", "encodings", "min_max"};
  for (int p = 0; p < cluster_->num_partitions(); ++p) {
    Partition* part = cluster_->partition(p);
    for (const std::string& tname : part->TableNames()) {
      Result<UnifiedTable*> table = part->GetTable(tname);
      if (!table.ok()) continue;
      for (const auto& seg : (*table)->DebugSegments()) {
        dump.rows.push_back({std::to_string(p), tname, U64(seg.id),
                             seg.file_name, U64(seg.num_rows),
                             U64(seg.deleted_rows), seg.live ? "1" : "0",
                             part->files()->IsLocal(seg.file_name) ? "1" : "0",
                             U64(seg.created_ts), seg.encodings, seg.min_max});
      }
    }
  }
  return dump;
}

SystemTableDump SystemTables::Tables() const {
  SystemTableDump dump;
  dump.name = "tables";
  dump.columns = {"partition",     "table",        "rowstore_rows",
                  "segments",      "runs",         "rows_inserted",
                  "rows_deleted",  "rows_updated", "rows_moved",
                  "flushes",       "merges"};
  for (int p = 0; p < cluster_->num_partitions(); ++p) {
    Partition* part = cluster_->partition(p);
    for (const std::string& tname : part->TableNames()) {
      Result<UnifiedTable*> table = part->GetTable(tname);
      if (!table.ok()) continue;
      const TableStats& stats = (*table)->stats();
      dump.rows.push_back(
          {std::to_string(p), tname, U64((*table)->RowstoreRows()),
           U64((*table)->NumSegments()), U64((*table)->DebugRuns().size()),
           U64(stats.rows_inserted.load()), U64(stats.rows_deleted.load()),
           U64(stats.rows_updated.load()), U64(stats.rows_moved.load()),
           U64(stats.flushes.load()), U64(stats.merges.load())});
    }
  }
  return dump;
}

SystemTableDump SystemTables::Cache() const {
  SystemTableDump dump;
  dump.name = "cache";
  dump.columns = {"partition",      "cached_bytes",   "pending_uploads",
                  "local_hits",     "blob_fetches",   "files_written",
                  "files_uploaded", "files_evicted",  "coalesced_reads",
                  "upload_retries"};
  for (int p = 0; p < cluster_->num_partitions(); ++p) {
    DataFileStore* files = cluster_->partition(p)->files();
    const DataFileStats& stats = files->stats();
    dump.rows.push_back(
        {std::to_string(p), U64(files->CachedBytes()),
         U64(files->PendingUploads()), U64(stats.local_hits.load()),
         U64(stats.blob_fetches.load()), U64(stats.files_written.load()),
         U64(stats.files_uploaded.load()), U64(stats.files_evicted.load()),
         U64(stats.coalesced_reads.load()), U64(stats.upload_retries.load())});
  }
  return dump;
}

SystemTableDump SystemTables::Replicas() const {
  SystemTableDump dump;
  dump.name = "replicas";
  dump.columns = {"partition",   "node",        "workspace",
                  "durable_lsn", "applied_lsn", "txns_applied",
                  "down"};
  for (const Cluster::ReplicaState& r : cluster_->ReplicaStates()) {
    dump.rows.push_back({std::to_string(r.partition), std::to_string(r.node),
                         std::to_string(r.workspace),
                         U64(r.master_durable_lsn), U64(r.applied_lsn),
                         U64(r.txns_applied), r.down ? "1" : "0"});
  }
  return dump;
}

std::vector<SystemTableDump> SystemTables::All() const {
  return {Segments(), Tables(), Cache(), Replicas()};
}

std::string SystemTables::ToText() const {
  std::string out;
  for (const SystemTableDump& dump : All()) {
    out += dump.ToText();
    out += '\n';
  }
  return out;
}

std::string SystemTables::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const SystemTableDump& dump : All()) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(dump.name) + ":" + dump.ToJson();
  }
  out += "}";
  return out;
}

}  // namespace s2
