// Continuous monitoring and the flight recorder:
//   * every database owns a monitor; each TickOnce() here samples every
//     metric into ring time-series and evaluates the two standard
//     watchdog rules (replication_lag, upload_queue_age),
//   * every query is profiled and retained as a slow query
//     (slow_query_ns = 1),
//   * one call dumps the whole debugging bundle — metrics, metric history,
//     watchdog states, event journal, system tables, slow-query profiles
//     and their Chrome trace. manifest.json lists every file written.
//
//   ./build/examples/flight_recorder_demo [bundle-dir]
//
// Load <bundle-dir>/engine_trace.json in Perfetto (https://ui.perfetto.dev)
// or chrome://tracing to see the profile spans, one `segment` span per
// scanned or skipped segment.

#include <cstdio>
#include <string>
#include <vector>

#include "blob/blob_store.h"
#include "common/env.h"
#include "engine/database.h"
#include "query/plan.h"

using namespace s2;

#define CHECK_OK(expr)                                        \
  do {                                                        \
    ::s2::Status _s = (expr);                                 \
    if (!_s.ok()) {                                           \
      fprintf(stderr, "FAILED: %s\n", _s.ToString().c_str()); \
      return 1;                                               \
    }                                                         \
  } while (false)

int main(int argc, char** argv) {
  std::string bundle_dir = argc > 1 ? argv[1] : "flight-recorder";
  std::string dir = *MakeTempDir("s2-flight");
  MemBlobStore blob;

  DatabaseOptions options;
  options.dir = dir + "/db";
  options.blob = &blob;
  options.num_partitions = 2;
  options.slow_query_ns = 1;  // profile and retain every query
  auto db = Database::Open(options);
  if (!db.ok()) {
    fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  TableOptions events;
  events.schema = Schema({{"id", DataType::kInt64},
                          {"kind", DataType::kString},
                          {"value", DataType::kDouble}});
  events.unique_key = {0};
  events.segment_rows = 512;
  events.flush_threshold = 512;
  CHECK_OK((*db)->CreateTable("events", events, {0}));

  std::vector<Row> rows;
  for (int64_t i = 0; i < 5000; ++i) {
    rows.push_back(
        {Value(i), Value("kind" + std::to_string(i % 7)), Value(i * 0.25)});
  }
  CHECK_OK((*db)->Insert("events", rows));
  CHECK_OK((*db)->Maintain());

  // A few monitored query rounds: each tick snapshots every metric into
  // its ring series, so the bundle's history has real shape.
  for (int round = 0; round < 4; ++round) {
    auto result = (*db)->Query(
        [] { return std::make_unique<ScanOp>("events", std::vector<int>{0}); });
    if (!result.ok()) {
      fprintf(stderr, "query failed: %s\n",
              result.status().ToString().c_str());
      return 1;
    }
    printf("round %d: scanned %zu rows\n", round, result->size());
    (*db)->monitor()->TickOnce();
  }

  printf("\nwatchdogs: %s\n\n", (*db)->monitor()->WatchdogsJson().c_str());

  CHECK_OK((*db)->DumpFlightRecorder(bundle_dir));
  printf("flight-recorder bundle written to %s/\n", bundle_dir.c_str());
  printf("load %s/engine_trace.json in Perfetto or chrome://tracing\n",
         bundle_dir.c_str());

  (void)RemoveDirRecursive(dir);
  return 0;
}
