#ifndef HTAPBENCH_WORKLOADS_H_
#define HTAPBENCH_WORKLOADS_H_

// The three workloads (tpcc, tpch, chbench): set-up, one measured phase of
// closed-loop clients, and the output checks.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "probes.h"

namespace htap {

struct Options {
  std::string workload;  // "tpcc", "tpch" or "chbench"
  uint64_t seed = 1;
  double seconds = 10;
  std::string dir;  // parent of the database directories
};

bool KnownWorkload(const std::string& name);

/// Transaction abort classes, from the failed transaction's Status.
enum AbortClass { kLockTimeout, kConflict, kDuplicate, kRollback, kOther,
                  kNumAbortClasses };
extern const char* const kAbortClassNames[kNumAbortClasses];

/// Operation types: the five TPC-C transactions, TPC-H Q1..Q22, CH 1..5.
constexpr int kNumTxnTypes = 5;
constexpr int kNumOpTypes = kNumTxnTypes + 22 + 5;
/// "new_order", ..., "tpch_q01", ..., "ch1", ...
const std::string& OpTypeName(int type);

/// One attempted operation, placed in its measurement window: a second of
/// the run, or (tpch) a round of the 22 queries.
struct OpSample {
  uint32_t window = 0;
  int16_t type = -1;  // -1 when the operation failed or aborted
  uint64_t ns = 0;    // tpch: scaled to the nominal host speed
};

/// Everything one measured phase produced.
struct PhaseResult {
  std::vector<double> setup_s;  // one per set-up; the last one was measured
  double elapsed_s = 0;

  uint64_t attempted = 0;       // transactions + queries started
  uint64_t failed = 0;          // errors other than transaction aborts
  uint64_t aborts[kNumAbortClasses] = {};
  uint64_t txns_committed = 0;
  uint64_t new_orders = 0;
  uint64_t queries = 0;         // analytical queries that returned rows

  Samples ops;   // every attempted operation
  Samples txns;  // every attempted transaction (Worker::RunOne)
  /// Completed operations per type name (see OpTypeName).
  std::map<std::string, Samples> by_type;

  /// Every attempted operation of the complete windows, and the number of
  /// complete windows (the run's whole seconds, or its tpch rounds).
  std::vector<OpSample> timeline;
  uint32_t num_windows = 0;
  /// Completed operations per second in each complete window.
  std::vector<double> window_ops_per_s;
  std::vector<double> tpmc_per_s;        // committed new-orders, per window
  std::vector<double> round_geomean_ms;  // tpch: per round of 22 queries
  std::vector<double> round_kernel_ms;   // tpch: median TimeHostKernelNs

  /// Failed output checks; any entry makes the run incorrect.
  std::vector<std::string> errors;
  double rss_setup_mb = 0;  // peak resident memory once set up
  double rss_end_mb = 0;    // peak resident memory at the end of the run

  // Layer counters, filled by every phase (cheap, read from the engine's
  // own stats structs) ...
  uint64_t flushes = 0, merges = 0, segments_created = 0, rows_moved = 0;
  uint64_t rowstore_rows_end = 0, segments_end = 0;
  uint64_t files_written = 0, files_uploaded = 0, local_hits = 0,
           blob_fetches = 0, files_evicted = 0;
  uint64_t upload_backlog_max = 0;
  Samples host_loop_ns;  // TimeReferenceLoopNs, every 50 ms of the run
  ProcessUsage usage;  // delta over the measured phase

  // ... and by traced phases only.
  CallStats calls;   // engine calls of the client threads
  Samples gather_ns; // chbench: client-side merge after the scatter
  CountingEnv::Counts env;
  Samples blob_put_ns;
  uint64_t blob_puts = 0, blob_put_bytes = 0, blob_gets = 0,
           blob_get_bytes = 0;
  std::map<std::string, int64_t> profile;  // summed profile-tree counters
};

/// Sets up the workload `setups` times (each from scratch; the last
/// database is kept), runs one measured phase of opts.seconds and checks
/// the outputs. A traced phase installs the Env/BlobStore decorators, the
/// per-call timers and query profiling. Returns an error, naming the
/// phase, when opening, loading or running fails; failed output checks
/// are reported in out->errors instead.
s2::Status RunPhase(const Options& opts, bool traced, int setups,
                    PhaseResult* out);

/// Runs the 22 TPC-H queries once on `dataset` and prints their digests
/// as a C++ initializer row (used to refresh tpch_digests.inc).
s2::Status PrintTpchDigests(const Options& opts, int dataset);

}  // namespace htap

#endif  // HTAPBENCH_WORKLOADS_H_
