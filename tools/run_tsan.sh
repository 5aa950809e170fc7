#!/usr/bin/env bash
# Builds the concurrency-sensitive tests under ThreadSanitizer and runs
# them. Scope is limited to the tests that exercise the shared executor
# (parallel scatter queries, morsel scans, maintenance, uploads, replica
# apply tasks; engine_test and profile_test force 4-thread executors over
# all of them, and cluster_test races writers, flushes, merges, replica
# apply, a workspace reader and a failover on 4 threads) and the lock
# table (txn_test, rowstore_test; engine_test's lock cycles), the
# segment install path (storage_test: movers racing a merge's install;
# lookups racing a flush or merge install), the LZ reader's decoded-block
# table (columnstore_test: 4 threads first-touching a fresh segment), the
# scan counters merged by morsel workers (exec_test), the stats counters
# bumped from many threads (metrics_test) and version GC on write against
# concurrent readers (workloads_test: 4 TPC-C workers on one partition) so
# the TSan build stays fast.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build build-tsan -j"$(nproc)" \
  --target common_test blob_test parallel_exec_test cluster_test \
  engine_test profile_test txn_test rowstore_test storage_test exec_test \
  metrics_test workloads_test columnstore_test

export TSAN_OPTIONS="halt_on_error=1:${TSAN_OPTIONS:-}"
for t in common_test blob_test parallel_exec_test cluster_test engine_test \
  profile_test txn_test rowstore_test storage_test exec_test metrics_test \
  workloads_test columnstore_test; do
  echo "=== tsan: $t ==="
  "./build-tsan/tests/$t"
done
echo "tsan: all clean"
