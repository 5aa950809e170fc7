// Reproduces Table 1 of "Cloud-Native Transactions and Analytics in
// SingleStore" (SIGMOD '22): TPC-C throughput of S2DB's unified table
// storage vs. a rowstore-based cloud operational database (CDB), plus an
// S2DB scaling row with more warehouses/partitions.
//
// Paper shape to reproduce: S2DB (columnar-based unified storage) is
// competitive with the rowstore CDB at equal scale, and S2DB throughput
// scales roughly linearly with warehouses/compute.
//
// Scaled down: W warehouses instead of 1000/10000, wall-clock seconds
// instead of full TPC-C measurement intervals. Absolute tpmC is not
// comparable to the paper's hardware.

#include <thread>

#include "bench_util.h"
#include "engine/database.h"
#include "workloads/tpcc.h"

namespace s2 {
namespace {

using bench::EnvDouble;
using bench::EnvInt;
using bench::ScratchDir;
using bench::Timer;

struct RunResult {
  double tpmc = 0;
  double total_txn_per_s = 0;
  uint64_t aborts = 0;
};

Result<RunResult> RunTpcc(EngineProfile profile, int warehouses,
                          int partitions, int workers, double seconds) {
  ScratchDir dir("s2-bench-tpcc");
  DatabaseOptions opts;
  opts.dir = dir.path();
  opts.num_partitions = partitions;
  opts.profile = profile;
  S2_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open(opts));
  tpcc::Scale scale;
  scale.warehouses = warehouses;
  scale.districts_per_warehouse = 4;
  scale.customers_per_district = 60;
  scale.items = 200;
  scale.initial_orders_per_district = 10;
  S2_RETURN_NOT_OK(tpcc::CreateTables(db.get()));
  S2_RETURN_NOT_OK(tpcc::Load(db.get(), scale));

  tpcc::Counters counters;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      tpcc::Worker worker(db.get(), scale, 1000 + t, &counters);
      while (!stop.load(std::memory_order_relaxed)) (void)worker.RunOne();
    });
  }
  Timer timer;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  stop = true;
  for (auto& t : threads) t.join();
  double elapsed = timer.Seconds();

  RunResult result;
  result.tpmc =
      static_cast<double>(counters.new_orders.load()) * 60.0 / elapsed;
  result.total_txn_per_s =
      static_cast<double>(counters.total()) / elapsed;
  result.aborts = counters.aborts.load();
  return result;
}

}  // namespace
}  // namespace s2

int main() {
  using namespace s2;
  double seconds = bench::EnvDouble("S2_BENCH_SECONDS", 5.0);
  // Default one worker per two hardware threads: on an oversubscribed host
  // scheduler noise and lock convoys swamp the engine comparison.
  int default_workers =
      std::max(1u, std::thread::hardware_concurrency() / 2);
  int workers = bench::EnvInt("S2_BENCH_WORKERS", default_workers);
  int w_small = bench::EnvInt("S2_BENCH_WAREHOUSES", 2);
  int w_big = w_small * 4;

  bench::PrintHeader(
      "Table 1: TPC-C throughput (scaled down; shape: S2DB ~= CDB at equal "
      "scale, S2DB scales with warehouses)");

  auto cdb_or = RunTpcc(EngineProfile::kOperationalRowstore, w_small, 1,
                        workers, seconds);
  if (!cdb_or.ok()) return bench::Fail("CDB", cdb_or.status());
  auto s2_small_or =
      RunTpcc(EngineProfile::kUnified, w_small, 1, workers, seconds);
  if (!s2_small_or.ok()) return bench::Fail("S2DB", s2_small_or.status());
  auto s2_big_or =
      RunTpcc(EngineProfile::kUnified, w_big, 4, workers, seconds);
  if (!s2_big_or.ok()) {
    return bench::Fail("S2DB (scaled out)", s2_big_or.status());
  }
  const RunResult& cdb = *cdb_or;
  const RunResult& s2_small = *s2_small_or;
  const RunResult& s2_big = *s2_big_or;

  printf("%-28s %12s %12s %14s %10s\n", "Product", "warehouses", "tpmC",
         "txn/s (all)", "aborts");
  printf("%-28s %12d %12.0f %14.1f %10llu\n", "CDB (rowstore baseline)",
         w_small, cdb.tpmc, cdb.total_txn_per_s,
         static_cast<unsigned long long>(cdb.aborts));
  printf("%-28s %12d %12.0f %14.1f %10llu\n", "S2DB (unified storage)",
         w_small, s2_small.tpmc, s2_small.total_txn_per_s,
         static_cast<unsigned long long>(s2_small.aborts));
  printf("%-28s %12d %12.0f %14.1f %10llu\n", "S2DB (scaled out)", w_big,
         s2_big.tpmc, s2_big.total_txn_per_s,
         static_cast<unsigned long long>(s2_big.aborts));

  printf("\nPaper reference (Table 1): CDB 12582 tpmC and S2DB 12556 tpmC at "
         "1000 warehouses (97.8%% vs 97.7%% of max);\n"
         "S2DB 121432 tpmC at 10000 warehouses / 8x vCPU (linear scaling).\n");
  printf("Shape checks: S2DB/CDB tpmC ratio = %.2f (paper ~1.0); "
         "S2DB scaled/S2DB ratio = %.2f\n",
         cdb.tpmc > 0 ? s2_small.tpmc / cdb.tpmc : 0,
         s2_small.tpmc > 0 ? s2_big.tpmc / s2_small.tpmc : 0);

  char json[512];
  snprintf(json, sizeof(json),
           "{\"bench\":\"table1_tpcc\",\"warehouses\":%d,"
           "\"cdb_tpmc\":%.1f,\"s2db_tpmc\":%.1f,\"s2db_scaled_tpmc\":%.1f,"
           "\"s2db_aborts\":%llu}",
           w_small, cdb.tpmc, s2_small.tpmc, s2_big.tpmc,
           static_cast<unsigned long long>(s2_small.aborts));
  printf("\n%s\n", json);
  bench::WriteBenchJson("table1_tpcc", json);
  return 0;
}
