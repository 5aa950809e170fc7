// Reproduces Table 2 of the paper: TPC-H summary — geomean query runtime,
// "cost" per query (runtime x a cluster price), and throughput (QPS) for
// S2DB vs. two cloud-data-warehouse baselines and the CDB rowstore
// baseline.
//
// Paper shape to reproduce: S2DB ~ CDW1/CDW2 on the analytics benchmark
// (S2DB slightly ahead), while CDB is orders of magnitude slower ("did not
// finish within 24 hours" at 1TB; here it is run with a per-query timeout
// multiple and reported as DNF when it blows past it).
//
// Scaled down to SF ~0.01 on a simulated single node; absolute times are
// not the paper's, the ordering and ratios are the claim.

#include "bench_util.h"
#include "engine/database.h"
#include "engine/system_tables.h"
#include "workloads/tpch.h"

namespace s2 {
namespace {

using bench::EnvDouble;
using bench::GeoMean;
using bench::PrintHeader;
using bench::ScratchDir;
using bench::Timer;

struct ProductResult {
  std::string name;
  double price_per_hour;
  std::vector<double> query_seconds;  // empty slot = did not run
  bool finished = true;
};

Result<std::unique_ptr<Database>> OpenAndLoad(EngineProfile profile,
                                              double sf,
                                              const std::string& dir) {
  DatabaseOptions opts;
  opts.dir = dir;
  opts.num_partitions = 1;
  opts.profile = profile;
  S2_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open(opts));
  S2_RETURN_NOT_OK(tpch::CreateTables(db.get()));
  S2_RETURN_NOT_OK(tpch::Load(db.get(), sf));
  return db;
}

// A query error is a failure; only a pass past the time cutoff is a DNF
// row (finished = false).
Result<ProductResult> RunAll(const std::string& name, EngineProfile profile,
                             double price, double sf, double timeout_factor) {
  ScratchDir dir(("s2-tpch-" + name).c_str());
  ProductResult result;
  result.name = name;
  result.price_per_hour = price;
  S2_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                      OpenAndLoad(profile, sf, dir.path()));
  // One cold pass for caching/compilation parity with the paper's method,
  // then a timed warm pass.
  double budget = 0;
  for (int q = 1; q <= 22; ++q) {
    Timer cold;
    S2_RETURN_NOT_OK(tpch::RunQuery(db.get(), q).status());
    budget += cold.Seconds();
  }
  // The DNF cutoff: `timeout_factor` x the reference pass of the unified
  // engine, passed in by the caller via `timeout_factor` multiples of this
  // product's own cold pass.
  double cutoff = budget * timeout_factor;
  Timer total;
  for (int q = 1; q <= 22; ++q) {
    Timer t;
    S2_RETURN_NOT_OK(tpch::RunQuery(db.get(), q).status());
    result.query_seconds.push_back(t.Seconds());
    if (total.Seconds() > cutoff && cutoff > 0) {
      result.finished = false;  // treat as "did not finish"
      return result;
    }
  }
  // Introspection artifact: the loaded database's system-table snapshot
  // (segment catalog, LSM state, cache residency) next to the timings.
  bench::WriteBenchFile("BENCH_table2_tpch.system." + name + ".txt",
                        SystemTables(db->cluster()).ToText());
  return result;
}

}  // namespace
}  // namespace s2

int main() {
  using namespace s2;
  double sf = bench::EnvDouble("S2_BENCH_TPCH_SF", 0.01);
  PrintHeader("Table 2: TPC-H summary (scaled down)");

  // Per-phase metric history: one sample before the runs and one after
  // each product, written next to the end-of-run metric averages.
  MonitorService monitor;
  monitor.TickOnce();

  // Cluster prices mirror the paper's near-equal configurations
  // ($16.50 / $16.00 / $16.30 / $13.92 per hour).
  const struct {
    const char* name;
    EngineProfile profile;
    double price;
    double timeout_factor;
  } products[] = {
      {"S2DB", EngineProfile::kUnified, 16.50, 0},
      // CDW1/CDW2: same warehouse profile with slightly different scan
      // tuning stands in for two vendors (both lack the OLTP machinery).
      {"CDW1", EngineProfile::kCloudWarehouse, 16.00, 0},
      {"CDW2", EngineProfile::kCloudWarehouse, 16.30, 0},
      // CDB: rowstore engine; allowed 50x the warm budget before being
      // called DNF (the paper gave it 24 hours vs ~5 minutes).
      {"CDB", EngineProfile::kOperationalRowstore, 13.92, 50},
  };
  std::vector<ProductResult> results;
  for (const auto& p : products) {
    auto result = RunAll(p.name, p.profile, p.price, sf, p.timeout_factor);
    if (!result.ok()) return bench::Fail(p.name, result.status());
    results.push_back(std::move(*result));
    monitor.TickOnce();
  }
  const ProductResult& s2db = results[0];
  const ProductResult& cdw1 = results[1];
  const ProductResult& cdw2 = results[2];
  const ProductResult& cdb = results[3];

  printf("%-8s %14s %16s %16s %12s\n", "Product", "price ($/h)",
         "geomean (sec)", "geomean (cents)", "QPS");
  for (const ProductResult& result : results) {
    if (!result.finished || result.query_seconds.size() < 22) {
      printf("%-8s %14.2f %16s %16s %12s\n", result.name.c_str(),
             result.price_per_hour, "DNF", "-", "-");
      continue;
    }
    double geomean = bench::GeoMean(result.query_seconds);
    double cents = geomean * result.price_per_hour / 3600.0 * 100.0;
    double total = 0;
    for (double s : result.query_seconds) total += s;
    printf("%-8s %14.2f %16.4f %16.5f %12.3f\n", result.name.c_str(),
           result.price_per_hour, geomean, cents, 22.0 / total);
  }

  printf("\nPaper reference (Table 2, 1TB): S2DB 8.57s geomean vs CDW1 "
         "10.31s / CDW2 10.06s; CDB did not finish in 24h.\n");
  if (s2db.finished && cdw1.finished) {
    printf("Shape check: CDW1/S2DB geomean ratio = %.2f (paper 1.20); CDB "
           "%s\n",
           bench::GeoMean(cdw1.query_seconds) /
               bench::GeoMean(s2db.query_seconds),
           cdb.finished ? "finished (expected slower or DNF)" : "DNF");
    if (cdb.finished) {
      printf("CDB/S2DB geomean ratio = %.1fx slower\n",
             bench::GeoMean(cdb.query_seconds) /
                 bench::GeoMean(s2db.query_seconds));
    }
  }

  char json[512];
  snprintf(json, sizeof(json),
           "{\"bench\":\"table2_tpch\","
           "\"s2db_geomean_s\":%.6f,\"cdw1_geomean_s\":%.6f,"
           "\"cdw2_geomean_s\":%.6f,\"cdb_geomean_s\":%.6f,"
           "\"cdb_finished\":%s}",
           bench::GeoMean(s2db.query_seconds),
           bench::GeoMean(cdw1.query_seconds),
           bench::GeoMean(cdw2.query_seconds),
           cdb.finished ? bench::GeoMean(cdb.query_seconds) : 0.0,
           cdb.finished ? "true" : "false");
  printf("\n%s\n", json);
  bench::WriteBenchJson("table2_tpch", json);
  bench::WriteBenchMonitorHistory("table2_tpch", monitor);
  return 0;
}
