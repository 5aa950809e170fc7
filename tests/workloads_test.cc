#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "common/env.h"
#include "common/metrics.h"
#include "engine/database.h"
#include "workloads/tpcc.h"
#include "workloads/tpch.h"
#include "workloads/tpch_schema.h"

namespace s2 {
namespace {

class TpccTest : public ::testing::Test {
 protected:
  virtual int NumPartitions() const { return 2; }

  void SetUp() override {
    auto dir = MakeTempDir("s2-tpcc");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    DatabaseOptions opts;
    opts.dir = dir_;
    opts.num_partitions = NumPartitions();
    opts.num_nodes = 1;
    opts.ha_replicas = 0;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    scale_.warehouses = 2;
    scale_.districts_per_warehouse = 3;
    scale_.customers_per_district = 30;
    scale_.items = 100;
    scale_.initial_orders_per_district = 10;
    ASSERT_TRUE(tpcc::CreateTables(db_.get()).ok());
    ASSERT_TRUE(tpcc::Load(db_.get(), scale_).ok());
  }
  void TearDown() override {
    db_.reset();
    (void)RemoveDirRecursive(dir_);
  }

  // Sums a double column over all rows of a table across partitions.
  double SumColumn(const std::string& table, int col) {
    auto rows = db_->Query([&] {
      return std::make_unique<ScanOp>(table, std::vector<int>{col});
    });
    EXPECT_TRUE(rows.ok());
    double total = 0;
    for (const Row& row : *rows) total += row[0].AsNumeric();
    return total;
  }

  size_t CountRows(const std::string& table) {
    auto rows = db_->Query([&] {
      return std::make_unique<ScanOp>(table, std::vector<int>{0});
    });
    EXPECT_TRUE(rows.ok());
    return rows->size();
  }

  void ExpectDistrictAndYtdInvariants() {
    // Invariant: for every district, d_next_o_id - 1 == max(o_id).
    auto districts = db_->Query([] {
      return std::make_unique<ScanOp>("district", std::vector<int>{0, 1, 5});
    });
    ASSERT_TRUE(districts.ok());
    auto orders = db_->Query([] {
      return std::make_unique<ScanOp>("orders", std::vector<int>{0, 1, 2});
    });
    ASSERT_TRUE(orders.ok());
    std::map<std::pair<int64_t, int64_t>, int64_t> max_o;
    for (const Row& row : *orders) {
      auto key = std::make_pair(row[0].as_int(), row[1].as_int());
      max_o[key] = std::max(max_o[key], row[2].as_int());
    }
    for (const Row& row : *districts) {
      auto key = std::make_pair(row[0].as_int(), row[1].as_int());
      EXPECT_EQ(row[2].as_int() - 1, max_o[key])
          << "district (" << key.first << "," << key.second << ")";
    }

    // Invariant: warehouse YTD == 300000 (initial) + sum of payments into it.
    // Cross-check against district YTDs: sum(d_ytd) per warehouse tracks
    // w_ytd (both start at 30000*D / 300000 and receive the same payments).
    auto warehouses = db_->Query([] {
      return std::make_unique<ScanOp>("warehouse", std::vector<int>{0, 3});
    });
    ASSERT_TRUE(warehouses.ok());
    auto district_ytd = db_->Query([] {
      return std::make_unique<ScanOp>("district", std::vector<int>{0, 4});
    });
    ASSERT_TRUE(district_ytd.ok());
    std::map<int64_t, double> dsum;
    for (const Row& row : *district_ytd) {
      dsum[row[0].as_int()] += row[1].as_double();
    }
    for (const Row& row : *warehouses) {
      double w_ytd = row[1].as_double();
      double d_total = dsum[row[0].as_int()];
      EXPECT_NEAR(w_ytd - 300000.0,
                  d_total - 30000.0 * scale_.districts_per_warehouse, 1e-6)
          << "warehouse " << row[0].as_int();
    }
  }

  std::string dir_;
  tpcc::Scale scale_;
  std::unique_ptr<Database> db_;
};

TEST_F(TpccTest, LoadPopulationCounts) {
  EXPECT_EQ(CountRows("warehouse"), 2u);
  EXPECT_EQ(CountRows("district"), 6u);
  EXPECT_EQ(CountRows("customer"), 180u);
  EXPECT_EQ(CountRows("stock"), 200u);
  // Item is replicated to both partitions.
  EXPECT_EQ(CountRows("item"), 200u);
  EXPECT_EQ(CountRows("orders"), 60u);
}

TEST_F(TpccTest, TransactionsRunAndPreserveInvariants) {
  tpcc::Counters counters;
  tpcc::Worker worker(db_.get(), scale_, 123, &counters);
  int attempts = 300;
  for (int i = 0; i < attempts; ++i) {
    (void)worker.RunOne();  // aborts (1% rollbacks, conflicts) are fine
  }
  EXPECT_GT(counters.new_orders.load(), 50u);
  EXPECT_GT(counters.payments.load(), 50u);
  EXPECT_LT(counters.aborts.load(), static_cast<uint64_t>(attempts) / 4);

  ExpectDistrictAndYtdInvariants();

  // Every order has its orderlines: spot-check counts match o_ol_cnt.
  auto order_meta = db_->Query([] {
    return std::make_unique<ScanOp>("orders", std::vector<int>{0, 1, 2, 6});
  });
  auto lines = db_->Query([] {
    return std::make_unique<ScanOp>("orderline", std::vector<int>{0, 1, 2});
  });
  std::map<std::tuple<int64_t, int64_t, int64_t>, int64_t> line_count;
  for (const Row& row : *lines) {
    ++line_count[{row[0].as_int(), row[1].as_int(), row[2].as_int()}];
  }
  for (const Row& row : *order_meta) {
    auto key = std::make_tuple(row[0].as_int(), row[1].as_int(),
                               row[2].as_int());
    EXPECT_EQ(line_count[key], row[3].as_int());
  }
}

class TpccOnePartitionTest : public TpccTest {
 protected:
  int NumPartitions() const override { return 1; }
};

// Concurrent terminals on one partition: every lock cycle (NewOrder's
// district then stock rows in random item order, Payment, Delivery) is
// inside one lock table, so each aborts at once as a deadlock and the
// lock-timeout backstop never fires.
TEST_F(TpccOnePartitionTest, ConcurrentWorkersNeverTimeOut) {
  constexpr int kWorkers = 4;
  constexpr int kTxnsPerWorker = 150;
  Counter& timeouts = S2_COUNTER("s2_lock_timeouts_total");
  const uint64_t timeouts_before = timeouts.value();
  tpcc::Counters counters;
  std::atomic<int> timed_out{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      tpcc::Worker worker(db_.get(), scale_, 1000 + w, &counters);
      for (int i = 0; i < kTxnsPerWorker; ++i) {
        Status s = worker.RunOne();
        if (s.message().find("lock timeout") != std::string::npos) {
          timed_out.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_GT(counters.new_orders.load(), 0u);
  EXPECT_EQ(timed_out.load(), 0);
  EXPECT_EQ(timeouts.value(), timeouts_before);
  ExpectDistrictAndYtdInvariants();
}

class TpchTest : public ::testing::Test {
 protected:
  static constexpr double kSf = 0.002;  // ~3000 orders, ~12000 lineitems

  void SetUp() override {
    auto dir = MakeTempDir("s2-tpch");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    DatabaseOptions opts;
    opts.dir = dir_;
    opts.num_partitions = 1;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(tpch::CreateTables(db_.get()).ok());
    ASSERT_TRUE(tpch::Load(db_.get(), kSf).ok());
  }
  void TearDown() override {
    db_.reset();
    (void)RemoveDirRecursive(dir_);
  }

  std::vector<Row> Table(const std::string& name, std::vector<int> cols) {
    auto rows = db_->Query([&] {
      return std::make_unique<ScanOp>(name, cols);
    });
    EXPECT_TRUE(rows.ok());
    return *rows;
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(TpchTest, DateArithmetic) {
  EXPECT_EQ(tpch::DateAddDays(19981201, -90), 19980902);
  EXPECT_EQ(tpch::DateAddDays(19931231, 1), 19940101);
  EXPECT_EQ(tpch::DateAddDays(19960228, 1), 19960229);  // leap year
  EXPECT_EQ(tpch::DateAddMonths(19930701, 3), 19931001);
  EXPECT_EQ(tpch::DateAddMonths(19951201, 2), 19960201);
  EXPECT_EQ(tpch::DateAddMonths(19960131, 1), 19960229);
  EXPECT_EQ(tpch::DateYear(19970615), 1997);
}

TEST_F(TpchTest, Q1MatchesBruteForce) {
  auto result = tpch::RunQuery(db_.get(), 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->size(), 0u);

  // Brute force from a raw scan.
  namespace l = tpch::lineitem;
  auto rows = Table("lineitem", {l::kQuantity, l::kExtendedPrice,
                                 l::kDiscount, l::kReturnFlag, l::kLineStatus,
                                 l::kShipDate});
  std::map<std::pair<std::string, std::string>,
           std::pair<double, int64_t>>
      expect;  // (sum_qty, count)
  for (const Row& row : rows) {
    if (row[5].as_int() > tpch::DateAddDays(19981201, -90)) continue;
    auto& slot = expect[{row[3].as_string(), row[4].as_string()}];
    slot.first += row[0].as_double();
    slot.second += 1;
  }
  ASSERT_EQ(result->size(), expect.size());
  for (const Row& row : *result) {
    auto key = std::make_pair(row[0].as_string(), row[1].as_string());
    ASSERT_TRUE(expect.count(key)) << key.first << key.second;
    EXPECT_NEAR(row[2].as_double(), expect[key].first, 1e-6);
    EXPECT_EQ(row[9].as_int(), expect[key].second);  // count(*)
  }
}

TEST_F(TpchTest, Q6MatchesBruteForce) {
  auto result = tpch::RunQuery(db_.get(), 6);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);

  namespace l = tpch::lineitem;
  auto rows = Table("lineitem", {l::kShipDate, l::kDiscount, l::kQuantity,
                                 l::kExtendedPrice});
  double expect = 0;
  for (const Row& row : rows) {
    int64_t ship = row[0].as_int();
    double disc = row[1].as_double();
    if (ship >= 19940101 && ship <= 19941231 && disc >= 0.05 - 1e-9 &&
        disc <= 0.07 + 1e-9 && row[2].as_double() < 24) {
      expect += row[3].as_double() * disc;
    }
  }
  if ((*result)[0][0].is_null()) {
    EXPECT_EQ(expect, 0.0);
  } else {
    EXPECT_NEAR((*result)[0][0].as_double(), expect, 1e-6);
  }
}

TEST_F(TpchTest, Q13MatchesBruteForce) {
  auto result = tpch::RunQuery(db_.get(), 13);
  ASSERT_TRUE(result.ok());
  namespace o = tpch::orders;
  namespace c = tpch::customer;
  auto orders = Table("orders", {o::kCustKey, o::kComment});
  auto customers = Table("customer", {c::kCustKey});
  std::map<int64_t, int64_t> per_customer;
  for (const Row& row : customers) per_customer[row[0].as_int()] = 0;
  for (const Row& row : orders) {
    if (LikeMatch(row[1].as_string(), "%special%requests%")) continue;
    ++per_customer[row[0].as_int()];
  }
  std::map<int64_t, int64_t> dist;
  for (auto& [cust, count] : per_customer) ++dist[count];
  ASSERT_EQ(result->size(), dist.size());
  for (const Row& row : *result) {
    EXPECT_EQ(row[1].as_int(), dist[row[0].as_int()])
        << "c_count " << row[0].as_int();
  }
}

TEST_F(TpchTest, AllQueriesRunWithoutError) {
  for (int q = 1; q <= 22; ++q) {
    auto result = tpch::RunQuery(db_.get(), q);
    EXPECT_TRUE(result.ok()) << "Q" << q << ": "
                             << result.status().ToString();
  }
}

TEST_F(TpchTest, Q4SemiJoinSanity) {
  // Q4 counts orders per priority: total must not exceed the number of
  // orders in the window, and every count is positive.
  auto result = tpch::RunQuery(db_.get(), 4);
  ASSERT_TRUE(result.ok());
  for (const Row& row : *result) {
    EXPECT_GT(row[1].as_int(), 0);
  }
}

}  // namespace
}  // namespace s2
