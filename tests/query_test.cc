#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <set>

#include "blob/blob_store.h"
#include "common/env.h"
#include "query/expr.h"
#include "query/hash_index.h"
#include "query/plan.h"
#include "storage/partition.h"
#include "test_util.h"

namespace s2 {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("s2-query");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    PartitionOptions opts;
    opts.dir = dir_;
    opts.background_uploads = false;
    opts.auto_maintain = false;
    partition_ = std::make_unique<Partition>(opts);
    ASSERT_TRUE(partition_->Init().ok());

    // orders(order_id, customer_id, status, amount)
    TableOptions orders;
    orders.schema = Schema({{"order_id", DataType::kInt64},
                            {"customer_id", DataType::kInt64},
                            {"status", DataType::kString},
                            {"amount", DataType::kDouble}});
    orders.sort_key = {0};
    orders.indexes = {{0}, {1}};
    orders.unique_key = {0};
    orders.segment_rows = 64;
    ASSERT_TRUE(partition_->CreateTable("orders", orders).ok());

    // customers(customer_id, name, region)
    TableOptions customers;
    customers.schema = Schema({{"customer_id", DataType::kInt64},
                               {"name", DataType::kString},
                               {"region", DataType::kString}});
    customers.indexes = {{0}};
    customers.unique_key = {0};
    ASSERT_TRUE(partition_->CreateTable("customers", customers).ok());

    UnifiedTable* orders_table = *partition_->GetTable("orders");
    UnifiedTable* customers_table = *partition_->GetTable("customers");
    // 10 customers; 200 orders round-robin over customers 0..9.
    for (int64_t c = 0; c < 10; ++c) {
      auto h = partition_->Begin();
      ASSERT_TRUE(customers_table
                      ->InsertRows(h.id, h.read_ts,
                                   {{Value(c), Value("name" + std::to_string(c)),
                                     Value(c < 5 ? "EU" : "US")}})
                      .ok());
      ASSERT_TRUE(partition_->Commit(h.id).ok());
    }
    for (int64_t o = 0; o < 200; ++o) {
      auto h = partition_->Begin();
      ASSERT_TRUE(orders_table
                      ->InsertRows(h.id, h.read_ts,
                                   {{Value(o), Value(o % 10),
                                     Value(o % 3 == 0 ? "OPEN" : "DONE"),
                                     Value((o % 50) * 1.0)}})
                      .ok());
      ASSERT_TRUE(partition_->Commit(h.id).ok());
      if ((o + 1) % 64 == 0) {
        ASSERT_TRUE(orders_table->FlushRowstore().ok());
      }
    }
  }

  void TearDown() override {
    partition_.reset();
    (void)RemoveDirRecursive(dir_);
  }

  QueryContext Ctx() {
    auto h = partition_->Begin();
    QueryContext ctx;
    ctx.partition = partition_.get();
    ctx.txn = h.id;
    ctx.read_ts = h.read_ts;
    return ctx;
  }

  std::string dir_;
  std::unique_ptr<Partition> partition_;
};

TEST_F(QueryTest, ExprEval) {
  Row row = {Value(int64_t{10}), Value("hello"), Value(2.5)};
  EXPECT_EQ(Add(Col(0), Lit(Value(int64_t{5})))->Eval(row),
            Value(int64_t{15}));
  EXPECT_EQ(Mul(Col(2), Lit(Value(2.0)))->Eval(row), Value(5.0));
  EXPECT_EQ(Eq(Col(1), Lit(Value("hello")))->Eval(row), Value(int64_t{1}));
  EXPECT_EQ(Like(Col(1), "he%o")->Eval(row), Value(int64_t{1}));
  EXPECT_EQ(Like(Col(1), "he_o")->Eval(row), Value(int64_t{0}));
  EXPECT_EQ(Substr(Col(1), 2, 3)->Eval(row), Value("ell"));
  EXPECT_EQ(CaseWhen({Gt(Col(0), Lit(Value(int64_t{5}))), Lit(Value("big")),
                      Lit(Value("small"))})
                ->Eval(row),
            Value("big"));
  EXPECT_EQ(IsNull(Col(0))->Eval(row), Value(int64_t{0}));
  // NULL propagation.
  Row with_null = {Value::Null()};
  EXPECT_TRUE(Add(Col(0), Lit(Value(int64_t{1})))->Eval(with_null).is_null());
  EXPECT_EQ(IsNull(Col(0))->Eval(with_null), Value(int64_t{1}));
}

TEST_F(QueryTest, LikeMatch) {
  EXPECT_TRUE(LikeMatch("PROMO BRUSHED", "PROMO%"));
  EXPECT_FALSE(LikeMatch("STANDARD", "PROMO%"));
  EXPECT_TRUE(LikeMatch("forest green metal", "%green%"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("xyz", "_y_"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));
}

TEST_F(QueryTest, ScanWithFilterAndLimit) {
  auto ctx = Ctx();
  auto scan = std::make_unique<ScanOp>(
      "orders", std::vector<int>{0, 3},
      FilterCmp(0, CmpOp::kLt, Value(int64_t{20})));
  auto limit = std::make_unique<LimitOp>(std::move(scan), 5);
  auto rows = RunPlan(limit.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  partition_->EndRead(ctx.txn);
}

TEST_F(QueryTest, AggregateSumAvgCount) {
  auto ctx = Ctx();
  // SELECT status, count(*), sum(amount), avg(amount) FROM orders GROUP BY status
  auto scan = std::make_unique<ScanOp>("orders", std::vector<int>{2, 3});
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kCount, nullptr});
  aggs.push_back({AggKind::kSum, Col(1)});
  aggs.push_back({AggKind::kAvg, Col(1)});
  auto agg = std::make_unique<AggregateOp>(
      std::move(scan), std::vector<ExprPtr>{Col(0)}, std::move(aggs));
  auto sort = std::make_unique<SortOp>(
      std::move(agg), std::vector<SortKey>{{Col(0), false}});
  auto rows = RunPlan(sort.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  // DONE: orders where o%3 != 0 -> 133 rows; OPEN: 67 rows.
  EXPECT_EQ((*rows)[0][0], Value("DONE"));
  EXPECT_EQ((*rows)[0][1], Value(int64_t{133}));
  EXPECT_EQ((*rows)[1][0], Value("OPEN"));
  EXPECT_EQ((*rows)[1][1], Value(int64_t{67}));
  double total = (*rows)[0][2].as_double() + (*rows)[1][2].as_double();
  double expected = 0;
  for (int o = 0; o < 200; ++o) expected += (o % 50) * 1.0;
  EXPECT_DOUBLE_EQ(total, expected);
  partition_->EndRead(ctx.txn);
}

TEST_F(QueryTest, HashJoinInner) {
  auto ctx = Ctx();
  // SELECT o.order_id, c.region FROM orders o JOIN customers c USING (customer_id)
  // WHERE c.region = 'EU'
  auto orders = std::make_unique<ScanOp>("orders", std::vector<int>{0, 1});
  auto customers = std::make_unique<ScanOp>(
      "customers", std::vector<int>{0, 2}, FilterEq(1, Value("EU")));
  // Wait: customers projection {0,2} = (customer_id, region); filter col 1
  // refers to the table schema (name), so filter on region is col 2.
  customers = std::make_unique<ScanOp>("customers", std::vector<int>{0, 2},
                                       FilterEq(2, Value("EU")));
  auto join = std::make_unique<HashJoinOp>(
      std::move(orders), std::move(customers), std::vector<ExprPtr>{Col(1)},
      std::vector<ExprPtr>{Col(0)}, JoinType::kInner, 2);
  auto rows = RunPlan(join.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  // Customers 0..4 are EU; orders to them: o%10 in 0..4 -> 100 orders.
  EXPECT_EQ(rows->size(), 100u);
  for (const Row& row : *rows) {
    EXPECT_LT(row[1].as_int(), 5);
    EXPECT_EQ(row[3], Value("EU"));
  }
  partition_->EndRead(ctx.txn);
}

TEST_F(QueryTest, LeftJoinPadsNulls) {
  auto ctx = Ctx();
  // customers LEFT JOIN orders with amount > 48 (only some customers have
  // such orders).
  auto customers =
      std::make_unique<ScanOp>("customers", std::vector<int>{0, 1});
  auto orders = std::make_unique<ScanOp>(
      "orders", std::vector<int>{1, 3},
      FilterCmp(3, CmpOp::kGt, Value(48.0)));
  auto join = std::make_unique<HashJoinOp>(
      std::move(customers), std::move(orders), std::vector<ExprPtr>{Col(0)},
      std::vector<ExprPtr>{Col(0)}, JoinType::kLeft, 2);
  auto rows = RunPlan(join.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  // Orders with amount 49: o%50==49 -> o in {49,99,149,199}, customers 9.
  size_t null_rows = 0;
  for (const Row& row : *rows) {
    if (row[2].is_null()) ++null_rows;
  }
  EXPECT_EQ(null_rows, 9u) << "9 customers with no matching order";
  EXPECT_EQ(rows->size(), 9u + 4u);
  partition_->EndRead(ctx.txn);
}

TEST_F(QueryTest, SemiAndAntiJoin) {
  auto ctx = Ctx();
  // Customers with at least one OPEN order (semi) / none (anti).
  auto open_orders = [&] {
    return std::make_unique<ScanOp>("orders", std::vector<int>{1},
                                    FilterEq(2, Value("OPEN")));
  };
  auto semi = std::make_unique<HashJoinOp>(
      std::make_unique<ScanOp>("customers", std::vector<int>{0}),
      open_orders(), std::vector<ExprPtr>{Col(0)},
      std::vector<ExprPtr>{Col(0)}, JoinType::kSemi, 1);
  auto semi_rows = RunPlan(semi.get(), &ctx);
  ASSERT_TRUE(semi_rows.ok());

  auto anti = std::make_unique<HashJoinOp>(
      std::make_unique<ScanOp>("customers", std::vector<int>{0}),
      open_orders(), std::vector<ExprPtr>{Col(0)},
      std::vector<ExprPtr>{Col(0)}, JoinType::kAnti, 1);
  auto anti_rows = RunPlan(anti.get(), &ctx);
  ASSERT_TRUE(anti_rows.ok());
  EXPECT_EQ(semi_rows->size() + anti_rows->size(), 10u);
  EXPECT_EQ(semi_rows->size(), 10u);  // every customer has an OPEN order
  partition_->EndRead(ctx.txn);
}

TEST_F(QueryTest, IndexJoinUsesIndexForSmallBuildSide) {
  auto ctx = Ctx();
  // Join orders against a tiny in-memory build side via the join index
  // filter (Section 5.1).
  std::vector<Row> build = {{Value(int64_t{5}), Value("x")},
                            {Value(int64_t{7}), Value("y")}};
  auto join = std::make_unique<IndexJoinOp>(
      "orders", std::vector<int>{0, 1}, /*probe_col=*/0,
      std::make_unique<ValuesOp>(build), Col(0));
  auto rows = RunPlan(join.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_TRUE(join->stats().used_index);
  EXPECT_EQ(join->stats().index_probes, 2u);
  partition_->EndRead(ctx.txn);
}

TEST_F(QueryTest, IndexJoinFallsBackForLargeBuildSide) {
  auto ctx = Ctx();
  std::vector<Row> build;
  for (int64_t i = 0; i < 150; ++i) build.push_back({Value(i)});
  auto join = std::make_unique<IndexJoinOp>(
      "orders", std::vector<int>{0}, /*probe_col=*/0,
      std::make_unique<ValuesOp>(build), Col(0), nullptr,
      /*max_key_fraction=*/0.05);
  auto rows = RunPlan(join.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 150u);
  EXPECT_FALSE(join->stats().used_index)
      << "too many keys: must fall back to hash join over a scan";
  partition_->EndRead(ctx.txn);
}

TEST_F(QueryTest, SortOrderAndProject) {
  auto ctx = Ctx();
  auto scan = std::make_unique<ScanOp>(
      "orders", std::vector<int>{0, 3},
      FilterCmp(0, CmpOp::kLt, Value(int64_t{10})));
  auto project = std::make_unique<ProjectOp>(
      std::move(scan),
      std::vector<ExprPtr>{Col(0), Mul(Col(1), Lit(Value(2.0)))});
  auto sort = std::make_unique<SortOp>(
      std::move(project), std::vector<SortKey>{{Col(1), true}, {Col(0), false}});
  auto rows = RunPlan(sort.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  EXPECT_EQ((*rows)[0][1], Value(18.0));  // amount 9 * 2
  EXPECT_EQ((*rows)[9][1], Value(0.0));
  partition_->EndRead(ctx.txn);
}

TEST_F(QueryTest, EmptyAggregateProducesOneRow) {
  auto ctx = Ctx();
  auto scan = std::make_unique<ScanOp>(
      "orders", std::vector<int>{0},
      FilterEq(0, Value(int64_t{99999})));  // matches nothing
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kCount, nullptr});
  aggs.push_back({AggKind::kSum, Col(0)});
  auto agg = std::make_unique<AggregateOp>(std::move(scan),
                                           std::vector<ExprPtr>{}, std::move(aggs));
  auto rows = RunPlan(agg.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value(int64_t{0}));
  EXPECT_TRUE((*rows)[0][1].is_null());
  partition_->EndRead(ctx.txn);
}

TEST_F(QueryTest, CountDistinct) {
  auto ctx = Ctx();
  auto scan = std::make_unique<ScanOp>("orders", std::vector<int>{1});
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kCountDistinct, Col(0)});
  auto agg = std::make_unique<AggregateOp>(std::move(scan),
                                           std::vector<ExprPtr>{}, std::move(aggs));
  auto rows = RunPlan(agg.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0], Value(int64_t{10}));
  partition_->EndRead(ctx.txn);
}

TEST(ExprTest, ThreeValuedLogic) {
  Row row = {Value::Null(), Value("abc")};
  ExprPtr null = Col(0);
  ExprPtr t = Lit(Value(int64_t{1}));
  ExprPtr f = Lit(Value(int64_t{0}));
  EXPECT_EQ(And(null, f)->Eval(row), Value(int64_t{0}));
  EXPECT_EQ(And(f, null)->Eval(row), Value(int64_t{0}));
  EXPECT_TRUE(And(null, t)->Eval(row).is_null());
  EXPECT_TRUE(And(t, null)->Eval(row).is_null());
  EXPECT_EQ(And(t, t)->Eval(row), Value(int64_t{1}));
  EXPECT_EQ(Or(null, t)->Eval(row), Value(int64_t{1}));
  EXPECT_EQ(Or(t, null)->Eval(row), Value(int64_t{1}));
  EXPECT_TRUE(Or(null, f)->Eval(row).is_null());
  EXPECT_TRUE(Or(f, null)->Eval(row).is_null());
  EXPECT_EQ(Or(f, f)->Eval(row), Value(int64_t{0}));
  EXPECT_TRUE(Like(null, "a%")->Eval(row).is_null());
  EXPECT_TRUE(Not(Like(null, "a%"))->Eval(row).is_null());
  EXPECT_EQ(Not(Like(Col(1), "x%"))->Eval(row), Value(int64_t{1}));
}

TEST(ExprTest, NotLikeFilterDropsNullRows) {
  // WHERE NOT (x LIKE 'a%') must not pass a row where x is NULL.
  std::vector<Row> rows = {{Value("abc")}, {Value::Null()}, {Value("xyz")}};
  FilterOp filter(std::make_unique<ValuesOp>(rows), Not(Like(Col(0), "a%")));
  QueryContext ctx;
  auto out = RunPlan(&filter, &ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0][0], Value("xyz"));
}

TEST(HashIndexTest, GrowsAndKeepsDenseIds) {
  constexpr int64_t kKeys = 100000;
  HashIndex index;
  EXPECT_EQ(index.Find(0, [](uint32_t) { return true; }), HashIndex::kNone);
  std::vector<int64_t> keys;  // entry id -> key
  for (int64_t k = 0; k < kKeys; ++k) {
    auto [id, inserted] = index.FindOrInsert(
        MixHash64(k), [&](uint32_t id) { return keys[id] == k; });
    ASSERT_TRUE(inserted);
    ASSERT_EQ(id, keys.size());
    keys.push_back(k);
  }
  EXPECT_EQ(index.size(), static_cast<size_t>(kKeys));
  for (int64_t k = 0; k < kKeys; k += 7) {
    auto eq = [&](uint32_t id) { return keys[id] == k; };
    EXPECT_EQ(index.Find(MixHash64(k), eq), k);
    auto [id, inserted] = index.FindOrInsert(MixHash64(k), eq);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(id, k);
  }
  EXPECT_EQ(index.size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(index.Find(MixHash64(kKeys),
                       [&](uint32_t id) { return keys[id] == kKeys; }),
            HashIndex::kNone);
}

TEST(HashIndexTest, EveryEntryWithTheSameHash) {
  constexpr uint64_t kHash = 42;
  constexpr int kKeys = 500;
  HashIndex index;
  std::vector<int> keys;
  for (int k = 0; k < kKeys; ++k) {
    auto [id, inserted] = index.FindOrInsert(
        kHash, [&](uint32_t id) { return keys[id] == k; });
    ASSERT_TRUE(inserted);
    ASSERT_EQ(id, static_cast<uint32_t>(k));
    keys.push_back(k);
  }
  for (int k = 0; k < kKeys; ++k) {
    auto eq = [&](uint32_t id) { return keys[id] == k; };
    EXPECT_EQ(index.Find(kHash, eq), static_cast<uint32_t>(k));
    EXPECT_FALSE(index.FindOrInsert(kHash, eq).second);
  }
  EXPECT_EQ(index.Find(kHash, [](uint32_t) { return false; }),
            HashIndex::kNone);
  // A probe for another hash walks past the colliding run without calling
  // the equality test on it.
  EXPECT_EQ(index.Find(kHash + 1,
                       [](uint32_t) {
                         ADD_FAILURE() << "eq called on a hash mismatch";
                         return true;
                       }),
            HashIndex::kNone);
  EXPECT_EQ(index.size(), static_cast<size_t>(kKeys));
}

TEST(HashIndexTest, KeyEqualIsTheByteEncodingRule) {
  const std::vector<Value> values = {
      Value::Null(),   Value(int64_t{0}), Value(int64_t{1}), Value(0.0),
      Value(-0.0),     Value(1.0),        Value(1.5),        Value(""),
      Value("1"),      Value("ab")};
  for (const Value& a : values) {
    for (const Value& b : values) {
      bool same_bytes = EncodeKey(Row{a}) == EncodeKey(Row{b});
      EXPECT_EQ(KeyEqual(a, b), same_bytes) << a.ToString() << " vs "
                                            << b.ToString();
      const Value* ka = &a;
      const Value* kb = &b;
      if (same_bytes) {
        EXPECT_EQ(HashKey(KeyRef(&ka, 1)), HashKey(KeyRef(&kb, 1)));
      }
    }
  }
  EXPECT_FALSE(KeyEqual(Value(int64_t{1}), Value(1.0)));
  EXPECT_FALSE(KeyEqual(Value(0.0), Value(-0.0)));
  EXPECT_TRUE(KeyEqual(Value::Null(), Value::Null()));
}

// --- Hash operators against std::map references over EncodeKey ---

// A key value drawn from a small domain with NULLs, ints, doubles that
// compare equal to ints (1.0, 0.0, -0.0) and strings.
Value RandomKey(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0:
      return Value::Null();
    case 1:
      return Value(1.0);
    case 2:
      return Value(0.0);
    case 3:
      return Value(-0.0);
    case 4:
      return Value("k" + std::to_string(rng() % 4));
    default:
      return Value(static_cast<int64_t>(rng() % 5));
  }
}

// Wraps `e` in an identity CASE so the operator evaluates it instead of
// reading a column in place.
ExprPtr Computed(ExprPtr e) {
  return CaseWhen({Lit(Value(int64_t{1})), std::move(e)});
}

std::vector<Row> ReferenceJoin(const std::vector<Row>& left,
                               const std::vector<Row>& right,
                               const std::vector<ExprPtr>& left_keys,
                               const std::vector<ExprPtr>& right_keys,
                               JoinType type, size_t right_width) {
  auto key_of = [](const Row& row, const std::vector<ExprPtr>& exprs,
                   bool* has_null) {
    Row key;
    for (const ExprPtr& e : exprs) {
      key.push_back(e->Eval(row));
      if (key.back().is_null()) *has_null = true;
    }
    return EncodeKey(key);
  };
  std::map<std::string, std::vector<const Row*>> table;
  for (const Row& row : right) {
    bool has_null = false;
    std::string key = key_of(row, right_keys, &has_null);
    if (!has_null) table[key].push_back(&row);
  }
  std::vector<Row> out;
  for (const Row& row : left) {
    bool has_null = false;
    std::string key = key_of(row, left_keys, &has_null);
    auto it = has_null ? table.end() : table.find(key);
    bool matched = it != table.end();
    if (type == JoinType::kSemi || type == JoinType::kAnti) {
      if (matched == (type == JoinType::kSemi)) out.push_back(row);
    } else if (matched) {
      for (const Row* match : it->second) {
        Row joined = row;
        joined.insert(joined.end(), match->begin(), match->end());
        out.push_back(std::move(joined));
      }
    } else if (type == JoinType::kLeft) {
      Row joined = row;
      joined.resize(row.size() + right_width);
      out.push_back(std::move(joined));
    }
  }
  return out;
}

// Rows compare by their byte encoding: same types and same bits.
void ExpectSameRows(const std::vector<Row>& got,
                    const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(EncodeKey(got[i]), EncodeKey(want[i])) << "row " << i;
  }
}

TEST(HashOperatorTest, HashJoinMatchesReference) {
  uint64_t seed = TestSeed(8);
  SCOPED_TRACE("S2_TEST_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  // Rows: (key0, key1, row number). The row number makes match order
  // visible in the output.
  auto make_rows = [&](size_t n) {
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({RandomKey(rng), RandomKey(rng),
                      Value(static_cast<int64_t>(i))});
    }
    return rows;
  };
  std::vector<Row> right = make_rows(400);
  std::vector<Row> left = make_rows(3000);  // more than one output batch

  struct KeyCase {
    std::vector<ExprPtr> left, right;
  };
  const std::vector<KeyCase> key_cases = {
      {{Col(0)}, {Col(0)}},
      {{Col(1)}, {Col(0)}},
      {{Col(0), Col(1)}, {Col(0), Col(1)}},
      {{Computed(Col(1)), Col(0)}, {Col(1), Computed(Col(0))}},
  };
  for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                        JoinType::kAnti}) {
    for (size_t c = 0; c < key_cases.size(); ++c) {
      SCOPED_TRACE("join type " + std::to_string(static_cast<int>(type)) +
                   ", key case " + std::to_string(c));
      const KeyCase& keys = key_cases[c];
      HashJoinOp join(std::make_unique<ValuesOp>(left),
                      std::make_unique<ValuesOp>(right), keys.left,
                      keys.right, type, 3);
      QueryContext ctx;
      auto rows = RunPlan(&join, &ctx);
      ASSERT_TRUE(rows.ok());
      ExpectSameRows(*rows, ReferenceJoin(left, right, keys.left, keys.right,
                                          type, 3));
    }
  }
}

TEST(HashOperatorTest, HashJoinKeepsBuildArrivalOrder) {
  std::vector<Row> right = {{Value(int64_t{7}), Value("a")},
                            {Value(int64_t{8}), Value("x")},
                            {Value(int64_t{7}), Value("b")},
                            {Value::Null(), Value("n")},
                            {Value(int64_t{7}), Value("c")}};
  std::vector<Row> left = {{Value(int64_t{7})}, {Value::Null()},
                           {Value(7.0)}};
  HashJoinOp join(std::make_unique<ValuesOp>(left),
                  std::make_unique<ValuesOp>(right), {Col(0)}, {Col(0)},
                  JoinType::kLeft, 2);
  QueryContext ctx;
  auto rows = RunPlan(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  // 7 matches a, b, c in arrival order; NULL never matches (not even the
  // NULL build key); double 7.0 is not the int key 7.
  ASSERT_EQ(rows->size(), 5u);
  EXPECT_EQ((*rows)[0][2], Value("a"));
  EXPECT_EQ((*rows)[1][2], Value("b"));
  EXPECT_EQ((*rows)[2][2], Value("c"));
  EXPECT_TRUE((*rows)[3][0].is_null());
  EXPECT_TRUE((*rows)[3][2].is_null());
  EXPECT_TRUE((*rows)[4][0].is_double());
  EXPECT_TRUE((*rows)[4][2].is_null());
}

// Hash aggregation as a std::map over EncodeKey, emitting groups in
// first-arrival order.
std::vector<Row> ReferenceAggregate(const std::vector<Row>& input,
                                    const std::vector<ExprPtr>& group_by,
                                    const std::vector<AggSpec>& aggs) {
  struct Group {
    Row key;
    uint64_t rows = 0;
    std::vector<uint64_t> counts;
    std::vector<double> sums;
    std::vector<Value> mins, maxs;
    std::vector<std::set<std::string>> distincts;
  };
  std::map<std::string, size_t> index;
  std::vector<Group> groups;
  auto add_group = [&](Row key) {
    Group g;
    g.key = std::move(key);
    g.counts.assign(aggs.size(), 0);
    g.sums.assign(aggs.size(), 0);
    g.mins.assign(aggs.size(), Value::Null());
    g.maxs.assign(aggs.size(), Value::Null());
    g.distincts.resize(aggs.size());
    groups.push_back(std::move(g));
  };
  if (group_by.empty()) add_group({});
  for (const Row& row : input) {
    Row key;
    for (const ExprPtr& e : group_by) key.push_back(e->Eval(row));
    size_t g = 0;
    if (!group_by.empty()) {
      auto [it, inserted] = index.try_emplace(EncodeKey(key), groups.size());
      if (inserted) add_group(key);
      g = it->second;
    }
    Group& group = groups[g];
    ++group.rows;
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].expr == nullptr) continue;
      Value v = aggs[a].expr->Eval(row);
      if (v.is_null()) continue;
      ++group.counts[a];
      if (aggs[a].kind == AggKind::kSum || aggs[a].kind == AggKind::kAvg) {
        group.sums[a] += v.AsNumeric();
      }
      if (group.mins[a].is_null() || v.Compare(group.mins[a]) < 0) {
        group.mins[a] = v;
      }
      if (group.maxs[a].is_null() || v.Compare(group.maxs[a]) > 0) {
        group.maxs[a] = v;
      }
      group.distincts[a].insert(EncodeKey(Row{v}));
    }
  }
  std::vector<Row> out;
  for (const Group& group : groups) {
    Row row = group.key;
    for (size_t a = 0; a < aggs.size(); ++a) {
      uint64_t n = group.counts[a];
      switch (aggs[a].kind) {
        case AggKind::kCount:
          row.push_back(static_cast<int64_t>(
              aggs[a].expr == nullptr ? group.rows : n));
          break;
        case AggKind::kCountDistinct:
          row.push_back(static_cast<int64_t>(group.distincts[a].size()));
          break;
        case AggKind::kSum:
          row.push_back(n == 0 ? Value::Null() : Value(group.sums[a]));
          break;
        case AggKind::kAvg:
          row.push_back(n == 0 ? Value::Null()
                               : Value(group.sums[a] / static_cast<double>(n)));
          break;
        case AggKind::kMin:
          row.push_back(group.mins[a]);
          break;
        case AggKind::kMax:
          row.push_back(group.maxs[a]);
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<AggSpec> AllAggregates(int numeric_col, int any_col) {
  return {{AggKind::kCount, nullptr},
          {AggKind::kCount, Col(any_col)},
          {AggKind::kCountDistinct, Col(any_col)},
          {AggKind::kSum, Col(numeric_col)},
          {AggKind::kAvg, Col(numeric_col)},
          {AggKind::kSum, Mul(Col(numeric_col), Lit(Value(2.5)))},
          {AggKind::kMin, Col(any_col)},
          {AggKind::kMax, Col(any_col)},
          {AggKind::kMin, Computed(Col(numeric_col))}};
}

std::vector<Row> RunAggregate(const std::vector<Row>& input,
                              const std::vector<ExprPtr>& group_by,
                              const std::vector<AggSpec>& aggs) {
  AggregateOp agg(std::make_unique<ValuesOp>(input), group_by, aggs);
  QueryContext ctx;
  auto rows = RunPlan(&agg, &ctx);
  EXPECT_TRUE(rows.ok());
  return rows.ok() ? *rows : std::vector<Row>{};
}

TEST(HashOperatorTest, AggregateMatchesReference) {
  uint64_t seed = TestSeed(9);
  SCOPED_TRACE("S2_TEST_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  // Rows: (key0, key1, numeric or NULL, any key value).
  std::vector<Row> input;
  for (int i = 0; i < 5000; ++i) {
    Value numeric = rng() % 6 == 0 ? Value::Null()
                    : rng() % 2 == 0
                        ? Value(static_cast<int64_t>(rng() % 100))
                        : Value(static_cast<double>(rng() % 1000) / 8);
    input.push_back({RandomKey(rng), RandomKey(rng), std::move(numeric),
                     RandomKey(rng)});
  }
  const std::vector<std::vector<ExprPtr>> group_bys = {
      {}, {Col(0)}, {Col(0), Col(1)}, {Computed(Col(1)), Col(0)}};
  for (size_t c = 0; c < group_bys.size(); ++c) {
    SCOPED_TRACE("group-by case " + std::to_string(c));
    std::vector<AggSpec> aggs = AllAggregates(2, 3);
    ExpectSameRows(RunAggregate(input, group_bys[c], aggs),
                   ReferenceAggregate(input, group_bys[c], aggs));
  }
}

TEST(HashOperatorTest, AggregateGroupKeysUseTypeAndBits) {
  std::vector<Row> input = {{Value::Null()},     {Value(int64_t{1})},
                            {Value(1.0)},        {Value(0.0)},
                            {Value(-0.0)},       {Value::Null()},
                            {Value(int64_t{1})}, {Value(-0.0)}};
  auto rows = RunAggregate(input, {Col(0)}, {{AggKind::kCount, nullptr}});
  // Groups in first-arrival order: NULL forms one group; 1, 1.0, 0.0 and
  // -0.0 are four more.
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_EQ(rows[0][1], Value(int64_t{2}));
  EXPECT_TRUE(rows[1][0].is_int());
  EXPECT_EQ(rows[1][1], Value(int64_t{2}));
  EXPECT_TRUE(rows[2][0].is_double());
  EXPECT_EQ(rows[2][1], Value(int64_t{1}));
  EXPECT_FALSE(std::signbit(rows[3][0].as_double()));
  EXPECT_EQ(rows[3][1], Value(int64_t{1}));
  EXPECT_TRUE(std::signbit(rows[4][0].as_double()));
  EXPECT_EQ(rows[4][1], Value(int64_t{2}));
}

TEST(HashOperatorTest, CountDistinctOverManyGroups) {
  uint64_t seed = TestSeed(10);
  SCOPED_TRACE("S2_TEST_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  constexpr int64_t kGroups = 12000;
  std::vector<Row> input;
  for (int i = 0; i < 5 * kGroups; ++i) {
    int64_t g = static_cast<int64_t>(rng() % kGroups);
    Value v = rng() % 3 == 0 ? RandomKey(rng)
                             : Value(static_cast<int64_t>(rng() % 4));
    input.push_back({Value(g), std::move(v)});
  }
  std::vector<AggSpec> aggs = {{AggKind::kCountDistinct, Col(1)},
                               {AggKind::kCount, Col(1)}};
  std::vector<Row> got = RunAggregate(input, {Col(0)}, aggs);
  EXPECT_GT(got.size(), 10000u);
  ExpectSameRows(got, ReferenceAggregate(input, {Col(0)}, aggs));
}

TEST(HashOperatorTest, AggregateOverEmptyInput) {
  std::vector<AggSpec> aggs = AllAggregates(0, 0);
  // No GROUP BY: one row of empty aggregates.
  std::vector<Row> global = RunAggregate({}, {}, aggs);
  ExpectSameRows(global, ReferenceAggregate({}, {}, aggs));
  ASSERT_EQ(global.size(), 1u);
  EXPECT_EQ(global[0][0], Value(int64_t{0}));
  EXPECT_EQ(global[0][2], Value(int64_t{0}));
  EXPECT_TRUE(global[0][3].is_null());
  EXPECT_TRUE(global[0][6].is_null());
  // With GROUP BY: no groups, no rows.
  EXPECT_TRUE(RunAggregate({}, {Col(0)}, aggs).empty());
}

TEST(HashOperatorTest, SortEvaluatesKeysAndKeepsTies) {
  std::vector<Row> rows = {{Value(int64_t{1}), Value("a")},
                           {Value(int64_t{0}), Value("b")},
                           {Value(int64_t{1}), Value("c")},
                           {Value(int64_t{0}), Value("d")},
                           {Value(int64_t{2}), Value("e")}};
  // Ascending on -col0 (an evaluated key), ties in input order.
  SortOp by_expr(std::make_unique<ValuesOp>(rows),
                 {{Mul(Col(0), Lit(Value(int64_t{-1}))), false}});
  QueryContext ctx;
  auto sorted = RunPlan(&by_expr, &ctx);
  ASSERT_TRUE(sorted.ok());
  std::string order;
  for (const Row& row : *sorted) order += row[1].as_string();
  EXPECT_EQ(order, "eacbd");
  // Descending on col0 then ascending on a computed col1.
  SortOp by_cols(std::make_unique<ValuesOp>(rows),
                 {{Col(0), true}, {Computed(Col(1)), false}});
  sorted = RunPlan(&by_cols, &ctx);
  ASSERT_TRUE(sorted.ok());
  order.clear();
  for (const Row& row : *sorted) order += row[1].as_string();
  EXPECT_EQ(order, "eacbd");
}

// --- Batch boundaries ---

// Runs `plan` and keeps every batch its sink receives, as rows.
std::vector<std::vector<Row>> CollectBatches(PlanNode* plan,
                                             QueryContext* ctx) {
  std::vector<std::vector<Row>> batches;
  Status s = plan->Execute(ctx, [&](RowBatch&& batch) {
    EXPECT_FALSE(batch.empty()) << "sinks never receive an empty batch";
    std::vector<Row>& rows = batches.emplace_back();
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      std::span<const Value> row = batch.row(i);
      rows.emplace_back(row.begin(), row.end());
    }
    return true;
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return batches;
}

std::vector<Row> Concat(const std::vector<std::vector<Row>>& batches) {
  std::vector<Row> rows;
  for (const std::vector<Row>& batch : batches) {
    rows.insert(rows.end(), batch.begin(), batch.end());
  }
  return rows;
}

// Forwards its child's batches and counts them.
class CountingOp : public PlanNode {
 public:
  explicit CountingOp(PlanPtr child) : child_(std::move(child)) {}
  Status Execute(QueryContext* ctx, const BatchSink& sink) override {
    return child_->Execute(ctx, [&](RowBatch&& batch) {
      ++batches_;
      return sink(std::move(batch));
    });
  }
  size_t batches() const { return batches_; }

 private:
  PlanPtr child_;
  size_t batches_ = 0;
};

TEST(BatchBoundaryTest, JoinMatchesStraddleTheBatchBoundary) {
  // 1500 build rows under key 7: the first probe row alone produces more
  // than one output batch.
  std::vector<Row> right;
  for (int64_t i = 0; i < 1500; ++i) right.push_back({Value(int64_t{7}), i});
  std::vector<Row> left = {{Value(int64_t{7}), Value("a")},
                           {Value(int64_t{8}), Value("x")},
                           {Value(int64_t{7}), Value("b")}};
  HashJoinOp join(std::make_unique<ValuesOp>(left),
                  std::make_unique<ValuesOp>(right), {Col(0)}, {Col(0)},
                  JoinType::kInner, 2);
  QueryContext ctx;
  auto batches = CollectBatches(&join, &ctx);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), kBatchRows);
  EXPECT_EQ(batches[1].size(), kBatchRows);
  EXPECT_EQ(batches[2].size(), 3000 - 2 * kBatchRows);
  std::vector<Row> want;
  for (const Row& l : {left[0], left[2]}) {
    for (const Row& r : right) want.push_back({l[0], l[1], r[0], r[1]});
  }
  ExpectSameRows(Concat(batches), want);
}

TEST(BatchBoundaryTest, LimitEndsMidBatchAndOnABoundary) {
  // Sorting 3000 rows emits batches of kBatchRows, kBatchRows and 952.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 3000; ++i) rows.push_back({Value(2999 - i)});
  auto sorted = [&] {
    return std::make_unique<SortOp>(std::make_unique<ValuesOp>(rows),
                                    std::vector<SortKey>{{Col(0), false}});
  };
  for (size_t limit : {kBatchRows + 100, 2 * kBatchRows}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    auto counting = std::make_unique<CountingOp>(sorted());
    CountingOp* child = counting.get();
    LimitOp op(std::move(counting), limit);
    QueryContext ctx;
    auto batches = CollectBatches(&op, &ctx);
    ASSERT_EQ(batches.size(), 2u);
    EXPECT_EQ(batches[0].size(), kBatchRows);
    EXPECT_EQ(batches[1].size(), limit - kBatchRows);
    std::vector<Row> got = Concat(batches);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i][0], Value(static_cast<int64_t>(i))) << i;
    }
    // The limit stops its child once it has its rows: no third batch.
    EXPECT_EQ(child->batches(), 2u);
  }
}

TEST_F(QueryTest, PostFilterRejectsAWholeBatchOrItsLastRow) {
  auto ctx = Ctx();
  auto scan = [&](ExprPtr post) {
    return std::make_unique<ScanOp>("orders", std::vector<int>{0, 2}, nullptr,
                                    std::move(post));
  };
  auto all_op = scan(nullptr);
  std::vector<std::vector<Row>> all = CollectBatches(all_op.get(), &ctx);
  ASSERT_GE(all.size(), 2u);
  std::vector<Row> first = all[0];
  ASSERT_GE(first.size(), 2u);
  // The first batch holds a contiguous range of order ids.
  int64_t lo = first.front()[0].as_int();
  int64_t hi = first.back()[0].as_int();
  ASSERT_EQ(hi - lo + 1, static_cast<int64_t>(first.size()));

  // Reject every row of the first batch: it is dropped, not sent empty.
  auto outside = Or(Lt(Col(0), Lit(Value(lo))), Gt(Col(0), Lit(Value(hi))));
  auto none_op = scan(outside);
  std::vector<std::vector<Row>> none = CollectBatches(none_op.get(), &ctx);
  ASSERT_EQ(none.size(), all.size() - 1);
  for (size_t b = 0; b < none.size(); ++b) {
    ExpectSameRows(none[b], all[b + 1]);
  }

  // Reject only the first batch's last row.
  auto not_last = scan(Ne(Col(0), Lit(Value(hi))));
  std::vector<std::vector<Row>> trimmed = CollectBatches(not_last.get(), &ctx);
  ASSERT_EQ(trimmed.size(), all.size());
  first.pop_back();
  ExpectSameRows(trimmed[0], first);
  for (size_t b = 1; b < trimmed.size(); ++b) {
    ExpectSameRows(trimmed[b], all[b]);
  }
  // And one row in the middle: the rows after it move down in place.
  auto not_middle = scan(Ne(Col(0), Lit(Value(lo + 1))));
  std::vector<Row> got = Concat(CollectBatches(not_middle.get(), &ctx));
  std::vector<Row> want = Concat(all);
  want.erase(want.begin() + 1);
  ExpectSameRows(got, want);
  partition_->EndRead(ctx.txn);
}

TEST_F(QueryTest, LeftJoinWithEmptyBuildPadsRightWidth) {
  auto ctx = Ctx();
  auto join = std::make_unique<HashJoinOp>(
      std::make_unique<ScanOp>("customers", std::vector<int>{0, 1}),
      std::make_unique<ScanOp>("orders", std::vector<int>{1, 2, 3},
                               FilterEq(0, Value(int64_t{99999}))),
      std::vector<ExprPtr>{Col(0)}, std::vector<ExprPtr>{Col(0)},
      JoinType::kLeft, 3);
  auto rows = RunPlan(join.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  for (const Row& row : *rows) {
    ASSERT_EQ(row.size(), 5u);
    EXPECT_TRUE(row[1].is_string());
    EXPECT_TRUE(row[2].is_null() && row[3].is_null() && row[4].is_null());
  }
  partition_->EndRead(ctx.txn);
}

TEST(BatchBoundaryTest, SortOverZeroRows) {
  SortOp sort(std::make_unique<ValuesOp>(std::vector<Row>{}),
              {{Col(0), false}});
  QueryContext ctx;
  EXPECT_TRUE(CollectBatches(&sort, &ctx).empty());
}

TEST(BatchBoundaryTest, ValuesOfUnequalWidthAreInvalid) {
  ValuesOp values({{Value(int64_t{1}), Value(int64_t{2})},
                   {Value(int64_t{3})}});
  QueryContext ctx;
  auto rows = RunPlan(&values, &ctx);
  EXPECT_TRUE(rows.status().IsInvalidArgument()) << rows.status().ToString();
}

}  // namespace
}  // namespace s2
