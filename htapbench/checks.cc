#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "query/plan.h"

namespace htap {

using s2::AggKind;
using s2::AggSpec;
using s2::Col;
using s2::ExprPtr;
using s2::PlanPtr;
using s2::Row;

namespace {

using DistrictKey = std::pair<int64_t, int64_t>;  // (w_id, d_id)

/// Scans `table`'s columns `cols` and aggregates by the first two (the
/// warehouse and district ids). Tables are sharded by warehouse, so every
/// group lives on one partition and the partials are final.
s2::Result<std::map<DistrictKey, Row>> PerDistrict(
    s2::Database* db, const std::string& table, std::vector<int> cols,
    const std::vector<std::pair<AggKind, int>>& aggs) {
  auto factory = [&]() -> PlanPtr {
    std::vector<AggSpec> specs;
    for (const auto& [kind, col] : aggs) {
      specs.push_back({kind, col < 0 ? nullptr : Col(col)});
    }
    return std::make_unique<s2::AggregateOp>(
        std::make_unique<s2::ScanOp>(table, cols),
        std::vector<ExprPtr>{Col(0), Col(1)}, std::move(specs));
  };
  s2::Result<std::vector<Row>> rows = db->Query(factory);
  if (!rows.ok()) return rows.status();
  std::map<DistrictKey, Row> out;
  for (Row& row : *rows) {
    DistrictKey key{row[0].as_int(), row[1].as_int()};
    if (!out.emplace(key, std::move(row)).second) {
      return s2::Status::Corruption(table + ": district group on two partitions");
    }
  }
  return out;
}

int64_t AsInt(const s2::Value& v) {
  return v.is_null() ? 0 : std::llround(v.AsNumeric());
}

std::string District(const DistrictKey& k) {
  return "district (" + std::to_string(k.first) + "," +
         std::to_string(k.second) + ")";
}

}  // namespace

size_t CheckTpccConsistency(s2::Database* db,
                            std::vector<std::string>* errors) {
  auto districts = db->Query([] {
    return std::make_unique<s2::ScanOp>("district", std::vector<int>{0, 1, 5});
  });
  auto orders = PerDistrict(db, "orders", {0, 1, 2, 6},
                            {{AggKind::kMax, 2}, {AggKind::kSum, 3}});
  auto neworders =
      PerDistrict(db, "neworder", {0, 1, 2}, {{AggKind::kMax, 2}});
  auto lines = PerDistrict(db, "orderline", {0, 1}, {{AggKind::kCount, -1}});
  for (const s2::Status& s : {districts.status(), orders.status(),
                              neworders.status(), lines.status()}) {
    if (!s.ok()) errors->push_back("consistency query failed: " + s.ToString());
  }
  if (!districts.ok() || !orders.ok() || !neworders.ok() || !lines.ok()) {
    return 0;
  }
  if (districts->empty()) errors->push_back("district table is empty");

  for (const Row& d : *districts) {
    DistrictKey key{d[0].as_int(), d[1].as_int()};
    int64_t last_o_id = d[2].as_int() - 1;
    auto o = orders->find(key);
    if (o == orders->end()) {
      errors->push_back(District(key) + " has no orders");
      continue;
    }
    // orders row: w, d, max(o_id), sum(o_ol_cnt)
    if (AsInt(o->second[2]) != last_o_id) {
      errors->push_back(District(key) + ": d_next_o_id - 1 = " +
                        std::to_string(last_o_id) + " but max(o_id) = " +
                        std::to_string(AsInt(o->second[2])));
    }
    auto no = neworders->find(key);
    if (no != neworders->end() && AsInt(no->second[2]) > last_o_id) {
      errors->push_back(District(key) + ": max(no_o_id) = " +
                        std::to_string(AsInt(no->second[2])) +
                        " exceeds d_next_o_id - 1 = " +
                        std::to_string(last_o_id));
    }
    auto l = lines->find(key);
    int64_t line_count = l == lines->end() ? 0 : AsInt(l->second[2]);
    if (line_count != AsInt(o->second[3])) {
      errors->push_back(District(key) + ": count(orderline) = " +
                        std::to_string(line_count) + " but sum(o_ol_cnt) = " +
                        std::to_string(AsInt(o->second[3])));
    }
  }
  return districts->size();
}

uint64_t ResultDigest(const std::vector<Row>& rows) {
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (const s2::Value& v : row) {
      if (v.is_null()) {
        line += "\\N";
      } else if (v.is_int()) {
        line += std::to_string(v.as_int());
      } else if (v.is_string()) {
        line += v.as_string();
      } else {
        double x = v.as_double();
        char buf[32];
        if (std::fabs(x) < 1e-9) x = 0.0;  // also folds -0.0
        std::snprintf(buf, sizeof(buf), "%.5e", x);
        line += buf;
      }
      line += '\x1f';
    }
    rendered.push_back(std::move(line));
  }
  std::sort(rendered.begin(), rendered.end());
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (const std::string& line : rendered) {
    for (char c : line + '\n') {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  return h;
}

uint64_t TpchDataSeed(int dataset) { return 7 + 1000 * static_cast<uint64_t>(dataset); }

uint64_t ExpectedTpchDigest(int dataset, int q) {
  static const uint64_t kDigests[kTpchDatasets][22] = {
#include "tpch_digests.inc"
  };
  return kDigests[dataset][q - 1];
}

}  // namespace htap
