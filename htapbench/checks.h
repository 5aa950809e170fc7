#ifndef HTAPBENCH_CHECKS_H_
#define HTAPBENCH_CHECKS_H_

// Output checks: the TPC-C consistency conditions after a transactional
// run, and result digests of the TPC-H queries.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"

namespace htap {

/// Checks, per district, through Database::Query:
///   d_next_o_id - 1 == max(o_id)            (orders)
///   d_next_o_id - 1 >= max(no_o_id)         (neworder)
///   count(orderline) == sum(o_ol_cnt)       (orders)
/// Appends one message per violated condition (or failed query) to
/// `errors`; returns the number of districts checked.
size_t CheckTpccConsistency(s2::Database* db, std::vector<std::string>* errors);

/// Order-insensitive digest of a result: rows are rendered with doubles
/// rounded to 6 significant digits, sorted, and hashed with 64-bit FNV-1a.
uint64_t ResultDigest(const std::vector<s2::Row>& rows);

/// Number of TPC-H datasets the benchmark keeps digests for; the tpch
/// workload loads dataset `seed % kTpchDatasets`.
constexpr int kTpchDatasets = 16;

/// Generator seed of TPC-H dataset `dataset`.
uint64_t TpchDataSeed(int dataset);

/// Stored digest of query q (1..22) on dataset `dataset`.
uint64_t ExpectedTpchDigest(int dataset, int q);

}  // namespace htap

#endif  // HTAPBENCH_CHECKS_H_
