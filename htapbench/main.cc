// htapbench: the repository's HTAP benchmark.
//
//   htapbench --workload tpcc|tpch|chbench --seed N --seconds S --trace 0|1
//             --data-dir DIR
//
// --trace 0 sets the workload up three times, measures one phase with
// tracing off and reports the end-to-end metrics. --trace 1 measures an
// untraced phase and then a traced one, and reports the per-layer metrics
// plus the tracing overhead (traced minus untraced) of every end-to-end
// metric. Human-readable lines come first; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Exit codes: 0 ok; 1 an output check failed (the JSON line is still
// printed, with "correct": false); 2 bad arguments, or opening, loading or
// running the workload failed (nothing is printed on stdout).
//
// --tpch-digests K prints the result digests of dataset K as a row of
// tpch_digests.inc instead of running a workload.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "checks.h"
#include "workloads.h"

namespace htap {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Quantile q of v, interpolating linearly between ranks; 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Run-wide geometric mean of the per-type medians over the types whose
/// name starts with `prefix`.
double TypeGeomeanMs(const PhaseResult& r, const std::string& prefix) {
  double log_sum = 0;
  int n = 0;
  for (const auto& [type, samples] : r.by_type) {
    if (type.rfind(prefix, 0) != 0 || samples.count() == 0) continue;
    log_sum += std::log(samples.QuantileMs(0.5));
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

double QueryGeomeanMs(const PhaseResult& r) {
  double tpch = TypeGeomeanMs(r, "tpch_");
  return tpch > 0 ? tpch : TypeGeomeanMs(r, "ch");
}

/// Median latency of the operations in each window that has some. The
/// median interpolates: the 22 TPC-H queries of a round have a 33 ms /
/// 47 ms gap at their middle.
std::vector<double> WindowMediansMs(const PhaseResult& r) {
  std::vector<std::vector<double>> per(r.num_windows);
  for (const OpSample& s : r.timeline) {
    per[s.window].push_back(static_cast<double>(s.ns) / 1e6);
  }
  std::vector<double> medians;
  for (const std::vector<double>& p : per) {
    if (!p.empty()) medians.push_back(Quantile(p, 0.5));
  }
  return medians;
}

// The end-to-end figures are medians over the complete windows (seconds,
// or tpch rounds), whose tpch times are scaled to a nominal host speed
// (RunTpchRound). Throughput is not among them: row-lock stalls and the
// decline of TPC-C throughput within a run spread it by up to a third
// between runs. It and the other run-wide figures are printed beside them.

/// Median over windows of the window's median operation latency.
double WindowP50Ms(const PhaseResult& r) {
  return Quantile(WindowMediansMs(r), 0.5);
}

/// Geometric mean over operation types of each type's median latency.
double WindowTypeGeomeanMs(const PhaseResult& r) {
  std::vector<std::vector<double>> per(kNumOpTypes);
  for (const OpSample& s : r.timeline) {
    if (s.type >= 0) per[s.type].push_back(static_cast<double>(s.ns) / 1e6);
  }
  double log_sum = 0;
  int n = 0;
  for (const std::vector<double>& p : per) {
    if (p.empty()) continue;
    log_sum += std::log(Quantile(p, 0.5));
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

/// Mean of the last third of a series over the mean of its first third;
/// 0 when the series has fewer than three points.
double LastOverFirstThird(const std::vector<double>& v) {
  size_t k = v.size() / 3;
  if (k == 0) return 0.0;
  double first = 0, last = 0;
  for (size_t i = 0; i < k; ++i) {
    first += v[i];
    last += v[v.size() - 1 - i];
  }
  return Ratio(last, first);
}

/// The end-to-end metrics: defined on every workload and never 0.
std::vector<Metric> EndToEnd(const PhaseResult& r) {
  return {
      {"setup_s", Quantile(r.setup_s, 0.5), "s"},
      {"op_p50_ms", WindowP50Ms(r), "ms"},
      {"type_geomean_ms", WindowTypeGeomeanMs(r), "ms"},
      {"rss_mb", r.rss_setup_mb, "MiB"},
  };
}

/// The transaction- and query-side figures the paper reports; each applies
/// to the workloads that run that side (0 elsewhere).
std::vector<Metric> ClientSide(const PhaseResult& r) {
  // Aborted transactions and failed queries.
  double failures =
      static_cast<double>(r.attempted - r.txns_committed - r.queries);
  return {
      {"tpmc", Ratio(static_cast<double>(r.new_orders) * 60.0, r.elapsed_s),
       "1/min"},
      {"qps", Ratio(static_cast<double>(r.queries), r.elapsed_s), "1/s"},
      {"op_p99_ms", r.ops.QuantileMs(0.99), "ms"},
      {"txn_p50_ms", r.txns.QuantileMs(0.50), "ms"},
      {"txn_p99_ms", r.txns.QuantileMs(0.99), "ms"},
      {"query_geomean_ms", QueryGeomeanMs(r), "ms"},
      {"fail_ratio", Ratio(failures, static_cast<double>(r.attempted)),
       "ratio"},
  };
}

/// Per-layer metrics of the traced phase `t`, with the untraced phase `u`
/// supplying the per-query medians, client-side figures, drift and the
/// base of the tracing overhead.
std::vector<Metric> PerLayer(const PhaseResult& u, const PhaseResult& t) {
  std::vector<Metric> m;
  auto us = [&](const std::string& name, const Samples& s, double q) {
    m.push_back({name, s.QuantileUs(q), "us"});
  };
  auto count = [&](const std::string& name, double v) {
    m.push_back({name, v, "count"});
  };
  const CallStats& c = t.calls;
  us("storage.lookup_us_p50", c.lookup, 0.50);
  us("storage.lookup_us_p99", c.lookup, 0.99);
  count("storage.lookup_count", static_cast<double>(c.lookup.count()));
  us("storage.update_us_p50", c.update, 0.50);
  us("storage.update_us_p99", c.update, 0.99);
  us("storage.delete_us_p50", c.del, 0.50);
  us("storage.delete_us_p99", c.del, 0.99);
  us("storage.insert_us_p50", c.insert, 0.50);
  us("storage.insert_us_p99", c.insert, 0.99);
  for (int i = 0; i < kNumAbortClasses; ++i) {
    count(std::string("storage.abort.") + kAbortClassNames[i],
          static_cast<double>(t.aborts[i]));
  }
  count("storage.flushes", static_cast<double>(t.flushes));
  count("storage.merges", static_cast<double>(t.merges));
  count("storage.segments_created", static_cast<double>(t.segments_created));
  count("storage.rows_moved", static_cast<double>(t.rows_moved));
  count("storage.rowstore_rows_end", static_cast<double>(t.rowstore_rows_end));
  count("storage.segments_end", static_cast<double>(t.segments_end));

  us("cluster.commit_us_p50", c.commit, 0.50);
  us("cluster.commit_us_p99", c.commit, 0.99);
  us("cluster.scatter_us_p50", c.query, 0.50);
  us("chbench.gather_us_p50", t.gather_ns, 0.50);

  m.push_back({"log.bytes_per_commit",
               Ratio(static_cast<double>(t.env.log_bytes),
                     static_cast<double>(c.commits_ok)),
               "B"});
  m.push_back({"env.data_bytes_per_neworder",
               Ratio(static_cast<double>(t.env.data_bytes),
                     static_cast<double>(t.new_orders)),
               "B"});
  us("env.write_us_p99", t.env.write_ns, 0.99);

  count("blob.put_count", static_cast<double>(t.blob_puts));
  m.push_back({"blob.put_bytes", static_cast<double>(t.blob_put_bytes), "B"});
  count("blob.get_count", static_cast<double>(t.blob_gets));
  m.push_back({"blob.get_bytes", static_cast<double>(t.blob_get_bytes), "B"});
  us("blob.put_us_p50", t.blob_put_ns, 0.50);

  count("datafile.files_written", static_cast<double>(t.files_written));
  count("datafile.files_uploaded", static_cast<double>(t.files_uploaded));
  count("datafile.local_hits", static_cast<double>(t.local_hits));
  count("datafile.blob_fetches", static_cast<double>(t.blob_fetches));
  count("datafile.files_evicted", static_cast<double>(t.files_evicted));
  count("datafile.upload_backlog_max",
        static_cast<double>(t.upload_backlog_max));

  auto prof = [&](const char* key) {
    auto it = t.profile.find(key);
    return it == t.profile.end() ? 0.0 : static_cast<double>(it->second);
  };
  count("exec.segments_total", prof("segments"));
  count("exec.segments_skipped",
        prof("segments_skipped_zone") + prof("segments_skipped_index"));
  count("exec.rows_considered", prof("rows_considered"));
  count("exec.rows_output", prof("rows_output"));
  m.push_back({"exec.useful_ratio",
               Ratio(prof("rows_output"), prof("rows_considered")), "ratio"});
  count("exec.encoded_filter_uses", prof("encoded_filter_uses"));
  count("exec.group_filter_uses", prof("group_filter_uses"));
  count("exec.regular_filter_uses", prof("regular_filter_uses"));
  count("exec.index_filter_uses", prof("index_filter_uses"));

  for (int type = kNumTxnTypes; type < kNumOpTypes; ++type) {
    auto it = u.by_type.find(OpTypeName(type));
    m.push_back({"query." + OpTypeName(type) + "_ms",
                 it == u.by_type.end() ? 0.0 : it->second.QuantileMs(0.5),
                 "ms"});
  }

  double ops = static_cast<double>(t.attempted);
  double txns = static_cast<double>(t.txns.count());
  m.push_back({"process.cpu_ms_per_op",
               Ratio(static_cast<double>(t.usage.cpu_ns) / 1e6, ops), "ms"});
  m.push_back({"process.vcsw_per_txn",
               Ratio(static_cast<double>(t.usage.voluntary_switches), txns),
               "ratio"});
  m.push_back({"process.ivcsw_per_op",
               Ratio(static_cast<double>(t.usage.involuntary_switches), ops),
               "ratio"});
  m.push_back({"process.rss_end_mb", t.rss_end_mb, "MiB"});
  us("host.ref_loop_us_p50", u.host_loop_ns, 0.50);
  m.push_back({"host.kernel_ms_p50", Quantile(u.round_kernel_ms, 0.5), "ms"});

  for (Metric& cm : ClientSide(u)) {
    m.push_back({"client." + cm.name, cm.value, cm.unit});
  }
  m.push_back({"drift.tpmc_last_over_first",
               LastOverFirstThird(u.tpmc_per_s), "ratio"});
  m.push_back({"drift.tpch_geomean_last_over_first",
               LastOverFirstThird(u.round_geomean_ms), "ratio"});

  // Both phases run in one process, whose peak RSS only grows, so rss_mb
  // has no traced-minus-untraced difference.
  std::vector<Metric> base = EndToEnd(u);
  std::vector<Metric> traced = EndToEnd(t);
  for (size_t i = 0; i < base.size(); ++i) {
    if (base[i].name == "rss_mb") continue;
    m.push_back({"overhead." + base[i].name, traced[i].value - base[i].value,
                 base[i].unit});
  }
  return m;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Series(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out.empty() ? "-" : out;
}

void PrintReport(const Options& opts, const char* mode, const PhaseResult& r) {
  std::printf("== %s %s: seed %llu, %.2f s measured, %zu set-up(s) ==\n",
              opts.workload.c_str(), mode,
              static_cast<unsigned long long>(opts.seed), r.elapsed_s,
              r.setup_s.size());
  for (const Metric& m : EndToEnd(r)) {
    std::printf("  %-20s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : ClientSide(r)) {
    std::printf("  %-20s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  samples: ops n=%zu (above p99: %zu), txns n=%zu (above p99: "
              "%zu), queries %llu\n",
              r.ops.count(), r.ops.CountAbove(0.99), r.txns.count(),
              r.txns.CountAbove(0.99),
              static_cast<unsigned long long>(r.queries));
  std::printf("  set-ups (s): %s; peak rss at end %.1f MiB; host reference "
              "loop p50 %.1f us\n",
              Series(r.setup_s).c_str(), r.rss_end_mb,
              r.host_loop_ns.QuantileUs(0.5));
  std::printf("  ops per second by window: %s\n",
              Series(r.window_ops_per_s).c_str());
  std::printf("  aborts:");
  for (int i = 0; i < kNumAbortClasses; ++i) {
    std::printf(" %s=%llu", kAbortClassNames[i],
                static_cast<unsigned long long>(r.aborts[i]));
  }
  std::printf("; failed (not aborts) %llu of %llu attempted\n",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("  tpmc per second: %s (last/first third %.3f)\n",
              Series(r.tpmc_per_s).c_str(), LastOverFirstThird(r.tpmc_per_s));
  std::printf("  tpch round geomean ms: %s (last/first third %.3f)\n",
              Series(r.round_geomean_ms).c_str(),
              LastOverFirstThird(r.round_geomean_ms));
  std::printf("  tpch host kernel ms by round: %s\n",
              Series(r.round_kernel_ms).c_str());
  std::printf("  maintenance: flushes %llu, merges %llu, segments created "
              "%llu, rows moved %llu, upload backlog max %llu\n",
              static_cast<unsigned long long>(r.flushes),
              static_cast<unsigned long long>(r.merges),
              static_cast<unsigned long long>(r.segments_created),
              static_cast<unsigned long long>(r.rows_moved),
              static_cast<unsigned long long>(r.upload_backlog_max));
  std::printf("  checks: %s\n", r.errors.empty() ? "ok" : "FAILED");
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "htapbench: %s: check failed: %s\n",
                 opts.workload.c_str(), e.c_str());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "htapbench: %s\nusage: htapbench --workload tpcc|tpch|chbench "
               "--seed N --seconds S --trace 0|1 --data-dir DIR\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Options opts;
  int trace = -1;
  int digests_dataset = -1;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--data-dir") {
      opts.dir = value;
    } else if (flag == "--tpch-digests") {
      digests_dataset = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (opts.dir.empty()) return Usage("--data-dir is required");
  if (digests_dataset >= 0) {
    if (digests_dataset >= kTpchDatasets) return Usage("no such dataset");
    s2::Status s = PrintTpchDigests(opts, digests_dataset);
    if (!s.ok()) {
      std::fprintf(stderr, "htapbench: tpch digests: %s\n", s.message().c_str());
      return 2;
    }
    return 0;
  }
  if (!KnownWorkload(opts.workload)) return Usage("unknown --workload");
  if (!(opts.seconds > 0 && opts.seconds <= 120)) {
    return Usage("--seconds must be in (0, 120]");
  }
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");

  auto run = [&](bool traced, int setups, PhaseResult* r) {
    s2::Status s = RunPhase(opts, traced, setups, r);
    if (!s.ok()) {
      std::fprintf(stderr, "htapbench: workload %s (%s) failed: %s\n",
                   opts.workload.c_str(), traced ? "traced" : "untraced",
                   s.message().c_str());
    }
    return s.ok();
  };

  PhaseResult untraced;
  if (!run(false, trace == 0 ? kSetups : 1, &untraced)) return 2;
  PrintReport(opts, "untraced", untraced);
  bool correct = untraced.errors.empty();
  if (trace == 0) {
    PrintJson(correct, untraced.attempted, untraced.failed,
              EndToEnd(untraced));
    return correct ? 0 : 1;
  }
  PhaseResult traced;
  if (!run(true, 1, &traced)) return 2;
  PrintReport(opts, "traced", traced);
  correct = correct && traced.errors.empty();
  PrintJson(correct, untraced.attempted + traced.attempted,
            untraced.failed + traced.failed, PerLayer(untraced, traced));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace htap

int main(int argc, char** argv) { return htap::Main(argc, argv); }
