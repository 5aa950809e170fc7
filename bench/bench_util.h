#ifndef S2_BENCH_BENCH_UTIL_H_
#define S2_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "common/monitor.h"
#include "common/status.h"

namespace s2 {
namespace bench {

/// Wall-clock timer in seconds.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Reads an environment knob with a default (benches scale via env vars so
/// CI smoke runs stay fast: S2_BENCH_SCALE=... etc.).
inline double EnvDouble(const char* name, double def) {
  const char* v = getenv(name);
  return v == nullptr ? def : atof(v);
}
inline int EnvInt(const char* name, int def) {
  const char* v = getenv(name);
  return v == nullptr ? def : atoi(v);
}

/// Reports a failed bench phase and its Status on stderr; returns the exit
/// code for main. A bench that cannot open or load its data has no result,
/// so it fails loudly instead of printing an empty row.
inline int Fail(const std::string& what, const Status& s) {
  fprintf(stderr, "%s failed: %s\n", what.c_str(), s.ToString().c_str());
  return 1;
}

inline double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double log_sum = 0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Scratch directory for one bench run, removed at destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const char* prefix) {
    auto dir = MakeTempDir(prefix);
    // Without a directory the bench's database would open under "/".
    if (!dir.ok()) {
      std::exit(Fail(std::string("scratch dir ") + prefix, dir.status()));
    }
    path_ = *dir;
  }
  ~ScratchDir() { (void)RemoveDirRecursive(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Writes `content` to a file in the current working directory (bench
/// artifacts: CI uploads every BENCH_* file).
inline void WriteBenchFile(const std::string& path,
                           const std::string& content) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return;
  fwrite(content.data(), 1, content.size(), f);
  if (content.empty() || content.back() != '\n') fputc('\n', f);
  fclose(f);
  printf("Wrote %s\n", path.c_str());
}

/// Build provenance for this bench binary, stamped by the build system
/// (see bench/CMakeLists.txt): git commit, build type, sanitizer flags.
inline std::string ProvenanceJson() {
#ifdef S2_GIT_SHA
  const char* sha = S2_GIT_SHA;
#else
  const char* sha = "unknown";
#endif
#ifdef S2_BUILD_TYPE
  const char* build_type = S2_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
#ifdef S2_SANITIZE_FLAGS
  const char* sanitize = S2_SANITIZE_FLAGS;
#else
  const char* sanitize = "";
#endif
  return std::string("{\"git_sha\":\"") + sha + "\",\"build_type\":\"" +
         build_type + "\",\"sanitizer\":\"" + sanitize + "\"}";
}

/// Writes the bench's machine-readable summary object to BENCH_<name>.json
/// in the current working directory, with build provenance and the
/// process-wide metrics dump embedded as fields (spliced in before the
/// closing brace), plus the same dump as a Prometheus-style
/// BENCH_<name>.metrics.prom snapshot. `summary_json` is the same one-line
/// JSON object the bench prints.
inline void WriteBenchJson(const std::string& name, std::string summary_json) {
  size_t brace = summary_json.rfind('}');
  if (brace == std::string::npos) return;
  summary_json.insert(brace,
                      ",\"provenance\":" + ProvenanceJson() +
                          ",\"metrics\":" +
                          MetricsRegistry::Global()->DumpJson());
  WriteBenchFile("BENCH_" + name + ".json", summary_json);
  WriteBenchFile("BENCH_" + name + ".metrics.prom",
                 MetricsRegistry::Global()->Dump());
}

/// Writes the monitor's sampled time-series next to the other snapshots
/// (BENCH_<name>.monitor.json): per-phase metric history that the
/// end-of-run averages in BENCH_<name>.json hide. Benches tick the monitor
/// at phase boundaries.
inline void WriteBenchMonitorHistory(const std::string& name,
                                     const MonitorService& monitor) {
  WriteBenchFile("BENCH_" + name + ".monitor.json", monitor.HistoryJson());
}

inline void PrintHeader(const char* title) {
  printf("\n================================================================\n");
  printf("%s\n", title);
  printf("================================================================\n");
}

/// Result of a scatter-gather scaling measurement: the same query run on
/// two identically loaded databases, one with a 1-thread executor and one
/// with an N-thread executor.
struct ScatterScaling {
  double serial_seconds = 0;
  double parallel_seconds = 0;
  double speedup = 0;       // serial / parallel wall time
  bool identical = false;   // parallel rows byte-identical to serial
  size_t rows = 0;          // rows returned per query
};

/// Times `iters` ScatterQuery rounds on each database and checks that the
/// parallel executor returns byte-identical rows in the same order as the
/// serial one. `db` is any object with Query(factory) -> Result<rows>
/// (Database), and `encode` turns one result set into a comparable string.
template <typename DB, typename Factory, typename Encode>
ScatterScaling MeasureScatterScaling(DB* serial_db, DB* parallel_db,
                                     const Factory& factory,
                                     const Encode& encode, int iters) {
  ScatterScaling out;
  auto serial_rows = serial_db->Query(factory);
  auto parallel_rows = parallel_db->Query(factory);
  if (!serial_rows.ok() || !parallel_rows.ok()) return out;
  out.rows = serial_rows->size();
  out.identical = encode(*serial_rows) == encode(*parallel_rows);
  {
    Timer t;
    for (int i = 0; i < iters; ++i) (void)serial_db->Query(factory);
    out.serial_seconds = t.Seconds() / iters;
  }
  {
    Timer t;
    for (int i = 0; i < iters; ++i) (void)parallel_db->Query(factory);
    out.parallel_seconds = t.Seconds() / iters;
  }
  out.speedup =
      out.parallel_seconds > 0 ? out.serial_seconds / out.parallel_seconds : 0;
  return out;
}

}  // namespace bench
}  // namespace s2

#endif  // S2_BENCH_BENCH_UTIL_H_
