#ifndef S2_COMMON_FLIGHT_RECORDER_H_
#define S2_COMMON_FLIGHT_RECORDER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace s2 {

class Env;
class MonitorService;

struct FlightRecorderOptions {
  /// Output directory (created if missing). One bundle per call; callers
  /// wanting history pass distinct directories.
  std::string dir;
  /// Filesystem to write through; null = Env::Default(). Never pass an env
  /// whose operations journal into EventJournal::Global().
  Env* env = nullptr;
  /// When set, monitor_history.json and watchdogs.json are included.
  const MonitorService* monitor = nullptr;
  /// Extra (file name, content) pairs layered into the bundle by callers
  /// with more context — the engine adds system tables and slow-query
  /// profiles on top of this common core.
  std::vector<std::pair<std::string, std::string>> extra_files;
};

/// Dumps one debugging bundle — the state a failure post-mortem needs — to
/// `opts.dir`:
///
///   metrics.prom            MetricsRegistry::Dump()
///   metrics.json            MetricsRegistry::DumpJson()
///   monitor_history.json    sampled time-series (when monitor given)
///   watchdogs.json          rule states (when monitor given)
///   journal.jsonl           newest 1024 EventJournal::Global() events,
///                           one JSON object/line
///   manifest.json           file list + capture metadata (journal drops)
///   <extra_files...>
///
/// Best-effort: every file is attempted; the first write error is
/// returned (later files are still attempted so a partial bundle is as
/// complete as the disk allowed).
Status DumpFlightRecorder(const FlightRecorderOptions& opts);

}  // namespace s2

#endif  // S2_COMMON_FLIGHT_RECORDER_H_
