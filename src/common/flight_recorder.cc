#include "common/flight_recorder.h"

#include <cinttypes>
#include <cstdio>

#include "common/env.h"
#include "common/journal.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/monitor.h"

namespace s2 {

// Newest journal events written to journal.jsonl.
constexpr size_t kJournalTail = 1024;

Status DumpFlightRecorder(const FlightRecorderOptions& opts) {
  Env* env = opts.env != nullptr ? opts.env : Env::Default();
  const EventJournal* journal = EventJournal::Global();

  Status first_error = env->CreateDirs(opts.dir);
  std::vector<std::string> written;
  auto write = [&](const std::string& name, const std::string& content) {
    Status st = env->WriteStringToFile(opts.dir + "/" + name, content,
                                       /*sync=*/false);
    if (st.ok()) {
      written.push_back(name);
    } else if (first_error.ok()) {
      first_error = st;
    }
  };

  write("metrics.prom", MetricsRegistry::Global()->Dump());
  write("metrics.json", MetricsRegistry::Global()->DumpJson());

  if (opts.monitor != nullptr) {
    write("monitor_history.json", opts.monitor->HistoryJson());
    write("watchdogs.json", opts.monitor->WatchdogsJson());
  }

  std::vector<JournalEvent> tail = journal->Tail(kJournalTail);
  std::string jsonl;
  for (const JournalEvent& ev : tail) {
    jsonl += ev.ToJson();
    jsonl += '\n';
  }
  write("journal.jsonl", jsonl);

  for (const auto& [name, content] : opts.extra_files) {
    write(name, content);
  }

  char buf[64];
  std::string manifest = "{\"files\":[";
  // The manifest names itself too, so a reader sees the intended set.
  written.push_back("manifest.json");
  bool first = true;
  for (const std::string& name : written) {
    if (!first) manifest += ",";
    first = false;
    manifest += JsonQuote(name);
  }
  manifest += "],\"journal_events\":";
  snprintf(buf, sizeof(buf), "%zu", tail.size());
  manifest += buf;
  manifest += ",\"journal_dropped\":";
  snprintf(buf, sizeof(buf), "%" PRIu64, journal->dropped());
  manifest += buf;
  manifest += ",\"captured_at_ns\":";
  snprintf(buf, sizeof(buf), "%" PRIu64, env->NowNs());
  manifest += buf;
  manifest += "}";
  write("manifest.json", manifest);

  return first_error;
}

}  // namespace s2
