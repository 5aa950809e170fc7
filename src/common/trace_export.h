#ifndef S2_COMMON_TRACE_EXPORT_H_
#define S2_COMMON_TRACE_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace s2 {

struct ProfileNode;

/// Builds a Chrome `trace_event` JSON document (the format Perfetto and
/// chrome://tracing load) from ProfileCollector trees. Each AddProfileTree
/// call contributes one "process" (pid) to the trace; within a process, the
/// root span sits on tid 0 and each top-level child (the scatter-gather
/// fan-out: one span per partition/table) gets its own tid, so parallel
/// branches render side by side instead of stacked on one row.
///
/// Spans become "X" (complete) events with microsecond timestamps
/// normalized to the earliest event in the document; still-open spans
/// become "i" (instant); process/thread names are attached via "M"
/// metadata events.
class ChromeTraceBuilder {
 public:
  /// Adds one profile tree as one process (top-level children fan out to
  /// their own tids).
  void AddProfileTree(const ProfileNode& root, int pid,
                      const std::string& process_name);

  /// The complete JSON document:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string Finish() const;

 private:
  struct Event {
    std::string name;
    std::string cat;
    char ph = 'X';  // 'X' complete, 'i' instant, 'M' metadata
    uint64_t ts_ns = 0;
    uint64_t dur_ns = 0;
    int pid = 0;
    uint64_t tid = 0;
    std::string args_json;  // complete {"..."} object, pre-escaped
  };

  void AddNode(const ProfileNode& node, int pid, uint64_t tid, bool fan_out);
  void AddThreadName(int pid, uint64_t tid, const std::string& name);

  std::vector<Event> events_;
};

}  // namespace s2

#endif  // S2_COMMON_TRACE_EXPORT_H_
