#include "common/trace_export.h"

#include <cinttypes>
#include <cstdio>

#include "common/json.h"
#include "common/profile.h"

namespace s2 {

void ChromeTraceBuilder::AddThreadName(int pid, uint64_t tid,
                                       const std::string& name) {
  Event ev;
  ev.name = "thread_name";
  ev.ph = 'M';
  ev.pid = pid;
  ev.tid = tid;
  ev.args_json = "{\"name\":" + JsonQuote(name) + "}";
  events_.push_back(std::move(ev));
}

void ChromeTraceBuilder::AddProfileTree(const ProfileNode& root, int pid,
                                        const std::string& process_name) {
  Event meta;
  meta.name = "process_name";
  meta.ph = 'M';
  meta.pid = pid;
  meta.args_json = "{\"name\":" + JsonQuote(process_name) + "}";
  events_.push_back(std::move(meta));

  AddThreadName(pid, 0, root.name);
  // The root occupies lane 0; each of its children — the scatter-gather
  // fan-out, one span per partition/table — gets its own lane so parallel
  // branches are visually parallel.
  AddNode(root, pid, 0, /*fan_out=*/true);
}

void ChromeTraceBuilder::AddNode(const ProfileNode& node, int pid,
                                 uint64_t tid, bool fan_out) {
  Event ev;
  ev.name = node.name;
  ev.cat = "profile";
  ev.ph = 'X';
  ev.ts_ns = node.start_ns;
  // Render still-open spans (duration never stamped) as instants rather
  // than zero-width completes.
  if (node.duration_ns == 0) ev.ph = 'i';
  ev.dur_ns = node.duration_ns;
  ev.pid = pid;
  ev.tid = tid;
  std::string args = "{\"detail\":" + JsonQuote(node.detail);
  if (!node.counters.empty()) {
    args += ",\"counters\":{";
    bool first = true;
    for (const auto& [key, value] : node.counters) {
      if (!first) args += ",";
      first = false;
      args += JsonQuote(key);
      char buf[32];
      snprintf(buf, sizeof(buf), ":%" PRId64, value);
      args += buf;
    }
    args += "}";
  }
  args += "}";
  ev.args_json = std::move(args);
  events_.push_back(std::move(ev));

  uint64_t child_tid = tid;
  for (size_t i = 0; i < node.children.size(); ++i) {
    const ProfileNode& child = *node.children[i];
    if (fan_out) {
      child_tid = i + 1;
      AddThreadName(pid, child_tid,
                    child.name + "-" + std::to_string(i));
    }
    AddNode(child, pid, child_tid, /*fan_out=*/false);
  }
}

std::string ChromeTraceBuilder::Finish() const {
  // Normalize to the earliest real event so Perfetto's viewport starts at
  // ~0 instead of hours of steady_clock uptime.
  uint64_t min_ts = UINT64_MAX;
  for (const Event& ev : events_) {
    if (ev.ph != 'M' && ev.ts_ns < min_ts) min_ts = ev.ts_ns;
  }
  if (min_ts == UINT64_MAX) min_ts = 0;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const Event& ev : events_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    out += JsonQuote(ev.name);
    if (!ev.cat.empty()) {
      out += ",\"cat\":";
      out += JsonQuote(ev.cat);
    }
    out += ",\"ph\":\"";
    out += ev.ph;
    out += "\"";
    if (ev.ph != 'M') {
      snprintf(buf, sizeof(buf), ",\"ts\":%.3f",
               static_cast<double>(ev.ts_ns - min_ts) / 1000.0);
      out += buf;
      if (ev.ph == 'X') {
        snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                 static_cast<double>(ev.dur_ns) / 1000.0);
        out += buf;
      }
      if (ev.ph == 'i') out += ",\"s\":\"t\"";
    }
    snprintf(buf, sizeof(buf), ",\"pid\":%d,\"tid\":%" PRIu64, ev.pid,
             ev.tid);
    out += buf;
    if (!ev.args_json.empty()) {
      out += ",\"args\":";
      out += ev.args_json;
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace s2
