#include "common/journal.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/json.h"
#include "common/metrics.h"

namespace s2 {

std::string JournalEvent::ToJson() const {
  char buf[64];
  std::string out = "{\"seq\":";
  snprintf(buf, sizeof(buf), "%" PRIu64, seq);
  out += buf;
  out += ",\"ts_ns\":";
  snprintf(buf, sizeof(buf), "%" PRIu64, ts_ns);
  out += buf;
  out += ",\"category\":";
  out += JsonQuote(category);
  out += ",\"name\":";
  out += JsonQuote(name);
  out += ",\"detail\":";
  out += JsonQuote(detail);
  out += "}";
  return out;
}

EventJournal::EventJournal(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

EventJournal* EventJournal::Global() {
  // Leaked, like MetricsRegistry: emit sites may run during static
  // destruction of other objects.
  static EventJournal* journal = new EventJournal();
  return journal;
}

void EventJournal::Append(const std::string& category, const std::string& name,
                          const std::string& detail, uint64_t ts_ns) {
  JournalEvent ev;
  ev.ts_ns = ts_ns != 0 ? ts_ns : ScopedTimer::NowNs();
  ev.category = category;
  ev.name = name;
  ev.detail = detail;
  std::lock_guard<std::mutex> lock(mu_);
  ev.seq = next_seq_++;
  if (ring_.size() < capacity_) {
    ring_.resize(ring_.size() + 1);
  } else {
    ++dropped_;
  }
  ring_[ev.seq % capacity_] = std::move(ev);
}

std::vector<JournalEvent> EventJournal::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t oldest = next_seq_ >= ring_.size() ? next_seq_ - ring_.size() : 0;
  if (next_seq_ - oldest > n) oldest = next_seq_ - n;
  std::vector<JournalEvent> out;
  out.reserve(static_cast<size_t>(next_seq_ - oldest));
  for (uint64_t seq = oldest; seq < next_seq_; ++seq) {
    out.push_back(ring_[seq % capacity_]);
  }
  return out;
}

uint64_t EventJournal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

uint64_t EventJournal::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

}  // namespace s2
