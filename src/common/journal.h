#ifndef S2_COMMON_JOURNAL_H_
#define S2_COMMON_JOURNAL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace s2 {

/// One structured journal entry. `category` groups related events
/// ("watchdog", "storage", "cluster", "fault", "query"); `name` is the
/// specific event ("flush", "merge", "snapshot", "eviction",
/// "replica_attach", "rule_fired", ...); `detail` is free-form key=value
/// context. Sequence numbers are monotonic per process, so consumers can
/// detect ring loss and order events across subsystems.
struct JournalEvent {
  uint64_t seq = 0;
  uint64_t ts_ns = 0;  // ScopedTimer::NowNs() / Env::NowNs() clock
  std::string category;
  std::string name;
  std::string detail;

  /// One JSON object: {"seq":..,"ts_ns":..,"category":"..","name":"..",
  /// "detail":".."} — strings escaped via JsonEscape.
  std::string ToJson() const;
};

/// Process-wide structured event journal: a bounded ring absorbing
/// lifecycle events (segment flush/merge, snapshot, cache eviction,
/// replica attach, fault injections) and watchdog alerts. Always on —
/// appends are one mutex acquisition plus a few string copies, cheap
/// relative to the events journaled (which are all slow-path: IO, alerts,
/// topology changes). The ring is a suffix of the event stream; `dropped()`
/// counts overwritten entries. The flight recorder writes its tail to
/// `journal.jsonl`.
///
/// Thread-safe. Appends may run under subsystem locks (DataFileStore's
/// mutex, FaultInjectionEnv's mutex), so Append never calls back into any
/// subsystem.
class EventJournal {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit EventJournal(size_t capacity = kDefaultCapacity);

  /// Process-wide journal (leaked singleton, like MetricsRegistry).
  static EventJournal* Global();

  /// Appends one event. `ts_ns` of 0 means "stamp with ScopedTimer::NowNs()
  /// now"; pass an explicit timestamp to use an injected clock.
  void Append(const std::string& category, const std::string& name,
              const std::string& detail, uint64_t ts_ns = 0);

  /// The newest `n` events still in the ring, oldest first.
  std::vector<JournalEvent> Tail(size_t n) const;

  /// Entries overwritten by ring wrap since construction.
  uint64_t dropped() const;
  /// Next sequence number to be assigned (== total appends).
  uint64_t next_seq() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<JournalEvent> ring_;  // ring_[seq % capacity_]
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
};

// Journals an event into the process-wide journal. Kept as a macro for
// symmetry with the S2_COUNTER / S2_HISTOGRAM emit sites.
#define S2_JOURNAL(category, name, detail_expr) \
  ::s2::EventJournal::Global()->Append((category), (name), (detail_expr))

}  // namespace s2

#endif  // S2_COMMON_JOURNAL_H_
