#ifndef S2_COMMON_METRICS_H_
#define S2_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace s2 {

/// Monotonic event counter. The hot path is one relaxed fetch_add; call
/// sites cache the pointer handed out by MetricsRegistry (see the
/// S2_COUNTER macro below) so name lookup happens once per call site.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed value (queue depth, cached bytes).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Bounded-memory log-linear latency histogram. Values (nanoseconds, but
/// any uint64 works) are bucketed by power-of-two octave with kSub linear
/// sub-buckets per octave, so every recorded sample lands within ~1/kSub
/// relative error of its bucket's representative value. Memory is a fixed
/// array of atomics regardless of how many samples are recorded, and
/// Record() is lock-free (three relaxed atomic ops plus a CAS-loop max).
class Histogram {
 public:
  static constexpr size_t kSubShift = 3;  // 8 linear sub-buckets per octave
  static constexpr size_t kSub = size_t{1} << kSubShift;
  static constexpr size_t kBuckets = (64 - kSubShift + 1) * kSub;

  void Record(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Approximate quantile (q in [0, 1]) from bucket representatives; the
  /// top quantile is clamped to the exact observed max.
  uint64_t Quantile(double q) const;

  void Reset();

  /// Bucket index for a value and the representative (midpoint) value of a
  /// bucket; exposed for tests of the bucketing error bound.
  static size_t BucketFor(uint64_t v);
  static uint64_t BucketMid(size_t bucket);

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// One (name, value) pair from MetricsRegistry::SnapshotValues. Histograms
/// expand to several samples (`name.p50`, `name.p95`, `name.p99`,
/// `name.count`).
struct MetricSample {
  std::string name;
  double value = 0.0;
};

/// Process-wide registry of named metrics. Registration (first lookup of a
/// name) takes a mutex; the returned pointers stay valid for the process
/// lifetime and are lock-free to update. ResetForTest zeroes values but
/// never invalidates pointers, so cached call-site handles survive.
///
/// Naming convention (the catalog lives in DESIGN.md): snake_case with an
/// `s2_` prefix; counters end in `_total` (or `_bytes_total`), histograms
/// of durations end in `_ns`.
class MetricsRegistry {
 public:
  static MetricsRegistry* Global();

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Prometheus-style text exposition: `name value` lines for counters and
  /// gauges; `name{quantile="..."}`, `name_count`, `name_sum`, `name_max`
  /// for histograms. Names are emitted in sorted order.
  std::string Dump() const;

  /// The same data as one JSON object (bench harness output): counters and
  /// gauges as numbers, histograms as {count, sum, mean, p50, p95, p99,
  /// max} objects.
  std::string DumpJson() const;

  /// Every registered metric flattened to (name, value) pairs — counters,
  /// then gauges, then histograms (each group name-sorted); counters and
  /// gauges one sample each, histograms as
  /// `name.p50/.p95/.p99/.count`. This is the iteration surface the
  /// MonitorService sampler uses to build time-series without knowing
  /// metric names up front.
  std::vector<MetricSample> SnapshotValues() const;

  /// Zeroes every registered metric (pointers stay valid).
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// A per-object stats field bound to one registry counter, so an event is
/// counted at one site: Add() bumps the object's own count and the
/// process-wide total together. The registry name is resolved once, at
/// construction. Push, not pull: the registry never reads live objects, so
/// destroying one does not make the process total go backward.
class StatCounter {
 public:
  explicit StatCounter(const char* registry_name)
      : total_(MetricsRegistry::Global()->counter(registry_name)) {}

  void Add(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    total_->Add(n);
  }
  /// This object's count (the registry counter holds the process total).
  uint64_t load() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  Counter* total_;
};

/// Escapes a label value for the Prometheus text exposition format:
/// backslash, double-quote and newline become \\, \" and \n.
std::string EscapePrometheusLabel(const std::string& value);

/// Records elapsed nanoseconds into a histogram at scope exit.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) : hist_(hist), start_(NowNs()) {}
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->Record(NowNs() - start_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  uint64_t ElapsedNs() const { return NowNs() - start_; }
  /// Drops the pending record (e.g. the operation failed and its latency
  /// would pollute the success histogram).
  void Cancel() { hist_ = nullptr; }

  static uint64_t NowNs();

 private:
  Histogram* hist_;
  uint64_t start_;
};

// Cached-handle accessors: the static local resolves the name once per call
// site, after which the metric update is a single atomic op.
#define S2_COUNTER(name)                                              \
  ([]() -> ::s2::Counter& {                                           \
    static ::s2::Counter* c =                                         \
        ::s2::MetricsRegistry::Global()->counter(name);               \
    return *c;                                                        \
  }())
#define S2_GAUGE(name)                                                \
  ([]() -> ::s2::Gauge& {                                             \
    static ::s2::Gauge* g = ::s2::MetricsRegistry::Global()->gauge(name); \
    return *g;                                                        \
  }())
#define S2_HISTOGRAM(name)                                            \
  ([]() -> ::s2::Histogram& {                                         \
    static ::s2::Histogram* h =                                       \
        ::s2::MetricsRegistry::Global()->histogram(name);             \
    return *h;                                                        \
  }())
#define S2_SCOPED_TIMER_CONCAT_(x, y) x##y
#define S2_SCOPED_TIMER_CONCAT(x, y) S2_SCOPED_TIMER_CONCAT_(x, y)
#define S2_SCOPED_TIMER(name)                           \
  ::s2::ScopedTimer S2_SCOPED_TIMER_CONCAT(             \
      _s2_scoped_timer_, __LINE__)(&S2_HISTOGRAM(name))

}  // namespace s2

#endif  // S2_COMMON_METRICS_H_
