#include "common/metrics.h"

#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/json.h"

namespace s2 {

// --- Histogram ---

size_t Histogram::BucketFor(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);  // exact for tiny values
  // v in [2^e, 2^(e+1)): octave e, linear sub-bucket from the bits right
  // below the leading one.
  int e = 63 - std::countl_zero(v);
  size_t sub = static_cast<size_t>(v >> (e - kSubShift)) & (kSub - 1);
  size_t group = static_cast<size_t>(e) - kSubShift + 1;
  return group * kSub + sub;
}

uint64_t Histogram::BucketMid(size_t bucket) {
  if (bucket < kSub) return bucket;
  size_t group = bucket / kSub;
  size_t sub = bucket % kSub;
  int e = static_cast<int>(group + kSubShift - 1);
  uint64_t low = (kSub + sub) << (e - kSubShift);
  uint64_t width = uint64_t{1} << (e - kSubShift);
  return low + width / 2;
}

void Histogram::Record(uint64_t v) {
  buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (v > prev &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Quantile(double q) const {
  uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  auto target = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (target == 0) target = 1;
  uint64_t cum = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    cum += buckets_[b].load(std::memory_order_relaxed);
    if (cum >= target) {
      // Never report past the true max (the top bucket's midpoint can).
      return std::min(BucketMid(b), max());
    }
  }
  return max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// --- ScopedTimer ---

uint64_t ScopedTimer::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- MetricsRegistry ---

MetricsRegistry* MetricsRegistry::Global() {
  // Leaked so metric handles cached in function-local statics stay valid
  // during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string EscapePrometheusLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {

void AppendHistogramText(std::string* out, const std::string& name,
                         const Histogram& h) {
  char buf[256];
  static constexpr std::pair<const char*, double> kQuantiles[] = {
      {"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}};
  for (const auto& [label, q] : kQuantiles) {
    snprintf(buf, sizeof(buf), "%s{quantile=\"%s\"} %" PRIu64 "\n",
             name.c_str(), EscapePrometheusLabel(label).c_str(),
             h.Quantile(q));
    *out += buf;
  }
  snprintf(buf, sizeof(buf),
           "%s_count %" PRIu64 "\n%s_sum %" PRIu64 "\n%s_max %" PRIu64 "\n",
           name.c_str(), h.count(), name.c_str(), h.sum(), name.c_str(),
           h.max());
  *out += buf;
}

void AppendHistogramJson(std::string* out, const Histogram& h) {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
           ",\"mean\":%.1f,\"p50\":%" PRIu64 ",\"p95\":%" PRIu64
           ",\"p99\":%" PRIu64 ",\"max\":%" PRIu64 "}",
           h.count(), h.sum(), h.mean(), h.Quantile(0.5), h.Quantile(0.95),
           h.Quantile(0.99), h.max());
  *out += buf;
}

}  // namespace

std::string MetricsRegistry::Dump() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[256];
  for (const auto& [name, c] : counters_) {
    snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name.c_str(), c->value());
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    snprintf(buf, sizeof(buf), "%s %" PRId64 "\n", name.c_str(), g->value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    AppendHistogramText(&out, name, *h);
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  char buf[256];
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",";
    first = false;
  };
  for (const auto& [name, c] : counters_) {
    sep();
    out += JsonQuote(name);
    snprintf(buf, sizeof(buf), ":%" PRIu64, c->value());
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    sep();
    out += JsonQuote(name);
    snprintf(buf, sizeof(buf), ":%" PRId64, g->value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    sep();
    out += JsonQuote(name);
    out += ":";
    AppendHistogramJson(&out, *h);
  }
  out += "}";
  return out;
}

std::vector<MetricSample> MetricsRegistry::SnapshotValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size() * 4);
  for (const auto& [name, c] : counters_) {
    out.push_back({name, static_cast<double>(c->value())});
  }
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, static_cast<double>(g->value())});
  }
  for (const auto& [name, h] : histograms_) {
    out.push_back({name + ".p50", static_cast<double>(h->Quantile(0.5))});
    out.push_back({name + ".p95", static_cast<double>(h->Quantile(0.95))});
    out.push_back({name + ".p99", static_cast<double>(h->Quantile(0.99))});
    out.push_back({name + ".count", static_cast<double>(h->count())});
  }
  return out;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace s2
