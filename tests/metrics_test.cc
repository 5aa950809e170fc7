#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace s2 {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global()->ResetForTest();
  }
};

TEST_F(MetricsTest, CounterBasics) {
  Counter* c = MetricsRegistry::Global()->counter("test_counter_total");
  EXPECT_EQ(c->value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name resolves to the same counter.
  EXPECT_EQ(MetricsRegistry::Global()->counter("test_counter_total"), c);
}

TEST_F(MetricsTest, GaugeBasics) {
  Gauge* g = MetricsRegistry::Global()->gauge("test_gauge");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->value(), 7);
}

TEST_F(MetricsTest, ResetKeepsPointersValid) {
  Counter* c = MetricsRegistry::Global()->counter("test_reset_total");
  c->Add(5);
  MetricsRegistry::Global()->ResetForTest();
  EXPECT_EQ(c->value(), 0u);  // same object, zeroed
  c->Add(1);
  EXPECT_EQ(MetricsRegistry::Global()->counter("test_reset_total")->value(),
            1u);
}

TEST_F(MetricsTest, HistogramBucketErrorBound) {
  // Every value must land in a bucket whose representative is within
  // ~1/kSub relative error.
  for (uint64_t v :
       {uint64_t{1}, uint64_t{7}, uint64_t{8}, uint64_t{100}, uint64_t{1000},
        uint64_t{123456}, uint64_t{87654321}, uint64_t{1} << 40}) {
    size_t b = Histogram::BucketFor(v);
    ASSERT_LT(b, Histogram::kBuckets);
    uint64_t mid = Histogram::BucketMid(b);
    double rel = std::abs(static_cast<double>(mid) - static_cast<double>(v)) /
                 static_cast<double>(v);
    EXPECT_LE(rel, 1.0 / Histogram::kSub + 1e-9)
        << "v=" << v << " bucket=" << b << " mid=" << mid;
  }
}

TEST_F(MetricsTest, HistogramQuantilesAreSane) {
  Histogram h;
  // Uniform 1..1000: p50 ~ 500, p99 ~ 990, max exactly 1000.
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.5)), 500.0, 500.0 * 0.15);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.95)), 950.0, 950.0 * 0.15);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.99)), 990.0, 990.0 * 0.15);
  // Quantiles never exceed the observed max.
  EXPECT_LE(h.Quantile(1.0), h.max());
  // Monotone in q.
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.95), h.Quantile(0.99));
}

TEST_F(MetricsTest, HistogramSkewedDistribution) {
  Histogram h;
  // 99 fast ops at ~100ns, one slow outlier at 1ms.
  for (int i = 0; i < 99; ++i) h.Record(100);
  h.Record(1000000);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.5)), 100.0, 15.0);
  EXPECT_EQ(h.Quantile(1.0), 1000000u);
  EXPECT_GE(h.Quantile(0.999), 900000u);
}

TEST_F(MetricsTest, HistogramConcurrentRecord) {
  Histogram h;
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.max(), static_cast<uint64_t>(kPerThread));
}

// Two objects bound to one registry name, each added to from several
// threads: each object keeps its own count, the registry their sum.
TEST_F(MetricsTest, StatCounterConcurrentAdd) {
  StatCounter a("test_stat_total");
  StatCounter b("test_stat_total");
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&a, &b] {
      for (int i = 0; i < kPerThread; ++i) {
        a.Add();
        b.Add(2);
      }
    });
  }
  for (auto& th : threads) th.join();
  constexpr uint64_t kAdds = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(a.load(), kAdds);
  EXPECT_EQ(b.load(), 2 * kAdds);
  EXPECT_EQ(MetricsRegistry::Global()->counter("test_stat_total")->value(),
            3 * kAdds);
}

TEST_F(MetricsTest, ScopedTimerRecordsAndCancels) {
  Histogram h;
  {
    ScopedTimer t(&h);
    (void)t;
  }
  EXPECT_EQ(h.count(), 1u);
  {
    ScopedTimer t(&h);
    t.Cancel();
  }
  EXPECT_EQ(h.count(), 1u);  // cancelled timer did not record
}

TEST_F(MetricsTest, MacrosCacheHandles) {
  S2_COUNTER("test_macro_total").Add(3);
  S2_COUNTER("test_macro_total").Add(4);
  EXPECT_EQ(MetricsRegistry::Global()->counter("test_macro_total")->value(),
            7u);
  S2_GAUGE("test_macro_gauge").Set(-5);
  EXPECT_EQ(MetricsRegistry::Global()->gauge("test_macro_gauge")->value(), -5);
  S2_HISTOGRAM("test_macro_ns").Record(123);
  EXPECT_EQ(MetricsRegistry::Global()->histogram("test_macro_ns")->count(),
            1u);
}

TEST_F(MetricsTest, DumpContainsAllMetricKinds) {
  MetricsRegistry::Global()->counter("dump_counter_total")->Add(7);
  MetricsRegistry::Global()->gauge("dump_gauge")->Set(-2);
  MetricsRegistry::Global()->histogram("dump_ns")->Record(1000);

  std::string text = MetricsRegistry::Global()->Dump();
  EXPECT_NE(text.find("dump_counter_total 7"), std::string::npos) << text;
  EXPECT_NE(text.find("dump_gauge -2"), std::string::npos) << text;
  EXPECT_NE(text.find("dump_ns{quantile=\"0.5\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("dump_ns_count 1"), std::string::npos) << text;

  std::string json = MetricsRegistry::Global()->DumpJson();
  EXPECT_NE(json.find("\"dump_counter_total\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dump_gauge\":-2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dump_ns\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
  // Must parse as one object: balanced braces, no trailing comma.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find(",}"), std::string::npos) << json;
}

TEST_F(MetricsTest, EmptyHistogramQuantileIsZero) {
  Histogram* h = MetricsRegistry::Global()->histogram("empty_ns");
  EXPECT_EQ(h->count(), 0u);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h->Quantile(q), 0u) << "q=" << q;
  }
  h->Record(500);
  h->Reset();
  EXPECT_EQ(h->Quantile(0.5), 0u) << "reset histogram reads as empty";
}

TEST_F(MetricsTest, PrometheusLabelEscaping) {
  EXPECT_EQ(EscapePrometheusLabel("plain"), "plain");
  EXPECT_EQ(EscapePrometheusLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapePrometheusLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapePrometheusLabel("a\nb"), "a\\nb");
  EXPECT_EQ(EscapePrometheusLabel("\\\"\n"), "\\\\\\\"\\n");
}

}  // namespace
}  // namespace s2
