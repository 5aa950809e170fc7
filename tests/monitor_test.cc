#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "blob/blob_store.h"
#include "common/env.h"
#include "common/fault_env.h"
#include "common/flight_recorder.h"
#include "common/journal.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/monitor.h"
#include "common/profile.h"
#include "common/trace_export.h"
#include "engine/database.h"
#include "query/plan.h"
#include "test_util.h"

namespace s2 {
namespace {

// ----------------------------------------------------------------
// JSON escaping (shared helper used by every JSON producer)
// ----------------------------------------------------------------

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nnext\ttab\rret"), "line\\nnext\\ttab\\rret");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
  EXPECT_EQ(JsonQuote("k\"v"), "\"k\\\"v\"");
}

TEST(JsonEscapeTest, MetricsAndProfileDumpsStayEscaped) {
  S2_COUNTER("s2_test_escape\"metric").Add();
  std::string json = MetricsRegistry::Global()->DumpJson();
  EXPECT_NE(json.find("s2_test_escape\\\"metric"), std::string::npos);

  ProfileCollector collector("root\"span");
  collector.FinishRoot();
  std::string pjson = collector.ToJson();
  EXPECT_NE(pjson.find("root\\\"span"), std::string::npos);
}

// ----------------------------------------------------------------
// MonitorService sampling + watchdog rules (injected clock)
// ----------------------------------------------------------------

TEST(MonitorServiceTest, SamplesRegistryIntoBoundedRings) {
  FaultInjectionEnv fenv;
  fenv.FreezeClockAt(1'000'000'000);

  MonitorOptions opts;
  opts.env = &fenv;
  opts.ring_capacity = 3;
  MonitorService monitor(opts);

  S2_COUNTER("s2_test_mon_sampled_total").Add(7);
  for (int i = 0; i < 5; ++i) {
    monitor.TickOnce();
    fenv.AdvanceClock(100'000'000);
  }
  EXPECT_EQ(monitor.ticks(), 5u);

  std::vector<MonitorPoint> points = monitor.Series("s2_test_mon_sampled_total");
  ASSERT_EQ(points.size(), 3u) << "ring capacity bounds retention";
  // Oldest two points fell off; timestamps follow the injected clock.
  EXPECT_EQ(points[0].ts_ns, 1'200'000'000u);
  EXPECT_EQ(points[2].ts_ns, 1'400'000'000u);
  EXPECT_GE(points[0].value, 7.0);
  EXPECT_TRUE(monitor.Series("s2_no_such_series").empty());
}

TEST(MonitorServiceTest, WatchdogDebouncesFiresAndClears) {
  FaultInjectionEnv fenv;
  fenv.FreezeClockAt(5'000'000'000);
  MonitorOptions opts;
  opts.env = &fenv;
  MonitorService monitor(opts);

  double observed = 0.0;
  monitor.AddRule({"test_rule", [&observed] { return observed; },
                   /*threshold=*/10.0, WatchdogCmp::kAbove, /*for_ticks=*/2});

  uint64_t journal_start = EventJournal::Global()->next_seq();

  observed = 50.0;
  monitor.TickOnce();  // breach 1: debounced, not yet firing
  EXPECT_FALSE(monitor.AnyFiring());
  fenv.AdvanceClock(100'000'000);
  monitor.TickOnce();  // breach 2: fires
  ASSERT_TRUE(monitor.AnyFiring());

  std::vector<WatchdogStatus> statuses = monitor.RuleStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].name, "test_rule");
  EXPECT_TRUE(statuses[0].firing);
  EXPECT_EQ(statuses[0].breach_ticks, 2);
  EXPECT_EQ(statuses[0].fire_count, 1u);
  EXPECT_EQ(statuses[0].fired_since_ns, 5'100'000'000u);
  EXPECT_EQ(statuses[0].last_observed, 50.0);

  fenv.AdvanceClock(900'000'000);
  observed = 1.0;
  monitor.TickOnce();  // first healthy tick clears
  EXPECT_FALSE(monitor.AnyFiring());
  statuses = monitor.RuleStatuses();
  EXPECT_FALSE(statuses[0].firing);
  EXPECT_EQ(statuses[0].breach_ticks, 0);
  EXPECT_EQ(statuses[0].fire_count, 1u) << "lifetime count survives the clear";

  // Both transitions were journaled with rule name and observed values.
  bool saw_fired = false, saw_cleared = false;
  for (const JournalEvent& ev :
       EventJournal::Global()->Tail(EventJournal::kDefaultCapacity)) {
    if (ev.seq < journal_start || ev.category != "watchdog") continue;
    if (ev.name == "rule_fired" &&
        ev.detail.find("rule=test_rule") != std::string::npos) {
      EXPECT_NE(ev.detail.find("threshold=10"), std::string::npos);
      EXPECT_NE(ev.detail.find("observed=50"), std::string::npos);
      saw_fired = true;
    }
    if (ev.name == "rule_cleared" &&
        ev.detail.find("rule=test_rule") != std::string::npos) {
      EXPECT_NE(ev.detail.find("duration_ns=900000000"), std::string::npos);
      saw_cleared = true;
    }
  }
  EXPECT_TRUE(saw_fired);
  EXPECT_TRUE(saw_cleared);
}

// ----------------------------------------------------------------
// Event journal
// ----------------------------------------------------------------

TEST(EventJournalTest, RingKeepsNewestAndCountsDrops) {
  EventJournal journal(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    journal.Append("test", "e" + std::to_string(i), "", /*ts_ns=*/100 + i);
  }
  EXPECT_EQ(journal.next_seq(), 10u);
  EXPECT_EQ(journal.dropped(), 6u);
  std::vector<JournalEvent> events = journal.Tail(10);
  ASSERT_EQ(events.size(), 4u) << "a tail holds only what the ring kept";
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
  EXPECT_EQ(events.front().seq, 6u);
  std::vector<JournalEvent> tail = journal.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].name, "e8");
  EXPECT_EQ(tail[1].name, "e9");
}

// ----------------------------------------------------------------
// Chrome trace export
// ----------------------------------------------------------------

TEST(ChromeTraceTest, BuildsProfileLanes) {
  ProfileCollector collector("query");
  ProfileNode* p0 = collector.StartSpan(collector.root(), "partition-0", "");
  collector.FinishSpan(p0);
  ProfileNode* p1 = collector.StartSpan(collector.root(), "partition-1", "");
  collector.FinishSpan(p1);
  collector.FinishRoot();

  ChromeTraceBuilder builder;
  builder.AddProfileTree(*collector.root(), /*pid=*/1, "query");
  std::string json = builder.Finish();

  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("partition-0"), std::string::npos);
  EXPECT_NE(json.find("partition-1"), std::string::npos);
  // Metadata events name processes; fan-out children get their own lanes.
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"partition-0\",\"cat\":\"profile\""),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":1,\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1,\"tid\":2"), std::string::npos);
  // Balanced brackets as a cheap well-formedness check (no raw quotes can
  // unbalance them because every string goes through JsonEscape).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ----------------------------------------------------------------
// End-to-end: fault-injected replication stall fires watchdogs
// ----------------------------------------------------------------

TableOptions ItemsTable() {
  TableOptions t;
  t.schema = Schema({{"id", DataType::kInt64},
                     {"name", DataType::kString},
                     {"price", DataType::kDouble}});
  t.unique_key = {0};
  t.segment_rows = 64;
  t.flush_threshold = 64;
  return t;
}

class MonitorIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("s2-monitor");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { (void)RemoveDirRecursive(dir_); }

  std::string dir_;
};

TEST_F(MonitorIntegrationTest, BlobStallFiresReplicationAndUploadWatchdogs) {
  uint64_t seed = TestSeed(7);
  SCOPED_TRACE("S2_TEST_SEED=" + std::to_string(seed));

  FaultInjectionEnv fenv;
  fenv.FreezeClockAt(1'000'000'000);
  LocalDirBlobStore blob(dir_ + "/blob", &fenv);

  DatabaseOptions opts;
  opts.dir = dir_ + "/db";
  opts.blob = &blob;
  opts.env = &fenv;
  opts.num_partitions = 1;
  opts.ha_replicas = 0;
  opts.watchdog.replication_lag_bytes = 1024;
  opts.watchdog.upload_queue_age_ns = 2'000'000'000;  // 2s on the env clock
  opts.watchdog.for_ticks = 2;
  auto db_or = Database::Open(std::move(opts));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Database* db = db_or->get();
  MonitorService* monitor = db->monitor();
  ASSERT_NE(monitor, nullptr);

  ASSERT_TRUE(db->CreateTable("items", ItemsTable(), {0}).ok());

  // Freeze the blob store: every PUT under the blob root fails. Local
  // writes keep working — steady state tolerates a blob outage.
  fenv.InjectFault(EnvOp::kWrite, "/blob",
                   {FaultSpec::Mode::kError, /*skip=*/0,
                    /*count=*/1'000'000, seed});

  std::vector<Row> rows;
  int n = 200 + static_cast<int>(seed % 32);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value(i), Value("name-" + std::to_string(i)), Value(0.5)});
  }
  ASSERT_TRUE(db->Insert("items", rows).ok())
      << "local writes keep working through the blob outage";
  // Maintain flushes the rowstore into data files (enqueueing uploads),
  // then reports the failed trailing blob-upload step; the files stay
  // queued with their first-enqueue timestamps.
  EXPECT_FALSE(db->Maintain().ok()) << "uploads must fail while frozen";
  EXPECT_FALSE(db->Checkpoint().ok());
  EXPECT_GT(db->cluster()->partition(0)->files()->PendingUploads(), 0u);

  uint64_t journal_start = EventJournal::Global()->next_seq();

  // Let the pending uploads age past the threshold on the injected clock,
  // then tick through the debounce window.
  fenv.AdvanceClock(3'000'000'000);
  monitor->TickOnce();
  EXPECT_FALSE(monitor->AnyFiring()) << "for_ticks=2 debounces one tick";
  fenv.AdvanceClock(100'000'000);
  monitor->TickOnce();

  bool lag_firing = false, age_firing = false;
  for (const WatchdogStatus& st : monitor->RuleStatuses()) {
    if (st.name == "replication_lag") lag_firing = st.firing;
    if (st.name == "upload_queue_age") age_firing = st.firing;
  }
  EXPECT_TRUE(lag_firing) << "durable log bytes never reached blob storage";
  EXPECT_TRUE(age_firing);

  int fired_events = 0;
  for (const JournalEvent& ev :
       EventJournal::Global()->Tail(EventJournal::kDefaultCapacity)) {
    if (ev.seq >= journal_start && ev.category == "watchdog" &&
        ev.name == "rule_fired") {
      ++fired_events;
    }
  }
  EXPECT_GE(fired_events, 2);

  // Unfreeze: drain the queue and upload the log tail; rules clear on the
  // first healthy tick.
  fenv.ClearFaults();
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(db->cluster()->partition(0)->files()->PendingUploads(), 0u);
  fenv.AdvanceClock(100'000'000);
  monitor->TickOnce();
  EXPECT_FALSE(monitor->AnyFiring());

  bool saw_clear = false;
  for (const JournalEvent& ev :
       EventJournal::Global()->Tail(EventJournal::kDefaultCapacity)) {
    if (ev.seq >= journal_start && ev.category == "watchdog" &&
        ev.name == "rule_cleared") {
      saw_clear = true;
    }
  }
  EXPECT_TRUE(saw_clear);
}

// ----------------------------------------------------------------
// Flight recorder bundle + system tables
// ----------------------------------------------------------------

TEST_F(MonitorIntegrationTest, FlightRecorderBundleIsComplete) {
  MemBlobStore blob;
  DatabaseOptions opts;
  opts.dir = dir_ + "/db";
  opts.blob = &blob;
  opts.num_partitions = 2;
  opts.slow_query_ns = 1;  // profile + retain every query
  auto db_or = Database::Open(std::move(opts));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Database* db = db_or->get();

  ASSERT_TRUE(db->CreateTable("items", ItemsTable(), {0}).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back({Value(i), Value("n" + std::to_string(i)), Value(1.0)});
  }
  ASSERT_TRUE(db->Insert("items", rows).ok());
  ASSERT_TRUE(db->Maintain().ok());
  auto q = db->Query(
      [] { return std::make_unique<ScanOp>("items", std::vector<int>{0}); });
  ASSERT_TRUE(q.ok());
  ASSERT_FALSE(db->SlowQueries().empty());

  for (int i = 0; i < 3; ++i) db->monitor()->TickOnce();

  std::string bundle = dir_ + "/bundle";
  ASSERT_TRUE(db->DumpFlightRecorder(bundle).ok());

  Env* env = Env::Default();
  // The bundle holds exactly these files, and the manifest lists exactly
  // what was written (itself last).
  std::vector<std::string> expected = {
      "metrics.prom",       "metrics.json",      "monitor_history.json",
      "watchdogs.json",     "journal.jsonl",     "system_tables.json",
      "slow_queries.json",  "engine_trace.json", "manifest.json"};
  auto listed = env->ListDir(bundle);
  ASSERT_TRUE(listed.ok());
  std::vector<std::string> on_disk = *listed;
  std::vector<std::string> expected_sorted = expected;
  std::sort(on_disk.begin(), on_disk.end());
  std::sort(expected_sorted.begin(), expected_sorted.end());
  EXPECT_EQ(on_disk, expected_sorted);
  std::string files_json = "{\"files\":[";
  for (size_t i = 0; i < expected.size(); ++i) {
    files_json += (i == 0 ? "" : ",") + JsonQuote(expected[i]);
  }
  files_json += "],";
  auto manifest = env->ReadFileToString(bundle + "/manifest.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->find(files_json), 0u) << *manifest;

  // Each tick sampled every registry metric: a counter and a histogram
  // quantile both hold one point per tick.
  EXPECT_EQ(db->monitor()->Series("s2_flush_total").size(), 3u);
  EXPECT_EQ(db->monitor()->Series("s2_txn_commit_ns.p99").size(), 3u);
  auto history = env->ReadFileToString(bundle + "/monitor_history.json");
  ASSERT_TRUE(history.ok());
  EXPECT_NE(history->find("\"ticks\":3"), std::string::npos);
  EXPECT_NE(history->find("s2_flush_total"), std::string::npos);

  // The journal recorded lifecycle events (flushes at minimum).
  auto journal = env->ReadFileToString(bundle + "/journal.jsonl");
  ASSERT_TRUE(journal.ok());
  EXPECT_NE(journal->find("\"category\":\"storage\""), std::string::npos);

  // The trace is a chrome trace_event document with engine content.
  auto trace = env->ReadFileToString(bundle + "/engine_trace.json");
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->find("{\"traceEvents\":["), 0u);
  EXPECT_NE(trace->find("slow_query#"), std::string::npos);
  EXPECT_EQ(std::count(trace->begin(), trace->end(), '{'),
            std::count(trace->begin(), trace->end(), '}'));

  // Monitor state is rendered once, in its own files: the system tables
  // do not repeat it.
  auto tables = env->ReadFileToString(bundle + "/system_tables.json");
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables->find("\"monitor."), std::string::npos) << *tables;

  std::vector<std::string> rules;
  for (const WatchdogStatus& st : db->monitor()->RuleStatuses()) {
    rules.push_back(st.name);
  }
  EXPECT_EQ(rules, (std::vector<std::string>{"replication_lag",
                                             "upload_queue_age"}))
      << "the standard rule set";
  auto watchdogs = env->ReadFileToString(bundle + "/watchdogs.json");
  ASSERT_TRUE(watchdogs.ok());
  for (const std::string& rule : rules) {
    EXPECT_NE(watchdogs->find("\"rule\":" + JsonQuote(rule)),
              std::string::npos)
        << rule;
  }
}

}  // namespace
}  // namespace s2
