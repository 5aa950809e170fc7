#ifndef S2_COMMON_MONITOR_H_
#define S2_COMMON_MONITOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace s2 {

class Env;

/// One sample of one time-series.
struct MonitorPoint {
  uint64_t ts_ns = 0;
  double value = 0.0;
};

/// Comparison direction for a watchdog rule.
enum class WatchdogCmp { kAbove, kBelow };

/// A health rule evaluated on every monitor tick. `observe` returns the
/// current value of the watched quantity (it may read cluster state or
/// registry metrics); the rule fires when the value breaches `threshold` for
/// `for_ticks` consecutive ticks, and clears on the first non-breaching
/// tick. Fire and clear transitions are journaled with the rule name,
/// threshold, observed value, and (on clear) the firing duration.
struct WatchdogRule {
  std::string name;
  std::function<double()> observe;
  double threshold = 0.0;
  WatchdogCmp cmp = WatchdogCmp::kAbove;
  /// Consecutive breaching ticks required before firing (debounce).
  int for_ticks = 1;
};

/// Current state of one rule, as rendered in watchdogs.json.
struct WatchdogStatus {
  std::string name;
  double threshold = 0.0;
  WatchdogCmp cmp = WatchdogCmp::kAbove;
  double last_observed = 0.0;
  int breach_ticks = 0;      // current consecutive-breach run
  bool firing = false;
  uint64_t fired_since_ns = 0;  // tick timestamp when firing started
  uint64_t fire_count = 0;      // lifetime fire transitions
};

/// Default thresholds for the standard rule set every Database installs
/// (see Database::Open); embedded in DatabaseOptions so tests and
/// deployments tune them without touching rule code. Rules should fire on
/// injected pathologies, not healthy load.
struct WatchdogThresholds {
  /// replication_lag: max bytes any replica (HA sink, workspace, or the
  /// blob log-tail upload) trails the primary's durable LSN.
  uint64_t replication_lag_bytes = 4ull << 20;
  /// upload_queue_age: age of the oldest data file still waiting for blob
  /// upload, on the env clock.
  uint64_t upload_queue_age_ns = 5'000'000'000;
  /// Debounce applied to the standard rules.
  int for_ticks = 2;
};

struct MonitorOptions {
  /// Points retained per series (ring; oldest dropped).
  size_t ring_capacity = 240;
  /// Clock for sample timestamps and rule durations; null = Env::Default().
  /// A FaultInjectionEnv here (FreezeClockAt/AdvanceClock) plus manual
  /// TickOnce() calls makes every timestamp in tests deterministic.
  Env* env = nullptr;
};

/// Continuous monitoring: snapshots every registry metric into bounded
/// ring time-series on each tick and evaluates watchdog rules against the
/// live state. Ticks come from explicit TickOnce() calls (benches tick it
/// between phases; in tests the injected env clock makes the recorded
/// history reproducible).
///
/// Lock order: series state is guarded by series_mu_, rule state by
/// rules_mu_, and rules are evaluated holding neither — observe()
/// callbacks may therefore take subsystem locks without deadlock.
class MonitorService {
 public:
  explicit MonitorService(MonitorOptions options = MonitorOptions());

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  void AddRule(WatchdogRule rule);

  /// One sample-and-evaluate pass: reads the clock, appends every registry
  /// metric to its series, then evaluates all rules. Thread-safe.
  void TickOnce();

  uint64_t ticks() const;

  /// Points of one series, oldest first (empty when unknown).
  std::vector<MonitorPoint> Series(const std::string& name) const;

  std::vector<WatchdogStatus> RuleStatuses() const;
  /// True if any rule is currently firing.
  bool AnyFiring() const;

  /// {"ticks":..,"series":{name:[{"ts_ns":..,"v":..}..]}}
  std::string HistoryJson() const;
  /// [{"rule":..,"threshold":..,"cmp":..,"observed":..,"firing":..,..}]
  std::string WatchdogsJson() const;

 private:
  void SampleLocked(uint64_t now_ns);  // series_mu_ held
  void EvaluateRules(uint64_t now_ns);

  MonitorOptions options_;
  Env* env_;

  mutable std::mutex series_mu_;
  std::map<std::string, std::deque<MonitorPoint>> series_;
  uint64_t ticks_ = 0;

  mutable std::mutex rules_mu_;
  struct RuleState {
    WatchdogRule rule;
    WatchdogStatus status;
  };
  std::vector<RuleState> rules_;
};

}  // namespace s2

#endif  // S2_COMMON_MONITOR_H_
