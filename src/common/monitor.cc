#include "common/monitor.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/env.h"
#include "common/journal.h"
#include "common/json.h"
#include "common/metrics.h"

namespace s2 {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

const char* CmpName(WatchdogCmp cmp) {
  return cmp == WatchdogCmp::kAbove ? "above" : "below";
}

bool Breaches(double v, double threshold, WatchdogCmp cmp) {
  return cmp == WatchdogCmp::kAbove ? v > threshold : v < threshold;
}

}  // namespace

MonitorService::MonitorService(MonitorOptions options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
}

void MonitorService::AddRule(WatchdogRule rule) {
  std::lock_guard<std::mutex> lock(rules_mu_);
  RuleState state;
  state.status.name = rule.name;
  state.status.threshold = rule.threshold;
  state.status.cmp = rule.cmp;
  state.rule = std::move(rule);
  rules_.push_back(std::move(state));
}

void MonitorService::TickOnce() {
  uint64_t now = env_->NowNs();
  {
    std::lock_guard<std::mutex> lock(series_mu_);
    SampleLocked(now);
    ++ticks_;
  }
  EvaluateRules(now);
}

void MonitorService::SampleLocked(uint64_t now_ns) {
  for (const MetricSample& sample :
       MetricsRegistry::Global()->SnapshotValues()) {
    std::deque<MonitorPoint>& ring = series_[sample.name];
    ring.push_back(MonitorPoint{now_ns, sample.value});
    while (ring.size() > options_.ring_capacity) ring.pop_front();
  }
}

void MonitorService::EvaluateRules(uint64_t now_ns) {
  // Copy the observers out so evaluation holds no monitor lock: observe()
  // callbacks read cluster and registry state.
  struct Pending {
    size_t index;
    std::function<double()> observe;
  };
  std::vector<Pending> pending;
  {
    std::lock_guard<std::mutex> lock(rules_mu_);
    pending.reserve(rules_.size());
    for (size_t i = 0; i < rules_.size(); ++i) {
      pending.push_back(Pending{i, rules_[i].rule.observe});
    }
  }
  std::vector<double> observed(pending.size(), 0.0);
  for (size_t i = 0; i < pending.size(); ++i) {
    if (pending[i].observe) observed[i] = pending[i].observe();
  }
  std::lock_guard<std::mutex> lock(rules_mu_);
  for (size_t i = 0; i < pending.size(); ++i) {
    RuleState& rs = rules_[pending[i].index];
    WatchdogStatus& st = rs.status;
    double v = observed[i];
    st.last_observed = v;
    if (Breaches(v, rs.rule.threshold, rs.rule.cmp)) {
      ++st.breach_ticks;
      if (!st.firing && st.breach_ticks >= rs.rule.for_ticks) {
        st.firing = true;
        st.fired_since_ns = now_ns;
        ++st.fire_count;
        EventJournal::Global()->Append(
            "watchdog", "rule_fired",
            "rule=" + st.name + " cmp=" + CmpName(rs.rule.cmp) +
                " threshold=" + FormatDouble(rs.rule.threshold) +
                " observed=" + FormatDouble(v) +
                " breach_ticks=" + std::to_string(st.breach_ticks),
            now_ns);
      }
    } else {
      if (st.firing) {
        EventJournal::Global()->Append(
            "watchdog", "rule_cleared",
            "rule=" + st.name + " observed=" + FormatDouble(v) +
                " duration_ns=" +
                std::to_string(now_ns >= st.fired_since_ns
                                   ? now_ns - st.fired_since_ns
                                   : 0),
            now_ns);
      }
      st.firing = false;
      st.breach_ticks = 0;
      st.fired_since_ns = 0;
    }
  }
}

uint64_t MonitorService::ticks() const {
  std::lock_guard<std::mutex> lock(series_mu_);
  return ticks_;
}

std::vector<MonitorPoint> MonitorService::Series(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(series_mu_);
  auto it = series_.find(name);
  if (it == series_.end()) return {};
  return std::vector<MonitorPoint>(it->second.begin(), it->second.end());
}

std::vector<WatchdogStatus> MonitorService::RuleStatuses() const {
  std::lock_guard<std::mutex> lock(rules_mu_);
  std::vector<WatchdogStatus> out;
  out.reserve(rules_.size());
  for (const RuleState& rs : rules_) out.push_back(rs.status);
  return out;
}

bool MonitorService::AnyFiring() const {
  std::lock_guard<std::mutex> lock(rules_mu_);
  for (const RuleState& rs : rules_) {
    if (rs.status.firing) return true;
  }
  return false;
}

std::string MonitorService::HistoryJson() const {
  std::lock_guard<std::mutex> lock(series_mu_);
  char buf[64];
  std::string out = "{\"ticks\":";
  snprintf(buf, sizeof(buf), "%" PRIu64, ticks_);
  out += buf;
  out += ",\"series\":{";
  bool first_series = true;
  for (const auto& [name, ring] : series_) {
    if (!first_series) out += ",";
    first_series = false;
    out += JsonQuote(name);
    out += ":[";
    bool first_point = true;
    for (const MonitorPoint& p : ring) {
      if (!first_point) out += ",";
      first_point = false;
      out += "{\"ts_ns\":";
      snprintf(buf, sizeof(buf), "%" PRIu64, p.ts_ns);
      out += buf;
      out += ",\"v\":";
      out += FormatDouble(p.value);
      out += "}";
    }
    out += "]";
  }
  out += "}}";
  return out;
}

std::string MonitorService::WatchdogsJson() const {
  std::lock_guard<std::mutex> lock(rules_mu_);
  char buf[64];
  std::string out = "[";
  bool first = true;
  for (const RuleState& rs : rules_) {
    const WatchdogStatus& st = rs.status;
    if (!first) out += ",";
    first = false;
    out += "{\"rule\":";
    out += JsonQuote(st.name);
    out += ",\"cmp\":\"";
    out += CmpName(st.cmp);
    out += "\",\"threshold\":";
    out += FormatDouble(st.threshold);
    out += ",\"observed\":";
    out += FormatDouble(st.last_observed);
    out += ",\"firing\":";
    out += st.firing ? "true" : "false";
    out += ",\"breach_ticks\":";
    snprintf(buf, sizeof(buf), "%d", st.breach_ticks);
    out += buf;
    out += ",\"fire_count\":";
    snprintf(buf, sizeof(buf), "%" PRIu64, st.fire_count);
    out += buf;
    out += ",\"fired_since_ns\":";
    snprintf(buf, sizeof(buf), "%" PRIu64, st.fired_since_ns);
    out += buf;
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace s2
