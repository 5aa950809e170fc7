#include "txn/lock_table.h"

#include <chrono>

#include "common/metrics.h"
#include "common/profile.h"

namespace s2 {

Status LockTable::Lock(TxnId txn, uint64_t lock_id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (AcquireLocked(txn, lock_id)) return Status::OK();

  const uint64_t wait_start_ns = ScopedTimer::NowNs();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kTimeoutMs);
  Waiter self{lock_id, {}};
  waiting_[txn] = &self;
  Status status;
  // Checked on every park: the owner may have changed since the last.
  while (!AcquireLocked(txn, lock_id)) {
    if (ClosesCycle(txn, owners_.at(lock_id))) {
      S2_COUNTER("s2_lock_deadlocks_total").Add();
      status = Status::Aborted("deadlock");
      break;
    }
    if (self.cv.wait_until(lock, deadline) == std::cv_status::timeout &&
        !AcquireLocked(txn, lock_id)) {
      S2_COUNTER("s2_lock_timeouts_total").Add();
      status = Status::Aborted("lock timeout");
      break;
    }
  }
  waiting_.erase(txn);
  lock.unlock();

  const uint64_t waited_ns = ScopedTimer::NowNs() - wait_start_ns;
  S2_HISTOGRAM("s2_lock_wait_ns").Record(waited_ns);
  ProfileCollector::CountHere("lock_wait_ns", static_cast<int64_t>(waited_ns));
  return status;
}

bool LockTable::TryLock(TxnId txn, uint64_t lock_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return AcquireLocked(txn, lock_id);
}

bool LockTable::AcquireLocked(TxnId txn, uint64_t lock_id) {
  auto [it, inserted] = owners_.try_emplace(lock_id, txn);
  if (inserted) held_[txn].push_back(lock_id);
  return it->second == txn;
}

bool LockTable::ClosesCycle(TxnId txn, TxnId owner) const {
  // Each hop follows a distinct waiter, so the walk ends within
  // waiting_.size() hops even if the graph held a cycle not through txn.
  for (size_t hops = 0; hops <= waiting_.size(); ++hops) {
    if (owner == txn) return true;
    auto waits = waiting_.find(owner);
    if (waits == waiting_.end()) return false;
    auto next = owners_.find(waits->second->lock_id);
    // A freed lock whose waiter has not woken yet is no edge.
    if (next == owners_.end()) return false;
    owner = next->second;
  }
  return false;
}

void LockTable::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  for (uint64_t lock_id : it->second) owners_.erase(lock_id);
  held_.erase(it);
  for (auto& [waiter_txn, waiter] : waiting_) {
    if (owners_.count(waiter->lock_id) == 0) waiter->cv.notify_one();
  }
}

size_t LockTable::num_locked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return owners_.size();
}

size_t LockTable::num_waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_.size();
}

}  // namespace s2
