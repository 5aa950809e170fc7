#include "common/threadpool.h"

#include "common/metrics.h"

namespace s2 {

namespace {

// Shared-executor observability: queue depth as a gauge, per-task execution
// latency as a histogram. One pool of metrics across all pools — the
// process normally runs one shared Executor (see DESIGN.md).
void NoteSubmitted() { S2_GAUGE("s2_exec_queue_depth").Add(1); }
void NoteDequeued() { S2_GAUGE("s2_exec_queue_depth").Add(-1); }

struct TaskRunScope {
  ScopedTimer timer{&S2_HISTOGRAM("s2_exec_task_ns")};
  ~TaskRunScope() { S2_COUNTER("s2_exec_tasks_total").Add(); }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
  }
  NoteSubmitted();
  task_cv_.notify_one();
  return true;
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  task_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    NoteDequeued();
    {
      TaskRunScope scope;
      task();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace s2
