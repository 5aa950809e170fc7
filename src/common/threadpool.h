#ifndef S2_COMMON_THREADPOOL_H_
#define S2_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace s2 {

/// Fixed-size worker pool used for background flush/merge/upload tasks and
/// benchmark worker threads. Tasks are plain std::function<void()>; tasks
/// must not throw.
///
/// Shutdown/drain contract (relied on by Executor and DataFileStore):
///  - Submit() after Shutdown() has begun returns false and the task is
///    dropped; the caller owns the fallback (run inline, requeue, ...).
///  - Tasks enqueued before Shutdown() are all executed: Shutdown() stops
///    intake, drains the queue, then joins the workers.
///  - A task may Submit() further tasks (upload -> evict -> upload chains).
///    WaitIdle() only returns when the queue is empty AND no task is
///    running, so such chains are fully settled when it returns. A chain
///    task submitted during Shutdown() is dropped like any other late
///    Submit.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Returns false if the pool is shutting down.
  bool Submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle. Robust to
  /// tasks that enqueue further tasks (see class comment).
  void WaitIdle();

  /// Stops accepting tasks, drains the queue, joins all workers. Safe to
  /// call concurrently / repeatedly; only the first call joins.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace s2

#endif  // S2_COMMON_THREADPOOL_H_
