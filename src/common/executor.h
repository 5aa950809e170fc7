#ifndef S2_COMMON_EXECUTOR_H_
#define S2_COMMON_EXECUTOR_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "common/threadpool.h"

namespace s2 {

/// Cooperative cancellation: producers call Cancel(), long-running work
/// polls cancelled() at natural preemption points (between segments,
/// between partitions) and unwinds with Status::Aborted. ParallelFor sets
/// the token on the first body error so sibling tasks stop early.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The process's shared execution layer: one sized thread pool behind a
/// structured-parallelism API. Every concurrent activity in the library —
/// scatter-gather query fan-out, intra-partition parallel segment scans,
/// per-partition maintenance, and blob uploads — runs on an Executor,
/// so thread ownership has a single story (see DESIGN.md "Threading
/// model").
///
/// One rule for every parallel loop: ParallelFor counts the calling thread
/// as one of the executor's N threads, so it submits at most N-1 helper
/// tasks and a 1-thread executor runs the loop inline. Callers therefore
/// never fork between a serial and a parallel path. ParallelFor is
/// deadlock-free under nesting (scatter fan-out -> per-partition scan ->
/// per-segment morsels): the caller runs every index no started helper
/// claimed and waits only for helpers that have started, never for a task
/// still in the queue.
class Executor {
 public:
  /// `num_threads == 0` sizes the pool to the hardware concurrency.
  explicit Executor(size_t num_threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  size_t num_threads() const { return pool_.num_threads(); }

  /// Fire-and-forget. Returns false when shutting down (task dropped).
  bool Submit(std::function<void()> task) { return pool_.Submit(std::move(task)); }

  /// Submit with a result future. If the pool is shutting down the task
  /// runs inline on the caller, so the future is always satisfied.
  template <typename Fn>
  auto SubmitWithResult(Fn fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    if (!pool_.Submit([task] { (*task)(); })) (*task)();
    return result;
  }

  /// Runs body(0) ... body(n-1) on the calling thread and up to
  /// num_threads()-1 pool helpers. Returns the first error in
  /// iteration order of discovery; on the first error (or when `cancel`
  /// trips) remaining un-started iterations are skipped and `cancel`, when
  /// given, is set so in-flight bodies can unwind cooperatively. Returns
  /// Status::Aborted when cancelled with no body error. Bodies of the same
  /// call may run concurrently and must synchronize any shared state.
  Status ParallelFor(size_t n, const std::function<Status(size_t)>& body,
                     CancelToken* cancel = nullptr);

  /// Blocks until no task is queued or running.
  void WaitIdle() { pool_.WaitIdle(); }

  /// Process-wide fallback executor, sized to the hardware, created on
  /// first use and intentionally leaked so it outlives every static user.
  /// Components that are not handed an executor (stand-alone Partitions,
  /// ad-hoc DataFileStores) schedule their background work here.
  static Executor* Default();

 private:
  ThreadPool pool_;
};

}  // namespace s2

#endif  // S2_COMMON_EXECUTOR_H_
