#include "common/executor.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

namespace s2 {

namespace {

size_t DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// State shared between the caller and its helper tasks. Helpers hold a
/// shared_ptr so a helper that is dequeued after the loop already finished
/// only touches the counters (never `body`, which lives on the caller's
/// frame) and exits.
struct LoopState {
  LoopState(size_t n_in, const std::function<Status(size_t)>* body_in,
            CancelToken* cancel_in)
      : n(n_in), body(body_in), cancel(cancel_in) {}

  const size_t n;
  const std::function<Status(size_t)>* const body;
  CancelToken* const cancel;

  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};

  std::mutex mu;
  std::condition_variable cv;
  Status first_error;   // guarded by mu
  size_t running = 0;   // helpers currently inside the claim loop

  void RecordError(Status s) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) first_error = std::move(s);
    }
    stop.store(true, std::memory_order_release);
    if (cancel != nullptr) cancel->Cancel();
  }

  /// Claims and runs iterations until the range is exhausted or stopped.
  void RunLoop() {
    for (;;) {
      if (stop.load(std::memory_order_acquire)) return;
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      // Claiming an index below n proves the caller is still blocked in
      // ParallelFor: it cannot observe exhaustion until next >= n, and
      // next never decreases. Only from here on is it safe to touch
      // caller-frame state (`body` and `cancel`) — a helper dequeued
      // after the loop finished exits above, via counters alone.
      if (cancel != nullptr && cancel->cancelled()) {
        stop.store(true, std::memory_order_release);
        return;
      }
      Status s = (*body)(i);
      if (!s.ok()) {
        RecordError(std::move(s));
        return;
      }
    }
  }
};

void HelperTask(const std::shared_ptr<LoopState>& state) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->running;
  }
  // A helper that starts after the range was fully claimed (or the loop
  // stopped) exits without ever dereferencing `body`.
  state->RunLoop();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    --state->running;
  }
  state->cv.notify_all();
}

}  // namespace

Executor::Executor(size_t num_threads)
    : pool_(num_threads == 0 ? DefaultThreads() : num_threads) {}

Executor::~Executor() { pool_.Shutdown(); }

Executor* Executor::Default() {
  static Executor* shared = new Executor(0);
  return shared;
}

Status Executor::ParallelFor(size_t n,
                             const std::function<Status(size_t)>& body,
                             CancelToken* cancel) {
  if (n == 0) return Status::OK();
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Aborted("cancelled");
  }

  auto state = std::make_shared<LoopState>(n, &body, cancel);

  // The caller is one of the pool's N threads for this loop, so at most
  // N-1 helpers are useful (none on a 1-thread executor: the loop runs
  // inline). Submit failures (pool shutting down) are fine: the caller
  // runs what the helpers would have.
  size_t helpers = std::min(pool_.num_threads() - 1, n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    if (!pool_.Submit([state] { HelperTask(state); })) break;
  }

  // RunLoop returns only once every index is claimed or the loop stopped,
  // so the caller itself runs whatever no started helper claimed. It then
  // waits only for helpers already inside the loop; a helper still queued
  // (behind this very task, when nested) starts later, finds nothing to
  // claim and exits. No wait depends on a queued task, so nesting cannot
  // deadlock.
  state->RunLoop();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state] { return state->running == 0; });
  if (!state->first_error.ok()) return state->first_error;
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Aborted("cancelled");
  }
  return Status::OK();
}

}  // namespace s2
