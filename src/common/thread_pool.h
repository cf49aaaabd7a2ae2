#ifndef INFERTURBO_COMMON_THREAD_POOL_H_
#define INFERTURBO_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace inferturbo {

/// A fixed-size work-queue thread pool.
///
/// Both distributed-engine simulations (Pregel workers, MapReduce
/// mappers/reducers) schedule their logical instances onto this pool, so
/// "1000 instances" can run on an N-core machine while per-instance cost
/// is still accounted individually.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution. Must not be called after Shutdown.
  void Submit(std::function<void()> task);

  /// Enqueues `task` at the front of the queue. Retry and speculative
  /// backup attempts use this so recovery work is not stuck behind a
  /// long backlog of first attempts.
  void SubmitUrgent(std::function<void()> task);

  /// Blocks until every submitted task has finished running.
  void Wait();

  std::size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for all.
  /// `fn` must be safe to invoke concurrently.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is a worker of *any* ThreadPool.
  /// Nested ParallelFor/Wait from inside a pool task would deadlock
  /// (the task itself counts as in-flight), so layered parallelism —
  /// e.g. a tensor kernel invoked from a Pregel worker — checks this
  /// and runs serially instead.
  static bool InPoolWorker();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// The process-wide default pool, sized to the hardware concurrency.
ThreadPool& DefaultThreadPool();

}  // namespace inferturbo

#endif  // INFERTURBO_COMMON_THREAD_POOL_H_
