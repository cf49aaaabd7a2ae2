#include "src/common/thread_pool.h"

#include <atomic>

#include "src/common/logging.h"
#include "src/telemetry/metrics.h"

namespace inferturbo {
namespace {

thread_local bool t_in_pool_worker = false;

}  // namespace

bool ThreadPool::InPoolWorker() { return t_in_pool_worker; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    INFERTURBO_CHECK(!shutdown_) << "Submit after shutdown";
    queue_.push_back(std::move(task));
    ++in_flight_;
    if (MetricsEnabled()) {
      // Under mu_, so the size read is exact; the gauge's peak records
      // the worst backlog a run ever built up.
      GlobalMetrics().GetGauge("threadpool.queue_depth")->Set(
          static_cast<std::int64_t>(queue_.size()));
    }
  }
  work_available_.notify_one();
}

void ThreadPool::SubmitUrgent(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    INFERTURBO_CHECK(!shutdown_) << "SubmitUrgent after shutdown";
    queue_.push_front(std::move(task));
    ++in_flight_;
    if (MetricsEnabled()) {
      GlobalMetrics().GetGauge("threadpool.queue_depth")->Set(
          static_cast<std::int64_t>(queue_.size()));
    }
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      if (MetricsEnabled()) {
        GlobalMetrics().GetGauge("threadpool.queue_depth")->Set(
            static_cast<std::int64_t>(queue_.size()));
        GlobalMetrics().GetCounter("threadpool.tasks_executed")->Increment();
      }
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // Block-partition the index space; one task per worker keeps queue
  // overhead negligible for large n.
  const std::size_t num_blocks = std::min(n, threads_.size());
  std::atomic<std::size_t> next{0};
  for (std::size_t b = 0; b < num_blocks; ++b) {
    Submit([&next, n, &fn] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  Wait();
}

ThreadPool& DefaultThreadPool() {
  static ThreadPool* pool =
      new ThreadPool(std::max(2u, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace inferturbo
